package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Bucket is one histogram bucket: the count of observations at or below LE
// (and above the previous bucket's bound). The final bucket's LE is +Inf.
type Bucket struct {
	// LE is the bucket's inclusive upper bound in the metric's unit.
	LE float64 `json:"le"`
	// Count is the number of observations landing in this bucket.
	Count uint64 `json:"count"`
}

// bucketWire is Bucket's JSON form: LE travels as a string because
// encoding/json refuses non-finite floats and the overflow bucket's bound
// is +Inf.
type bucketWire struct {
	LE    string `json:"le"`
	Count uint64 `json:"count"`
}

// MarshalJSON encodes the bucket with a string bound ("+Inf" included).
func (b Bucket) MarshalJSON() ([]byte, error) {
	return json.Marshal(bucketWire{LE: strconv.FormatFloat(b.LE, 'g', -1, 64), Count: b.Count})
}

// UnmarshalJSON decodes the string-bound wire form.
func (b *Bucket) UnmarshalJSON(data []byte) error {
	var w bucketWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	le, err := strconv.ParseFloat(w.LE, 64)
	if err != nil {
		return fmt.Errorf("telemetry: bad bucket bound %q: %w", w.LE, err)
	}
	b.LE, b.Count = le, w.Count
	return nil
}

// MetricPoint is one metric's frozen state inside a Snapshot.
type MetricPoint struct {
	// Name is the metric name, e.g. "consign_ack_seconds".
	Name string `json:"name"`
	// Labels is the metric's label set, if any.
	Labels map[string]string `json:"labels,omitempty"`
	// Kind says how to read the remaining fields.
	Kind Kind `json:"kind"`
	// Value holds the counter total or gauge level.
	Value float64 `json:"value,omitempty"`
	// Count is the histogram observation count.
	Count uint64 `json:"count,omitempty"`
	// Sum is the histogram's running total.
	Sum float64 `json:"sum,omitempty"`
	// Buckets is the histogram's per-bucket breakdown.
	Buckets []Bucket `json:"buckets,omitempty"`

	sortKey string
}

// Snapshot is a frozen, serialisable copy of one registry (or a merge of
// several). It travels inside the MsgMetrics reply and feeds the
// plaintext -debug-addr dump.
type Snapshot struct {
	// Origin names the component (or merged component set) sampled.
	Origin string `json:"origin"`
	// Taken is the registry-clock time of the sample.
	Taken time.Time `json:"taken"`
	// Metrics lists every metric sorted by name then labels.
	Metrics []MetricPoint `json:"metrics"`
	// Spans is the span ring's contents at sample time.
	Spans []Span `json:"spans,omitempty"`
}

// Get returns the point registered under name and the given key/value
// label pairs.
func (s Snapshot) Get(name string, kv ...string) (MetricPoint, bool) {
	want := key(name, labelMap(kv))
	for _, p := range s.Metrics {
		if key(p.Name, p.Labels) == want {
			return p, true
		}
	}
	return MetricPoint{}, false
}

// Total sums Value across every label set of a counter or gauge name.
func (s Snapshot) Total(name string) float64 {
	var t float64
	for _, p := range s.Metrics {
		if p.Name == name && p.Kind != KindHistogram {
			t += p.Value
		}
	}
	return t
}

// HistCount sums observation counts across every label set of a histogram
// name.
func (s Snapshot) HistCount(name string) uint64 {
	var n uint64
	for _, p := range s.Metrics {
		if p.Name == name && p.Kind == KindHistogram {
			n += p.Count
		}
	}
	return n
}

// Quantile estimates the q-quantile (0 < q <= 1) of a histogram by merging
// every label set of name and taking the upper bound of the bucket where
// the cumulative count crosses q. Returns 0 when the histogram is empty
// or absent.
func (s Snapshot) Quantile(name string, q float64) float64 {
	var merged []Bucket
	for _, p := range s.Metrics {
		if p.Name != name || p.Kind != KindHistogram {
			continue
		}
		merged = mergeBuckets(merged, p.Buckets)
	}
	var total uint64
	for _, b := range merged {
		total += b.Count
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(q * float64(total)))
	if want < 1 {
		want = 1
	}
	var cum uint64
	for i, b := range merged {
		cum += b.Count
		if cum >= want {
			if math.IsInf(b.LE, 1) && i > 0 {
				return merged[i-1].LE
			}
			return b.LE
		}
	}
	return merged[len(merged)-1].LE
}

// Trace returns the snapshot's spans matching one trace ID.
func (s Snapshot) Trace(id string) []Span {
	var out []Span
	for _, sp := range s.Spans {
		if sp.Trace == id {
			out = append(out, sp)
		}
	}
	return out
}

// mergeBuckets adds two bucket slices with identical layouts; a nil
// receiver adopts the other's layout.
func mergeBuckets(a, b []Bucket) []Bucket {
	if a == nil {
		out := make([]Bucket, len(b))
		copy(out, b)
		return out
	}
	if len(a) != len(b) {
		// Mismatched layouts cannot merge meaningfully; keep the larger.
		if len(b) > len(a) {
			return b
		}
		return a
	}
	for i := range a {
		a[i].Count += b[i].Count
	}
	return a
}

// Merge folds several snapshots into one under a new origin: counters and
// gauges sum per (name, labels), histograms merge bucket-by-bucket, and
// spans concatenate in cross-registry order. Inputs are not modified.
func Merge(origin string, snaps ...Snapshot) Snapshot {
	out := Snapshot{Origin: origin}
	byKey := make(map[string]*MetricPoint)
	var order []string
	for _, s := range snaps {
		if s.Taken.After(out.Taken) {
			out.Taken = s.Taken
		}
		for _, p := range s.Metrics {
			k := key(p.Name, p.Labels)
			dst, ok := byKey[k]
			if !ok {
				cp := p
				cp.Labels = copyLabels(p.Labels)
				cp.Buckets = mergeBuckets(nil, p.Buckets)
				byKey[k] = &cp
				order = append(order, k)
				continue
			}
			switch p.Kind {
			case KindHistogram:
				dst.Count += p.Count
				dst.Sum += p.Sum
				dst.Buckets = mergeBuckets(dst.Buckets, p.Buckets)
			default:
				dst.Value += p.Value
			}
		}
		out.Spans = append(out.Spans, s.Spans...)
	}
	sort.Strings(order)
	for _, k := range order {
		out.Metrics = append(out.Metrics, *byKey[k])
	}
	SortSpans(out.Spans)
	return out
}

// Flush writes the snapshot as a plaintext metrics dump (one
// "name{labels} value" line per metric, histograms as _count/_sum plus
// bucket lines, any spans as trailing "# span" comment lines). It is the
// format served at -debug-addr /metrics.
func (s Snapshot) Flush(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# origin %s\n", s.Origin); err != nil {
		return err
	}
	for _, p := range s.Metrics {
		lbl := formatLabels(p.Labels)
		var err error
		switch p.Kind {
		case KindHistogram:
			if _, err = fmt.Fprintf(w, "%s_count%s %d\n%s_sum%s %g\n", p.Name, lbl, p.Count, p.Name, lbl, p.Sum); err == nil {
				var cum uint64
				for _, b := range p.Buckets {
					if b.Count == 0 {
						continue
					}
					cum += b.Count
					if _, err = fmt.Fprintf(w, "%s_bucket%s le=%g %d\n", p.Name, lbl, b.LE, cum); err != nil {
						break
					}
				}
			}
		default:
			_, err = fmt.Fprintf(w, "%s%s %g\n", p.Name, lbl, p.Value)
		}
		if err != nil {
			return err
		}
	}
	for _, sp := range s.Spans {
		note := ""
		if sp.Note != "" {
			note = " note=" + sp.Note
		}
		if _, err := fmt.Fprintf(w, "# span trace=%s name=%s origin=%s dur=%s%s\n",
			sp.Trace, sp.Name, sp.Origin, sp.Dur, note); err != nil {
			return err
		}
	}
	return nil
}

// formatLabels renders a label set as {k="v",...} with sorted keys.
func formatLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	ks := make([]string, 0, len(labels))
	for k := range labels {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range ks {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	b.WriteByte('}')
	return b.String()
}
