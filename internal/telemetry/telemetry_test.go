package telemetry

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// raceEnabled is set by race_test.go under -race, where allocation counts
// include the detector's own and mean nothing.
var raceEnabled bool

func TestConcurrentIncrements(t *testing.T) {
	r := New("test")
	const goroutines, per = 16, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("hits", "worker", "shared")
			ga := r.Gauge("level")
			h := r.Histogram("lat_seconds", ScaleSeconds)
			for i := 0; i < per; i++ {
				c.Inc()
				ga.Inc()
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hits", "worker", "shared").Value(); got != goroutines*per {
		t.Fatalf("counter = %d, want %d", got, goroutines*per)
	}
	if got := r.Gauge("level").Value(); got != goroutines*per {
		t.Fatalf("gauge = %d, want %d", got, goroutines*per)
	}
	h := r.Histogram("lat_seconds", ScaleSeconds)
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	if got := n; got != goroutines*per {
		t.Fatalf("histogram count = %d, want %d", got, goroutines*per)
	}
	if want := float64(goroutines*per) * 0.001; math.Abs(h.Sum()-want) > 1e-6 {
		t.Fatalf("histogram sum = %g, want %g", h.Sum(), want)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	h := newHistogram(ScaleSeconds)
	cases := []struct {
		v    float64
		want int
	}{
		{0, 0},
		{5e-7, 0},   // below base → first bucket
		{1e-6, 0},   // exactly base → first bucket (inclusive upper bound)
		{1.5e-6, 1}, // (1µs, 2µs]
		{2e-6, 1},   // exactly 2µs → bucket 1
		{2.001e-6, 2},
		{1e-3, 10},               // 1ms = 1024µs ≤ 2^10µs
		{1.0, 20},                // 1s = 1e6µs ≤ 2^20µs (1048576)
		{1e9, len(h.counts) - 1}, // overflow → +Inf bucket
	}
	for _, c := range cases {
		if got := h.bucketIndex(c.v); got != c.want {
			t.Errorf("bucketIndex(%g) = %d, want %d", c.v, got, c.want)
		}
	}
	// Upper bounds: bucket i must admit exactly values ≤ base*2^i.
	if ub := h.upperBound(3); ub != 8e-6 {
		t.Errorf("upperBound(3) = %g, want 8e-6", ub)
	}
	if !math.IsInf(h.upperBound(len(h.counts)-1), 1) {
		t.Errorf("last bucket bound not +Inf")
	}
	// An observation at a bound and one just above land in adjacent buckets.
	h.Observe(8e-6)
	h.Observe(8.1e-6)
	if h.counts[3].Load() != 1 || h.counts[4].Load() != 1 {
		t.Errorf("boundary observations landed in buckets %d/%d", h.counts[3].Load(), h.counts[4].Load())
	}
}

// point returns the snapshot's point registered under name and the given
// key/value label pairs.
func point(s Snapshot, name string, kv ...string) (MetricPoint, bool) {
	want := string(appendKey(nil, name, kv))
	for _, p := range s.Metrics {
		if key(p.Name, p.Labels) == want {
			return p, true
		}
	}
	return MetricPoint{}, false
}

func TestSnapshotIsolation(t *testing.T) {
	r := New("iso")
	c := r.Counter("events", "kind", "a")
	h := r.Histogram("sizes_bytes", ScaleBytes)
	c.Add(5)
	h.Observe(100)
	snap := r.Snapshot()

	// Mutate after the snapshot: the frozen copy must not move.
	c.Add(100)
	h.Observe(1 << 20)
	r.Counter("events", "kind", "b").Inc()

	p, ok := point(snap, "events", "kind", "a")
	if !ok || p.Value != 5 {
		t.Fatalf("snapshot counter = %+v, want value 5", p)
	}
	if _, ok := point(snap, "events", "kind", "b"); ok {
		t.Fatalf("snapshot grew a metric created after Snapshot()")
	}
	hp, ok := point(snap, "sizes_bytes")
	if !ok || hp.Count != 1 || hp.Sum != 100 {
		t.Fatalf("snapshot histogram = %+v, want count 1 sum 100", hp)
	}
	// Mutating the snapshot's labels must not leak back into the registry.
	p.Labels["kind"] = "mutated"
	if p2, _ := point(r.Snapshot(), "events", "kind", "a"); p2.Value != 105 {
		t.Fatalf("registry counter after snapshot mutation = %+v", p2)
	}
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	r := New("order")
	r.Counter("zzz").Inc()
	r.Counter("aaa").Inc()
	r.Gauge("mmm").Set(1)
	s := r.Snapshot()
	var names []string
	for _, p := range s.Metrics {
		names = append(names, p.Name)
	}
	if strings.Join(names, ",") != "aaa,mmm,zzz" {
		t.Fatalf("snapshot order = %v", names)
	}
}

// The shard-map key is also the snapshot's sort key, so its bytes must not
// change: labels in key order, a repeated key keeping its last value, an odd
// trailing key with an empty value.
func TestKeyFormat(t *testing.T) {
	for _, c := range []struct {
		kv   []string
		want string
	}{
		{nil, "m"},
		{[]string{"op", "poll"}, "m\xffop\x01poll"},
		{[]string{"b", "2", "a", "1", "b", "3", "c"}, "m\xffa\x011\xffb\x013\xffc\x01"},
	} {
		if got := string(appendKey(nil, "m", c.kv)); got != c.want {
			t.Errorf("appendKey(m, %q) = %q, want %q", c.kv, got, c.want)
		}
		if got := key("m", labelMap(c.kv)); got != c.want {
			t.Errorf("key(m, labelMap(%q)) = %q, want %q", c.kv, got, c.want)
		}
	}
	r := New("k")
	r.Counter("m", "b", "2", "a", "1").Inc()
	if r.Counter("m", "a", "1", "b", "2").Value() != 1 {
		t.Fatal("label order changed the instrument")
	}
}

// TestLabelledHitAllocatesNothing gates the lookup of an instrument that
// already exists, which per-frame and per-consign call sites pay.
func TestLabelledHitAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include the race detector's own")
	}
	r := New("hit")
	hits := []func(){
		func() { r.Counter("c").Inc(); r.Gauge("g").Inc() },
		func() { r.Counter("c", "op", "poll").Inc(); r.Gauge("g", "op", "poll").Inc() },
		func() {
			r.Counter("c", "op", "poll", "vsite", "T3E").Inc()
			r.Gauge("g", "vsite", "T3E", "op", "poll").Inc()
		},
	}
	for pairs, hit := range hits {
		hit()
		if n := testing.AllocsPerRun(100, hit); n != 0 {
			t.Errorf("a hit with %d label pairs allocates %.0f times, want 0", pairs, n)
		}
	}
}

func TestKindClashPanics(t *testing.T) {
	r := New("clash")
	r.Counter("x", "op", "poll")
	defer func() {
		const want = `telemetry: metric "x" is a counter, requested as gauge`
		if got := recover(); got != want {
			t.Fatalf("recovered %v, want %q", got, want)
		}
	}()
	r.Gauge("x", "op", "poll")
}

func TestMergeAcrossOrigins(t *testing.T) {
	a, b := New("r0"), New("r1")
	a.Counter("consign_total").Add(3)
	b.Counter("consign_total").Add(4)
	a.Gauge("inflight").Set(2)
	b.Gauge("inflight").Set(1)
	a.Histogram("ack_seconds", ScaleSeconds).Observe(0.01)
	b.Histogram("ack_seconds", ScaleSeconds).Observe(0.02)

	m := Merge("pool", a.Snapshot(), b.Snapshot())
	if m.Origin != "pool" {
		t.Fatalf("origin = %q", m.Origin)
	}
	if got := m.Total("consign_total"); got != 7 {
		t.Fatalf("merged counter = %g, want 7", got)
	}
	if got := m.Total("inflight"); got != 3 {
		t.Fatalf("merged gauge = %g, want 3", got)
	}
	if got := m.HistCount("ack_seconds"); got != 2 {
		t.Fatalf("merged histogram count = %d, want 2", got)
	}
}

func TestTraceSpansAndRingBound(t *testing.T) {
	r := New("gw")
	base := time.Date(1999, 8, 3, 9, 0, 0, 0, time.UTC)
	fake := base
	r.SetNow(func() time.Time { return fake })

	ctx := WithTrace(context.Background(), "abc123")
	if TraceFrom(ctx) != "abc123" {
		t.Fatalf("TraceFrom round trip failed")
	}
	if TraceFrom(context.Background()) != "" {
		t.Fatalf("TraceFrom on empty ctx should be empty")
	}

	sp := r.StartSpan(ctx, "gateway.dispatch").Note("MsgConsign")
	time.Sleep(2 * time.Millisecond) // wall-clock duration under frozen sim clock
	sp.End()
	sp.End() // idempotent

	// Untraced ctx records nothing and End on nil is safe.
	r.StartSpan(context.Background(), "noop").End()

	spans := r.Snapshot().Trace("abc123")
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	got := spans[0]
	if got.Name != "gateway.dispatch" || got.Origin != "gw" || got.Note != "MsgConsign" {
		t.Fatalf("span = %+v", got)
	}
	if !got.Start.Equal(base) {
		t.Fatalf("span start = %v, want registry clock %v", got.Start, base)
	}
	if got.Dur <= 0 {
		t.Fatalf("span duration = %v, want > 0 despite frozen clock", got.Dur)
	}

	// Ring bound: overflow keeps only the newest DefaultSpanCap spans.
	for i := 0; i < DefaultSpanCap+10; i++ {
		r.StartSpan(ctx, "hop").End()
	}
	all := r.Spans()
	if len(all) != DefaultSpanCap {
		t.Fatalf("ring holds %d spans, want %d", len(all), DefaultSpanCap)
	}
	for i := 1; i < len(all); i++ {
		if all[i].Seq <= all[i-1].Seq {
			t.Fatalf("ring order broken at %d: %d then %d", i, all[i-1].Seq, all[i].Seq)
		}
	}
}

func TestSortSpansOrdersAcrossRegistries(t *testing.T) {
	t0 := time.Date(1999, 8, 3, 9, 0, 0, 0, time.UTC)
	spans := []Span{
		{Trace: "t", Origin: "njs/r1", Start: t0.Add(2 * time.Second), Seq: 1},
		{Trace: "t", Origin: "njs/r0", Start: t0, Seq: 2},
		{Trace: "t", Origin: "gateway", Start: t0, Seq: 1},
	}
	SortSpans(spans)
	if spans[0].Origin != "gateway" || spans[1].Origin != "njs/r0" || spans[2].Origin != "njs/r1" {
		t.Fatalf("sorted order = %v, %v, %v", spans[0].Origin, spans[1].Origin, spans[2].Origin)
	}
}

func TestFlushPlaintext(t *testing.T) {
	r := New("gw")
	r.Counter("pki_verify_total").Add(7)
	r.Histogram("verify_seconds", ScaleSeconds).Observe(0.001)
	var b strings.Builder
	if err := r.Snapshot().Flush(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"# origin gw", "pki_verify_total 7", "verify_seconds_count 1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump missing %q:\n%s", want, out)
		}
	}
}

// TestSnapshotJSONRoundTrip covers the MsgMetrics wire path: a snapshot with
// histograms must survive encoding/json even though the overflow bucket's
// upper bound is +Inf, which a naive float field would reject.
func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := New("njs")
	r.Counter("consign_total", "vsite", "T3E").Add(3)
	r.Histogram("consign_ack_seconds", ScaleSeconds).Observe(0.25)
	in := r.Snapshot()
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var out Snapshot
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if got := out.Total("consign_total"); got != 3 {
		t.Fatalf("consign_total = %v after round trip, want 3", got)
	}
	if got := out.HistCount("consign_ack_seconds"); got != 1 {
		t.Fatalf("consign_ack_seconds count = %d after round trip, want 1", got)
	}
	p, ok := point(out, "consign_ack_seconds")
	if !ok || len(p.Buckets) == 0 {
		t.Fatal("histogram buckets lost in round trip")
	}
	if last := p.Buckets[len(p.Buckets)-1].LE; !math.IsInf(last, 1) {
		t.Fatalf("overflow bucket bound = %v after round trip, want +Inf", last)
	}
}

func TestDebugServerServesMetricsAndPprof(t *testing.T) {
	r := New("gw")
	r.Counter("pki_verify_total").Inc()
	ds, err := ServeDebug("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := ds.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	for path, want := range map[string]string{
		"/metrics":            "pki_verify_total 1",
		"/debug/pprof/symbol": "",
	} {
		resp, err := http.Get("http://" + ds.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		if err := resp.Body.Close(); err != nil {
			t.Fatalf("close body: %v", err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		if want != "" && !strings.Contains(string(body), want) {
			t.Fatalf("GET %s missing %q:\n%s", path, want, body)
		}
	}
}
