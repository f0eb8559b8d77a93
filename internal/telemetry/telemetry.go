// Package telemetry is the stdlib-only observability substrate for the
// UNICORE reproduction: a lock-sharded metrics registry (counters, gauges,
// log-scale histograms) plus lightweight distributed tracing (a per-request
// trace ID carried in the protocol envelope header, with per-hop spans
// recorded in a bounded ring).
//
// Every tier owns one Registry whose Origin names the component
// ("gateway", "pool/CLUSTER", "njs/FZJ/CLUSTER.r0", ...). Hot-path call sites
// cache *Counter/*Gauge/*Histogram handles once and update them with a
// single atomic op; the sharded map is only consulted on first lookup and
// during Snapshot. Snapshots are deep copies — safe to serialise and merge
// across replicas — and power the v2 MsgMetrics scrape protocol, the
// -debug-addr plaintext dump, and the testbed assertions.
//
// The registry clock is pluggable (SetNow) so virtual-clock testbeds stamp
// spans and snapshots on simulation time, while durations are always
// measured on the wall clock so per-hop timings stay nonzero even when the
// simulated clock does not advance during a synchronous call.
package telemetry

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Kind discriminates the metric families a Registry can hold.
type Kind string

// Metric kinds as they appear in snapshots and the plaintext dump.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// nShards fixes the registry shard count; small powers of two keep the
// FNV-modulo cheap while spreading unrelated metric names across locks.
const nShards = 8

// Registry is a lock-sharded collection of named metrics plus a bounded
// span ring for distributed traces. The zero value is not usable; call New.
type Registry struct {
	origin string
	now    atomic.Value // func() time.Time
	shards [nShards]shard
	ring   spanRing
}

// shard is one lock stripe of the metric map.
type shard struct {
	mu      sync.RWMutex
	metrics map[string]*metricEntry
}

// metricEntry binds a parsed identity to the live instrument so Snapshot
// does not have to re-split keys.
type metricEntry struct {
	name   string
	labels map[string]string
	inst   instrument
}

// instrument is the common surface of Counter, Gauge and Histogram.
type instrument interface {
	kind() Kind
	point(name string, labels map[string]string) MetricPoint
}

// New returns an empty Registry whose snapshots carry the given origin
// label. The span ring holds the most recent DefaultSpanCap spans.
func New(origin string) *Registry {
	r := &Registry{origin: origin}
	r.now.Store(time.Now)
	r.ring.buf = make([]Span, DefaultSpanCap)
	for i := range r.shards {
		r.shards[i].metrics = make(map[string]*metricEntry)
	}
	return r
}

// SetNow replaces the clock used to stamp spans and snapshots. Virtual
// clock testbeds point this at sim.Clock.Now; durations are unaffected
// (they are always wall-measured).
func (r *Registry) SetNow(now func() time.Time) { r.now.Store(now) }

// Now returns the registry clock's current time.
func (r *Registry) Now() time.Time { return r.now.Load().(func() time.Time)() }

// appendKey appends the canonical shard-map key of name and the key/value
// label pairs kv to b: the name, then per label in key order 0xff, the key,
// 0x01 and the value. A repeated label key keeps its last value and an odd
// trailing key gets an empty one, as in labelMap. Up to eight labels are
// ordered on the stack.
func appendKey(b []byte, name string, kv []string) []byte {
	var idx [8]int
	order := idx[:0] // kv index of each kept label key, sorted by key
	for i := 0; i < len(kv); i += 2 {
		j := len(order)
		for j > 0 && kv[order[j-1]] > kv[i] {
			j--
		}
		if j > 0 && kv[order[j-1]] == kv[i] {
			order[j-1] = i
			continue
		}
		order = append(order, 0)
		copy(order[j+1:], order[j:])
		order[j] = i
	}
	b = append(b, name...)
	for _, i := range order {
		b = append(b, 0xff)
		b = append(b, kv[i]...)
		b = append(b, 0x01)
		if i+1 < len(kv) {
			b = append(b, kv[i+1]...)
		}
	}
	return b
}

// key returns the canonical key of a name and a label map, as lookup
// builds it from pairs.
func key(name string, labels map[string]string) string {
	kv := make([]string, 0, 2*len(labels))
	for k, v := range labels {
		kv = append(kv, k, v)
	}
	return string(appendKey(nil, name, kv))
}

// labelMap folds variadic key/value pairs into a map; an odd trailing key
// gets an empty value rather than panicking on a hot path.
func labelMap(kv []string) map[string]string {
	if len(kv) == 0 {
		return nil
	}
	m := make(map[string]string, (len(kv)+1)/2)
	for i := 0; i < len(kv); i += 2 {
		if i+1 < len(kv) {
			m[kv[i]] = kv[i+1]
		} else {
			m[kv[i]] = ""
		}
	}
	return m
}

// lookup returns the instrument registered under name and the label pairs
// kv, creating it with mk on first use. A hit builds the key in a stack
// buffer and allocates nothing; the label map and the key string are made
// only on a miss. Metric names are static, so asking for a registered name
// as another kind is a bug and panics.
func (r *Registry) lookup(name string, kv []string, want Kind, mk func() instrument) instrument {
	var buf [128]byte
	k := appendKey(buf[:0], name, kv)
	h := uint32(2166136261) // FNV-1a
	for _, c := range k {
		h = (h ^ uint32(c)) * 16777619
	}
	s := &r.shards[h%nShards]

	s.mu.RLock()
	e, ok := s.metrics[string(k)]
	s.mu.RUnlock()
	if !ok {
		s.mu.Lock()
		if e, ok = s.metrics[string(k)]; !ok {
			e = &metricEntry{name: name, labels: labelMap(kv), inst: mk()}
			s.metrics[string(k)] = e
		}
		s.mu.Unlock()
	}
	if got := e.inst.kind(); got != want {
		panic(fmt.Sprintf("telemetry: metric %q is a %s, requested as %s", name, got, want))
	}
	return e.inst
}

// Counter returns (creating on first use) the monotonically increasing
// counter registered under name and optional key/value label pairs.
// Callers on hot paths should cache the returned handle.
func (r *Registry) Counter(name string, kv ...string) *Counter {
	return r.lookup(name, kv, KindCounter, func() instrument { return &Counter{} }).(*Counter)
}

// Gauge returns (creating on first use) the settable gauge registered
// under name and optional key/value label pairs.
func (r *Registry) Gauge(name string, kv ...string) *Gauge {
	return r.lookup(name, kv, KindGauge, func() instrument { return &Gauge{} }).(*Gauge)
}

// Histogram returns (creating on first use) the log-scale histogram
// registered under name with the given bucket scale and optional key/value
// label pairs.
func (r *Registry) Histogram(name string, scale Scale, kv ...string) *Histogram {
	return r.lookup(name, kv, KindHistogram, func() instrument { return newHistogram(scale) }).(*Histogram)
}

// Counter counts events; all operations are a single atomic add.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) kind() Kind { return KindCounter }

func (c *Counter) point(name string, labels map[string]string) MetricPoint {
	return MetricPoint{Name: name, Labels: copyLabels(labels), Kind: KindCounter, Value: float64(c.v.Load())}
}

// Gauge holds an instantaneous signed level (queue depth, in-flight count).
type Gauge struct{ v atomic.Int64 }

// Set replaces the level.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) kind() Kind { return KindGauge }

func (g *Gauge) point(name string, labels map[string]string) MetricPoint {
	return MetricPoint{Name: name, Labels: copyLabels(labels), Kind: KindGauge, Value: float64(g.v.Load())}
}

// copyLabels deep-copies a label map so snapshots cannot alias live state.
func copyLabels(m map[string]string) map[string]string {
	if len(m) == 0 {
		return nil
	}
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// snapshotEntries collects a deep copy of every registered metric, sorted
// by name then label key for deterministic output.
func (r *Registry) snapshotEntries() []MetricPoint {
	var pts []MetricPoint
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.RLock()
		for k, e := range s.metrics {
			p := e.inst.point(e.name, e.labels)
			p.sortKey = k
			pts = append(pts, p)
		}
		s.mu.RUnlock()
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].sortKey < pts[j].sortKey })
	for i := range pts {
		pts[i].sortKey = ""
	}
	return pts
}

// Snapshot returns a deep, self-consistent-enough copy of every metric and
// the current span ring. Counters sampled mid-update may be one event
// apart from each other, but no value in the snapshot ever changes after
// Snapshot returns.
func (r *Registry) Snapshot() Snapshot {
	return Snapshot{
		Origin:  r.origin,
		Taken:   r.Now(),
		Metrics: r.snapshotEntries(),
		Spans:   r.Spans(),
	}
}

// String identifies the registry in logs.
func (r *Registry) String() string { return fmt.Sprintf("telemetry.Registry(%s)", r.origin) }
