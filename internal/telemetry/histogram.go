package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Scale selects a fixed log2 bucket layout for a Histogram. Fixed layouts
// keep Observe allocation-free and make snapshots from different replicas
// mergeable bucket-by-bucket.
type Scale int

// Built-in bucket layouts.
const (
	// ScaleSeconds buckets latencies from 1µs to ~35min in powers of two.
	ScaleSeconds Scale = iota
	// ScaleBytes buckets sizes from 1B to 32GiB in powers of two.
	ScaleBytes
	// ScaleCount buckets small cardinalities from 1 to 512Ki in powers of
	// two (batch sizes, queue depths).
	ScaleCount
)

// layout describes one scale: the value of the first bucket's upper bound
// and how many finite buckets precede the +Inf overflow bucket.
type layout struct {
	base    float64
	buckets int
}

var layouts = map[Scale]layout{
	ScaleSeconds: {base: 1e-6, buckets: 32},
	ScaleBytes:   {base: 1, buckets: 36},
	ScaleCount:   {base: 1, buckets: 20},
}

// Histogram accumulates observations into fixed log2 buckets. Observe is a
// bounded number of atomic ops; Sum is kept as CAS-updated float bits.
type Histogram struct {
	scale   Scale
	base    float64
	sumBits atomic.Uint64
	counts  []atomic.Uint64 // len = layout.buckets + 1 (+Inf)
}

func newHistogram(scale Scale) *Histogram {
	l, ok := layouts[scale]
	if !ok {
		l = layouts[ScaleSeconds]
	}
	return &Histogram{scale: scale, base: l.base, counts: make([]atomic.Uint64, l.buckets+1)}
}

// bucketIndex maps a value to its bucket: bucket i covers
// (base*2^(i-1), base*2^i]; the final bucket is +Inf overflow.
func (h *Histogram) bucketIndex(v float64) int {
	if v <= h.base {
		return 0
	}
	u := uint64(math.Ceil(v / h.base))
	idx := bits.Len64(u - 1) // smallest i with u <= 2^i
	if idx >= len(h.counts)-1 {
		return len(h.counts) - 1
	}
	return idx
}

// Observe records one value in the histogram's native unit (seconds for
// ScaleSeconds, bytes for ScaleBytes). Negative values clamp to zero.
func (h *Histogram) Observe(v float64) {
	if v < 0 || math.IsNaN(v) {
		v = 0
	}
	h.counts[h.bucketIndex(v)].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a wall-clock duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// ObserveSince records the wall time elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) { h.ObserveDuration(time.Since(start)) }

// Sum returns the running total of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// upperBound returns bucket i's inclusive upper bound; the last bucket is
// +Inf.
func (h *Histogram) upperBound(i int) float64 {
	if i >= len(h.counts)-1 {
		return math.Inf(1)
	}
	return h.base * float64(uint64(1)<<uint(i))
}

func (h *Histogram) kind() Kind { return KindHistogram }

func (h *Histogram) point(name string, labels map[string]string) MetricPoint {
	bs := make([]Bucket, len(h.counts))
	var total uint64
	for i := range h.counts {
		c := h.counts[i].Load()
		total += c
		bs[i] = Bucket{LE: h.upperBound(i), Count: c}
	}
	return MetricPoint{
		Name:    name,
		Labels:  copyLabels(labels),
		Kind:    KindHistogram,
		Count:   total,
		Sum:     h.Sum(),
		Buckets: bs,
	}
}
