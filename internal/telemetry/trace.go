package telemetry

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sort"
	"sync"
	"time"
)

// DefaultSpanCap bounds the per-registry span ring; the oldest spans are
// overwritten once the ring is full.
const DefaultSpanCap = 1024

// Span is one recorded hop of a distributed trace: which component did
// what, when (registry clock), and for how long (wall clock). Start comes
// from the registry clock so virtual-clock testbeds order hops on
// simulation time; Dur is always wall-measured so synchronous hops under a
// frozen simulated clock still report nonzero latencies.
type Span struct {
	// Trace is the request's trace ID as carried in the envelope header.
	Trace string `json:"trace"`
	// Name identifies the hop, e.g. "gateway.dispatch" or "njs.consign".
	Name string `json:"name"`
	// Origin is the recording registry's component label.
	Origin string `json:"origin"`
	// Note carries optional hop detail (message kind, replica tag, job ID).
	Note string `json:"note,omitempty"`
	// Seq orders spans recorded by the same registry.
	Seq uint64 `json:"seq"`
	// Start is the hop start on the registry clock.
	Start time.Time `json:"start"`
	// Dur is the wall-clock duration of the hop.
	Dur time.Duration `json:"dur"`
}

// spanRing is a bounded, mutex-guarded ring of completed spans.
type spanRing struct {
	mu   sync.Mutex
	seq  uint64
	buf  []Span
	next int
	full bool
}

// traceKey is the context key carrying the trace ID.
type traceKey struct{}

// WithTrace returns a context carrying the given trace ID; an empty ID
// returns ctx unchanged.
func WithTrace(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, id)
}

// TraceFrom extracts the trace ID from ctx, or "" when the request is
// untraced (v1 peer, background work).
func TraceFrom(ctx context.Context) string {
	id, _ := ctx.Value(traceKey{}).(string)
	return id
}

// NewTraceID mints a 16-byte random trace ID in hex.
func NewTraceID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; a constant
		// fallback keeps tracing best-effort rather than fatal.
		return "trace-rand-unavailable"
	}
	return hex.EncodeToString(b[:])
}

// ActiveSpan is an in-flight hop created by StartSpan; call End (or EndNote)
// exactly once. A nil ActiveSpan (untraced request) is safe to End.
type ActiveSpan struct {
	r     *Registry
	span  Span
	wall  time.Time
	ended bool
}

// StartSpan opens a hop for the trace carried by ctx. When ctx carries no
// trace ID it returns nil — recording is skipped entirely so untraced (v1)
// traffic pays nothing beyond the context lookup.
func (r *Registry) StartSpan(ctx context.Context, name string) *ActiveSpan {
	id := TraceFrom(ctx)
	if id == "" {
		return nil
	}
	return &ActiveSpan{
		r:    r,
		span: Span{Trace: id, Name: name, Origin: r.origin, Start: r.Now()},
		wall: time.Now(),
	}
}

// Note attaches hop detail (message kind, replica tag, job ID); later
// calls overwrite. Nil-safe.
func (s *ActiveSpan) Note(note string) *ActiveSpan {
	if s != nil {
		s.span.Note = note
	}
	return s
}

// End closes the hop and records it in the registry's span ring. Nil-safe
// and idempotent.
func (s *ActiveSpan) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	s.span.Dur = time.Since(s.wall)
	s.r.record(s.span)
}

// record appends a completed span to the bounded ring.
func (r *Registry) record(sp Span) {
	ring := &r.ring
	ring.mu.Lock()
	ring.seq++
	sp.Seq = ring.seq
	ring.buf[ring.next] = sp
	ring.next++
	if ring.next == len(ring.buf) {
		ring.next = 0
		ring.full = true
	}
	ring.mu.Unlock()
}

// Spans returns a copy of the ring's contents in recording order (oldest
// first).
func (r *Registry) Spans() []Span {
	ring := &r.ring
	ring.mu.Lock()
	defer ring.mu.Unlock()
	if !ring.full && ring.next == 0 {
		return nil
	}
	var out []Span
	if ring.full {
		out = make([]Span, 0, len(ring.buf))
		out = append(out, ring.buf[ring.next:]...)
		out = append(out, ring.buf[:ring.next]...)
	} else {
		out = append(out, ring.buf[:ring.next]...)
	}
	return out
}

// SortSpans orders spans for cross-registry presentation: by start time,
// then origin, then per-registry sequence.
func SortSpans(spans []Span) {
	sort.SliceStable(spans, func(i, j int) bool {
		if !spans[i].Start.Equal(spans[j].Start) {
			return spans[i].Start.Before(spans[j].Start)
		}
		if spans[i].Origin != spans[j].Origin {
			return spans[i].Origin < spans[j].Origin
		}
		return spans[i].Seq < spans[j].Seq
	})
}
