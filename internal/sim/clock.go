// Package sim provides the time substrate for the UNICORE reproduction.
//
// Every component that needs time (the codine batch system, the NJS
// scheduler, accounting, ...) takes a Clock. Production binaries pass a
// RealClock; tests and benchmarks pass a VirtualClock, which is a
// deterministic discrete-event engine: timers fire only when the test
// advances virtual time, so a six-hour batch workload runs in microseconds
// and always produces the same trace.
package sim

import (
	"container/heap"
	"fmt"
	"sync"
	"time"
)

// Clock is the minimal read-only time source.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
}

// Scheduler is a Clock that can also schedule callbacks. Both RealClock and
// VirtualClock implement it.
type Scheduler interface {
	Clock
	// AfterFunc arranges for f to run once d has elapsed on this clock and
	// returns a handle that can cancel the pending call.
	AfterFunc(d time.Duration, f func()) Timer
}

// Timer is a handle to a pending AfterFunc callback.
type Timer interface {
	// Stop cancels the timer. It reports whether the call was stopped before
	// the callback ran.
	Stop() bool
}

// RealClock delegates to the wall clock and the runtime timer wheel.
type RealClock struct{}

// Now returns time.Now().
func (RealClock) Now() time.Time { return time.Now() }

// AfterFunc wraps time.AfterFunc.
func (RealClock) AfterFunc(d time.Duration, f func()) Timer {
	return realTimer{time.AfterFunc(d, f)}
}

type realTimer struct{ t *time.Timer }

// Stop cancels the timer; it reports whether the call stopped it.
func (r realTimer) Stop() bool { return r.t.Stop() }

// Epoch is the default start time of a VirtualClock: an arbitrary fixed
// instant (the HPDC-8 opening day) so traces are stable across runs.
var Epoch = time.Date(1999, time.August, 3, 9, 0, 0, 0, time.UTC)

// VirtualClock is a deterministic discrete-event clock. Callbacks scheduled
// with AfterFunc fire only inside Advance or RunUntilIdle, on the
// goroutine that called them. Callbacks may schedule further callbacks.
//
// The zero value is not usable; call NewVirtualClock.
type VirtualClock struct {
	mu     sync.Mutex
	now    time.Time
	seq    int64
	events eventHeap
	firing bool
}

// NewVirtualClock returns a virtual clock positioned at Epoch.
func NewVirtualClock() *VirtualClock { return NewVirtualClockAt(Epoch) }

// NewVirtualClockAt returns a virtual clock positioned at start.
func NewVirtualClockAt(start time.Time) *VirtualClock {
	return &VirtualClock{now: start}
}

// event is one scheduled callback; it is also the Timer AfterFunc returns.
type event struct {
	c    *VirtualClock
	when time.Time
	seq  int64 // tie-break: FIFO among events due at the same instant
	fn   func()
	dead bool
}

// eventHeap orders pending events by due time, then by scheduling order; it
// implements container/heap's interface.
type eventHeap []*event

// Len is the number of events in the heap.
func (h eventHeap) Len() int { return len(h) }

// Less orders by due time, FIFO among events due at the same instant.
func (h eventHeap) Less(i, j int) bool {
	if !h[i].when.Equal(h[j].when) {
		return h[i].when.Before(h[j].when)
	}
	return h[i].seq < h[j].seq
}

// Swap exchanges two events.
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

// Push appends an event (container/heap restores the order).
func (h *eventHeap) Push(x any) { *h = append(*h, x.(*event)) }

// Pop removes the last event (container/heap moved the earliest there).
func (h *eventHeap) Pop() (popped any) {
	old := *h
	n := len(old)
	popped = old[n-1]
	*h = old[:n-1]
	return
}

// Now returns the current virtual time.
func (c *VirtualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Stop cancels the event; it reports whether the event had not fired yet.
func (ev *event) Stop() bool {
	ev.c.mu.Lock()
	defer ev.c.mu.Unlock()
	if ev.dead {
		return false
	}
	ev.dead = true
	return true
}

// AfterFunc schedules f to run when d has elapsed on the virtual clock.
// A non-positive d schedules f for the current instant; it still only fires
// from Advance/Step/RunUntilIdle.
func (c *VirtualClock) AfterFunc(d time.Duration, f func()) Timer {
	if f == nil {
		panic("sim: AfterFunc with nil func")
	}
	if d < 0 {
		d = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ev := &event{c: c, when: c.now.Add(d), seq: c.seq, fn: f}
	c.seq++
	heap.Push(&c.events, ev)
	return ev
}

// Advance moves virtual time forward by d, firing every event that falls due
// in order, and returns the number fired. Events scheduled by callbacks for
// instants inside the window also fire.
func (c *VirtualClock) Advance(d time.Duration) int {
	if d < 0 {
		panic(fmt.Sprintf("sim: Advance by negative duration %v", d))
	}
	c.mu.Lock()
	deadline := c.now.Add(d)
	fired := c.fireUntilLocked(deadline)
	c.now = deadline
	c.mu.Unlock()
	return fired
}

// RunUntilIdle fires events (stepping time forward as needed) until no events
// remain or maxEvents have fired. It returns the number of events fired.
// maxEvents <= 0 means no limit.
func (c *VirtualClock) RunUntilIdle(maxEvents int) int {
	fired := 0
	for {
		if maxEvents > 0 && fired >= maxEvents {
			return fired
		}
		c.mu.Lock()
		next, ok := c.nextLiveLocked()
		if !ok {
			c.mu.Unlock()
			return fired
		}
		n := c.fireUntilLocked(next)
		if c.now.Before(next) {
			c.now = next
		}
		c.mu.Unlock()
		fired += n
		if n == 0 {
			return fired
		}
	}
}

func (c *VirtualClock) nextLiveLocked() (time.Time, bool) {
	for c.events.Len() > 0 {
		top := c.events[0]
		if top.dead {
			heap.Pop(&c.events)
			continue
		}
		return top.when, true
	}
	return time.Time{}, false
}

// fireUntilLocked fires all live events with when <= deadline, advancing
// c.now to each event time as it goes. Callbacks run with the lock released
// so they can schedule new events.
func (c *VirtualClock) fireUntilLocked(deadline time.Time) int {
	if c.firing {
		panic("sim: reentrant clock advancement (Advance/Step called from a timer callback)")
	}
	c.firing = true
	defer func() { c.firing = false }()
	fired := 0
	for c.events.Len() > 0 {
		top := c.events[0]
		if top.dead {
			heap.Pop(&c.events)
			continue
		}
		if top.when.After(deadline) {
			break
		}
		heap.Pop(&c.events)
		if c.now.Before(top.when) {
			c.now = top.when
		}
		fn := top.fn
		c.mu.Unlock()
		fn()
		c.mu.Lock()
		fired++
	}
	return fired
}
