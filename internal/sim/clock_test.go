package sim

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestVirtualClockStartsAtEpoch(t *testing.T) {
	c := NewVirtualClock()
	if !c.Now().Equal(Epoch) {
		t.Fatalf("Now() = %v, want %v", c.Now(), Epoch)
	}
}

func TestAdvanceMovesTime(t *testing.T) {
	c := NewVirtualClock()
	c.Advance(90 * time.Second)
	want := Epoch.Add(90 * time.Second)
	if !c.Now().Equal(want) {
		t.Fatalf("Now() = %v, want %v", c.Now(), want)
	}
}

func TestAfterFuncFiresAtDueTime(t *testing.T) {
	c := NewVirtualClock()
	var at time.Time
	c.AfterFunc(10*time.Minute, func() { at = c.Now() })
	if n := c.Advance(9 * time.Minute); n != 0 {
		t.Fatalf("fired %d events early", n)
	}
	if n := c.Advance(2 * time.Minute); n != 1 {
		t.Fatalf("Advance fired %d events, want 1", n)
	}
	want := Epoch.Add(10 * time.Minute)
	if !at.Equal(want) {
		t.Fatalf("callback observed %v, want %v", at, want)
	}
}

func TestAfterFuncOrderingFIFOAtSameInstant(t *testing.T) {
	c := NewVirtualClock()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		c.AfterFunc(time.Second, func() { order = append(order, i) })
	}
	c.Advance(time.Second)
	for i, got := range order {
		if got != i {
			t.Fatalf("order = %v, want FIFO", order)
		}
	}
}

func TestTimerStop(t *testing.T) {
	c := NewVirtualClock()
	fired := false
	tm := c.AfterFunc(time.Second, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("first Stop reported false")
	}
	if tm.Stop() {
		t.Fatal("second Stop reported true")
	}
	c.Advance(2 * time.Second)
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestCallbackMaySchedule(t *testing.T) {
	c := NewVirtualClock()
	var hits []time.Duration
	var rec func()
	n := 0
	rec = func() {
		hits = append(hits, c.Now().Sub(Epoch))
		n++
		if n < 4 {
			c.AfterFunc(time.Minute, rec)
		}
	}
	c.AfterFunc(time.Minute, rec)
	c.Advance(10 * time.Minute)
	if len(hits) != 4 {
		t.Fatalf("got %d hits, want 4 (chain rescheduling)", len(hits))
	}
	for i, h := range hits {
		want := time.Duration(i+1) * time.Minute
		if h != want {
			t.Fatalf("hit %d at %v, want %v", i, h, want)
		}
	}
}

func TestRunUntilIdle(t *testing.T) {
	c := NewVirtualClock()
	total := 0
	for i := 1; i <= 10; i++ {
		c.AfterFunc(time.Duration(i)*time.Second, func() { total++ })
	}
	fired := c.RunUntilIdle(0)
	if fired != 10 || total != 10 {
		t.Fatalf("fired=%d total=%d, want 10/10", fired, total)
	}
	if n := c.RunUntilIdle(0); n != 0 {
		t.Fatalf("%d events were left pending", n)
	}
}

func TestRunUntilIdleRespectsLimit(t *testing.T) {
	c := NewVirtualClock()
	for i := 1; i <= 10; i++ {
		c.AfterFunc(time.Duration(i)*time.Second, func() {})
	}
	if fired := c.RunUntilIdle(3); fired < 3 {
		t.Fatalf("fired %d, want >= 3", fired)
	}
}

func TestNegativeDelayFiresImmediatelyOnAdvance(t *testing.T) {
	c := NewVirtualClock()
	fired := false
	c.AfterFunc(-5*time.Second, func() { fired = true })
	c.Advance(0)
	if !fired {
		t.Fatal("negative-delay event did not fire on Advance(0)")
	}
}

func TestRealClockAfterFunc(t *testing.T) {
	var wg sync.WaitGroup
	wg.Add(1)
	RealClock{}.AfterFunc(time.Millisecond, wg.Done)
	wg.Wait() // test deadlocks (and times out) on failure
}

// Property: after Advance(sum of parts) every event scheduled within the
// window has fired, regardless of how the window is split.
func TestQuickAdvanceSplitEquivalence(t *testing.T) {
	f := func(delays []uint16, splits []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		if len(delays) > 50 {
			delays = delays[:50]
		}
		c := NewVirtualClock()
		fired := make(map[int]bool)
		var window time.Duration
		for _, s := range splits {
			window += time.Duration(s) * time.Millisecond
		}
		expect := 0
		for i, d := range delays {
			i := i
			dd := time.Duration(d) * time.Millisecond
			c.AfterFunc(dd, func() { fired[i] = true })
			if dd <= window {
				expect++
			}
		}
		for _, s := range splits {
			c.Advance(time.Duration(s) * time.Millisecond)
		}
		return len(fired) == expect
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: events fire in nondecreasing time order.
func TestQuickMonotoneFiringOrder(t *testing.T) {
	f := func(delays []uint16) bool {
		c := NewVirtualClock()
		var seen []time.Time
		for _, d := range delays {
			c.AfterFunc(time.Duration(d)*time.Millisecond, func() {
				seen = append(seen, c.Now())
			})
		}
		c.RunUntilIdle(0)
		for i := 1; i < len(seen); i++ {
			if seen[i].Before(seen[i-1]) {
				return false
			}
		}
		return len(seen) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// raceEnabled is set by race_test.go under -race, where allocation counts
// include the detector's own and mean nothing.
var raceEnabled bool

// TestAfterFuncAllocatesOnlyItsEvent: the scheduled event is its own Timer,
// so scheduling a callback on a clock whose heap has room allocates the
// event and nothing else, and the returned Timer still cancels it.
func TestAfterFuncAllocatesOnlyItsEvent(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	c := NewVirtualClock()
	fired := 0
	f := func() { fired++ }
	for i := 0; i < 256; i++ { // grow the heap; firing empties it, keeping its room
		c.AfterFunc(time.Duration(i)*time.Second, f)
	}
	c.RunUntilIdle(0)
	var tm Timer
	if n := testing.AllocsPerRun(100, func() { tm = c.AfterFunc(time.Minute, f) }); n != 1 {
		t.Errorf("AfterFunc allocates %.0f times per call, want 1", n)
	}
	if !tm.Stop() || tm.Stop() {
		t.Error("Stop of a pending timer: want true once, then false")
	}
	fired = 0
	c.RunUntilIdle(0)
	if fired != 100 {
		t.Errorf("fired %d of the 101 timers with one stopped, want 100", fired)
	}
}
