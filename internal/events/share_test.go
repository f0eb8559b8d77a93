package events

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

	"unicore/internal/ajo"
	"unicore/internal/core"
)

// raceEnabled is set by race_test.go under -race, where allocation counts
// include the detector's own and mean nothing.
var raceEnabled bool

// TestCursorPastTheEndIsEmptyWithoutGap: a cursor at or past a job's newest
// Seq has nothing to read and has skipped nothing, whether or not the window
// has evicted — the largest cursor too, which once wrapped to 0 and read the
// whole window back as a gap.
func TestCursorPastTheEndIsEmptyWithoutGap(t *testing.T) {
	l := NewLog("", 4)
	appendN(l, alice, "J1", 3)
	appendN(l, alice, "J2", 10) // evicted down to Seq 7..10
	for _, c := range []struct {
		job   string
		after uint64
	}{{"J1", 3}, {"J1", 4}, {"J1", math.MaxUint64}, {"J2", 10}, {"J2", math.MaxUint64 - 1}, {"J2", math.MaxUint64}} {
		if evs, gap := l.JobEvents(core.JobID(c.job), c.after, 0); len(evs) != 0 || gap {
			t.Errorf("%s after %d: %d events, gap=%v; want none and no gap", c.job, c.after, len(evs), gap)
		}
	}
}

// TestSharedWindowsNeverChange holds the contract that lets JobEvents hand
// out a view of a job's window instead of a copy: a window is append-only,
// so what a reader took never changes while one goroutine keeps appending to
// the job (and evicting from it) under it. Run with -race, a write to an
// event a reader holds is reported as well. Appending to a returned window
// must leave the log's next read as it was.
func TestSharedWindowsNeverChange(t *testing.T) {
	const appends, readers, keep = 1000, 4, 32
	l := NewLog("r1", 4)
	l.Append(alice, Event{Job: "J1", Type: TypeAdmitted})
	var wg, started sync.WaitGroup
	done := make(chan struct{})
	started.Add(readers)
	for r := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			type held struct{ view, copy []Event }
			var ring [keep]held
			for i := 0; ; i++ {
				evs, _ := l.JobEvents("J1", uint64(i%3), 0)
				ring[i%keep] = held{evs, slices.Clone(evs)}
				if i%16 == 0 {
					_ = append(evs, Event{Job: "J1", Seq: math.MaxUint64, Reason: "mine"})
				}
				for _, h := range ring {
					if !slices.Equal(h.view, h.copy) {
						t.Errorf("reader %d: a window changed under its holder: took %v, now %v", r, h.copy, h.view)
						return
					}
				}
				if i == 0 {
					started.Done()
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	started.Wait()
	for range appends {
		l.Append(alice, Event{Job: "J1", Type: TypeStatus, Status: ajo.StatusRunning})
		runtime.Gosched()
	}
	close(done)
	wg.Wait()

	whole, _ := l.JobEvents("J1", 0, 0)
	before := slices.Clone(whole)
	head, _ := l.JobEvents("J1", 0, 2) // the window's first two: the log's next two events sit behind them
	_ = append(head, Event{Job: "J1", Seq: math.MaxUint64, Reason: "mine"})
	_ = append(whole, Event{Job: "J1", Seq: math.MaxUint64, Reason: "mine"})
	after, _ := l.JobEvents("J1", 0, 0)
	if !slices.Equal(before, after) || len(after) != 4 || after[3].Seq != appends+1 {
		t.Fatalf("a holder's append reached the log: read %v, then %v", before, after)
	}
}

// TestJobEventsAllocatesNothing: a job's events are served in place.
func TestJobEventsAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	l := NewLog("r1", 0)
	appendN(l, alice, "J1", 26)
	if n := testing.AllocsPerRun(100, func() {
		if evs, _ := l.JobEvents("J1", 0, 0); len(evs) != 26 {
			t.Fatalf("JobEvents: %d events, want 26", len(evs))
		}
	}); n != 0 {
		t.Errorf("JobEvents allocates %.0f times per call, want 0", n)
	}
}
