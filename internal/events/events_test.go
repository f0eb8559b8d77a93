package events

import (
	"fmt"
	"sync"
	"testing"

	"unicore/internal/ajo"
	"unicore/internal/core"
)

const (
	alice = core.DN("CN=Alice")
	bob   = core.DN("CN=Bob")
)

func appendN(l *Log, owner core.DN, job core.JobID, n int) {
	for i := 0; i < n; i++ {
		typ := TypeStatus
		if i == 0 {
			typ = TypeAdmitted
		}
		l.Append(owner, Event{Job: job, Type: typ, Status: ajo.StatusRunning})
	}
}

func TestAppendAssignsMonotonicCursors(t *testing.T) {
	l := NewLog("r1", 0)
	appendN(l, alice, "J1", 3)
	appendN(l, alice, "J2", 2)

	evs, gap := l.JobEvents("J1", 0, 0)
	if gap {
		t.Fatal("unexpected gap on a fresh log")
	}
	if len(evs) != 3 {
		t.Fatalf("J1 events = %d, want 3", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has Seq %d, want %d", i, ev.Seq, i+1)
		}
		if ev.Origin != "r1" {
			t.Fatalf("event origin = %q, want r1", ev.Origin)
		}
	}
	// Per-job sequences are independent; globals are log-wide.
	evs2, _ := l.JobEvents("J2", 0, 0)
	if evs2[0].Seq != 1 || evs2[0].Global != 4 {
		t.Fatalf("J2 first event Seq/Global = %d/%d, want 1/4", evs2[0].Seq, evs2[0].Global)
	}
}

func TestCursorResumesWithoutGapsOrDuplicates(t *testing.T) {
	l := NewLog("", 0)
	appendN(l, alice, "J1", 5)
	first, _ := l.JobEvents("J1", 0, 2)
	if len(first) != 2 {
		t.Fatalf("batch = %d events, want 2 (max)", len(first))
	}
	rest, _ := l.JobEvents("J1", first[len(first)-1].Seq, 0)
	if len(rest) != 3 {
		t.Fatalf("resume batch = %d events, want 3", len(rest))
	}
	if rest[0].Seq != 3 {
		t.Fatalf("resume starts at Seq %d, want 3", rest[0].Seq)
	}
	// Re-fetching at the same cursor duplicates nothing new and loses nothing.
	again, _ := l.JobEvents("J1", 2, 0)
	if len(again) != 3 || again[0].Seq != 3 {
		t.Fatalf("idempotent re-fetch returned %d events starting at %d", len(again), again[0].Seq)
	}
	if tail, _ := l.JobEvents("J1", 5, 0); len(tail) != 0 {
		t.Fatalf("fetch past the end returned %d events", len(tail))
	}
}

func TestBoundedEvictionReportsGap(t *testing.T) {
	l := NewLog("", 4)
	appendN(l, alice, "J1", 10)
	evs, gap := l.JobEvents("J1", 0, 0)
	if !gap {
		t.Fatal("resume below the retained window did not flag a gap")
	}
	if len(evs) != 4 || evs[0].Seq != 7 {
		t.Fatalf("retained window = %d events from Seq %d, want 4 from 7", len(evs), evs[0].Seq)
	}
	// A cursor inside the window is gap-free.
	if _, gap := l.JobEvents("J1", 7, 0); gap {
		t.Fatal("in-window cursor flagged a gap")
	}
}

func TestUserStreamMergesJobsByGlobal(t *testing.T) {
	l := NewLog("", 0)
	l.Append(alice, Event{Job: "J1", Type: TypeAdmitted})
	l.Append(bob, Event{Job: "J9", Type: TypeAdmitted})
	l.Append(alice, Event{Job: "J2", Type: TypeAdmitted})
	l.Append(alice, Event{Job: "J1", Type: TypeJobDone, Terminal: true})

	evs, next, gap := l.UserEvents(alice, 0, 0)
	if gap {
		t.Fatal("unexpected user-stream gap")
	}
	if len(evs) != 3 {
		t.Fatalf("alice sees %d events, want 3 (bob's are filtered)", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Global <= evs[i-1].Global {
			t.Fatal("user stream not ordered by Global")
		}
	}
	if next != evs[2].Global {
		t.Fatalf("next cursor = %d, want %d", next, evs[2].Global)
	}
	if more, _, _ := l.UserEvents(alice, next, 0); len(more) != 0 {
		t.Fatalf("resume at next returned %d events, want 0", len(more))
	}
}

func TestRestoreIsIdempotentAndKeepsNumbering(t *testing.T) {
	l := NewLog("r1", 0)
	appendN(l, alice, "J1", 4)
	snap, _ := l.JobEvents("J1", 0, 0)

	recovered := NewLog("r1", 0)
	// Snapshot + tail overlap: replay everything twice. The journal keeps no
	// origin; Restore stamps the log's own.
	for range 2 {
		for _, ev := range snap {
			ev.Origin = ""
			recovered.Restore(alice, ev)
		}
	}
	evs, gap := recovered.JobEvents("J1", 0, 0)
	if gap || len(evs) != 4 {
		t.Fatalf("recovered log: %d events (gap=%v), want 4", len(evs), gap)
	}
	for i, ev := range evs {
		if ev != snap[i] || ev.Seq != uint64(i+1) {
			t.Fatalf("recovered event %d renumbered: %+v vs %+v", i, ev, snap[i])
		}
	}
	// Appends after recovery continue the original numbering.
	ev := recovered.Append(alice, Event{Job: "J1", Type: TypeJobDone, Terminal: true})
	if ev.Seq != 5 {
		t.Fatalf("post-recovery append Seq = %d, want 5", ev.Seq)
	}
}

func TestNotifyWakesWaiters(t *testing.T) {
	l := NewLog("", 0)
	ch := l.Notify()
	select {
	case <-ch:
		t.Fatal("notify channel closed before any append")
	default:
	}
	l.Append(alice, Event{Job: "J1", Type: TypeAdmitted})
	select {
	case <-ch:
	default:
		t.Fatal("append did not close the notify channel")
	}
	// The channel taken after the append waits for the next one.
	select {
	case <-l.Notify():
		t.Fatal("fresh notify channel already closed")
	default:
	}
}

func TestConcurrentAppendsRace(t *testing.T) {
	l := NewLog("", 64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			job := core.JobID(fmt.Sprintf("J%d", g))
			for i := 0; i < 200; i++ {
				l.Append(alice, Event{Job: job, Type: TypeStatus})
				l.JobEvents(job, 0, 16)
				l.UserEvents(alice, 0, 16)
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < 8; g++ {
		job := core.JobID(fmt.Sprintf("J%d", g))
		evs, _ := l.JobEvents(job, 200-64, 0)
		if len(evs) != 64 {
			t.Fatalf("job %s retained %d events, want 64", job, len(evs))
		}
	}
}
