package njs

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"unicore/internal/ajo"
	"unicore/internal/core"
	"unicore/internal/protocol"
	"unicore/internal/sim"
)

// raceEnabled is set by race_test.go under -race, where allocation counts
// include the detector's own and mean nothing.
var raceEnabled bool

var bob = core.MakeDN("Bob", "FZJ", "DE")

// bytesPerCall is the heap f allocates per call, averaged over runs.
func bytesPerCall(runs int, f func()) uint64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestListAllocatesOnlyItsReply: List visits only the caller's jobs through
// the owner index, so it allocates its reply once, and neither that count nor
// its bytes depend on how many jobs other users hold in the registry.
func TestListAllocatesOnlyItsReply(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	n, clock := newNJS(t)
	for i := range 3 {
		if _, err := n.Consign(context.Background(), alice, "", job(fmt.Sprintf("a%d", i), "T3E", []ajo.Action{script("s", "echo a\n")}, nil)); err != nil {
			t.Fatalf("Consign: %v", err)
		}
	}
	clock.RunUntilIdle(0)
	list := func() {
		if jobs, err := n.List(alice); err != nil || len(jobs) != 3 {
			t.Fatalf("List: %d jobs, %v", len(jobs), err)
		}
	}
	if a := testing.AllocsPerRun(100, list); a != 1 {
		t.Errorf("List allocates %.0f times per call, want 1", a)
	}
	alone := bytesPerCall(100, list)
	n.regMu.Lock()
	for i := range 10_000 {
		n.registerLocked(&unicoreJob{id: core.JobID(fmt.Sprintf("FZJ-B%06d", i)), owner: bob})
	}
	n.regMu.Unlock()
	if a := testing.AllocsPerRun(100, list); a != 1 {
		t.Errorf("List among 10,000 other jobs allocates %.0f times per call, want 1", a)
	}
	if crowded := bytesPerCall(100, list); crowded > alone+64 {
		t.Errorf("List allocates %d bytes per call among 10,000 of another user's jobs, %d alone", crowded, alone)
	}
}

// TestEventsAllocatesNothing: a job-scoped events read is served from the
// log's window in place.
func TestEventsAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	n, clock := newNJS(t)
	id, err := n.Consign(context.Background(), alice, "", job("e", "T3E", []ajo.Action{script("s1", "echo 1\n"), script("s2", "echo 2\n")}, nil))
	if err != nil {
		t.Fatalf("Consign: %v", err)
	}
	clock.RunUntilIdle(0)
	req := protocol.SubscribeRequest{Job: id}
	if a := testing.AllocsPerRun(100, func() {
		if rep, err := n.Events(alice, false, req); err != nil || len(rep.Events) == 0 || !rep.Events[len(rep.Events)-1].Terminal {
			t.Fatalf("Events: %+v, %v", rep, err)
		}
	}); a != 0 {
		t.Errorf("NJS.Events allocates %.0f times per call, want 0", a)
	}
}

// TestListSurvivesReplayWithoutSubJobs: the owner index is rebuilt by
// journal replay, so a recovered NJS lists the rows it listed before the
// crash, and a sub-job — admitted as a job of its own — never appears among
// them, before or after.
func TestListSurvivesReplayWithoutSubJobs(t *testing.T) {
	clock := sim.NewVirtualClock()
	dir := t.TempDir()
	n, store := newDurableNJS(t, clock, dir, 0)
	sub := &ajo.AbstractJob{
		Header:  ajo.Header{ActionID: "sub", ActionName: "sub"},
		Target:  core.Target{Usite: "FZJ", Vsite: "T3E"},
		Actions: ajo.ActionList{script("inner", "cpu 5m\necho inner\n")},
	}
	parent, err := n.Consign(context.Background(), alice, "", job("parent", "CLUSTER", []ajo.Action{sub, script("main", "echo main\n")}, nil))
	if err != nil {
		t.Fatalf("Consign: %v", err)
	}
	for i, owner := range []core.DN{alice, bob, alice} {
		clock.Advance(time.Minute)
		if _, err := n.Consign(context.Background(), owner, "", job(fmt.Sprintf("plain-%d", i), "T3E", []ajo.Action{script("s", "cpu 10m\n")}, nil)); err != nil {
			t.Fatalf("Consign: %v", err)
		}
	}
	uj, _ := n.job(parent)
	uj.mu.Lock()
	child := uj.action("sub").child
	uj.mu.Unlock()
	if child == "" {
		t.Fatal("the sub-job was not admitted")
	}
	rows := func(n *NJS, who core.DN) []protocol.JobInfo {
		jobs, err := n.List(who)
		if err != nil {
			t.Fatalf("List: %v", err)
		}
		for _, j := range jobs {
			if j.Job == child {
				t.Errorf("List shows the sub-job %s", child)
			}
		}
		return jobs
	}
	before, beforeBob := rows(n, alice), rows(n, bob)
	if len(before) != 3 || len(beforeBob) != 1 {
		t.Fatalf("before the crash: alice %d jobs, bob %d; want 3 and 1", len(before), len(beforeBob))
	}

	n, store = crashRestart(t, n, store, clock, dir, 0)
	defer store.Close()
	if after := rows(n, alice); !slices.Equal(after, before) {
		t.Errorf("alice's list after replay:\n%v\nbefore the crash:\n%v", after, before)
	}
	if after := rows(n, bob); !slices.Equal(after, beforeBob) {
		t.Errorf("bob's list after replay: %v, before the crash: %v", after, beforeBob)
	}
	clock.RunUntilIdle(0)
	if after := rows(n, alice); len(after) != 3 {
		t.Errorf("alice's list once every job finished: %v", after)
	}
}
