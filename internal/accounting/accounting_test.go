package accounting

import (
	"strings"
	"testing"
	"time"

	"unicore/internal/codine"
	"unicore/internal/core"
)

var epoch = time.Date(1999, 8, 3, 9, 0, 0, 0, time.UTC)

func rec(target core.Target, owner string, slots int, submit, start, wall time.Duration, state codine.State) Record {
	return Record{
		Target:      target,
		MFlopsPerPE: 600,
		Record: codine.Record{
			Owner:   owner,
			Slots:   slots,
			Submit:  epoch.Add(submit),
			Start:   epoch.Add(start),
			End:     epoch.Add(start + wall),
			CPUTime: wall,
			State:   state,
		},
	}
}

var (
	fzj = core.Target{Usite: "FZJ", Vsite: "T3E"}
	lrz = core.Target{Usite: "LRZ", Vsite: "VPP"}
)

func TestSummarise(t *testing.T) {
	recs := []Record{
		rec(fzj, "alice", 8, 0, time.Minute, time.Hour, codine.StateDone),
		rec(fzj, "alice", 4, 0, 2*time.Minute, 30*time.Minute, codine.StateFailed),
		rec(lrz, "bob", 1, 0, 0, 10*time.Minute, codine.StateCancelled),
	}
	s := Summarise(recs)
	if s.Jobs != 3 || s.Completed != 1 || s.Failed != 1 || s.Cancelled != 1 {
		t.Fatalf("summary = %+v", s)
	}
	wantWall := time.Hour + 30*time.Minute + 10*time.Minute
	if s.WallTime != wantWall {
		t.Fatalf("wall = %s, want %s", s.WallTime, wantWall)
	}
	wantWait := time.Minute + 2*time.Minute
	if s.QueueWait != wantWait {
		t.Fatalf("wait = %s, want %s", s.QueueWait, wantWait)
	}
	if got := s.MeanQueueWait(); got != time.Minute {
		t.Fatalf("mean wait = %s, want 1m", got)
	}
}

func TestChargeUnits(t *testing.T) {
	r := rec(fzj, "alice", 8, 0, 0, time.Hour, codine.StateDone)
	// 3600s * 8 slots * 600 MFlops / 1000 = 17280 GFlop-equivalent units.
	if got, want := r.ChargeUnits(), 3600.0*8*600/1000; got != want {
		t.Fatalf("charge = %v, want %v", got, want)
	}
	zero := Summary{}
	if zero.MeanQueueWait() != 0 {
		t.Fatal("mean wait of empty summary should be 0")
	}
}

func TestGrouping(t *testing.T) {
	recs := []Record{
		rec(fzj, "alice", 1, 0, 0, time.Hour, codine.StateDone),
		rec(fzj, "bob", 1, 0, 0, time.Hour, codine.StateDone),
		rec(lrz, "alice", 1, 0, 0, time.Hour, codine.StateDone),
	}
	byTarget := ByTarget(recs)
	if byTarget[fzj].Jobs != 2 || byTarget[lrz].Jobs != 1 {
		t.Fatalf("byTarget = %+v", byTarget)
	}
}

func TestUtilization(t *testing.T) {
	recs := []Record{
		// 64 slots for 1h on a 128-slot machine over a 2h window = 25%.
		rec(fzj, "alice", 64, 0, 0, time.Hour, codine.StateDone),
	}
	got := Utilization(recs, 128, epoch, epoch.Add(2*time.Hour))
	if got != 0.25 {
		t.Fatalf("utilization = %v, want 0.25", got)
	}
	// Records partially outside the window are clipped.
	clip := Utilization(recs, 128, epoch.Add(30*time.Minute), epoch.Add(90*time.Minute))
	if clip != 0.25 {
		t.Fatalf("clipped utilization = %v, want 0.25", clip)
	}
	if Utilization(nil, 0, epoch, epoch) != 0 {
		t.Fatal("degenerate window should be 0")
	}
}

func TestMakespan(t *testing.T) {
	recs := []Record{
		rec(fzj, "a", 1, 0, time.Minute, time.Hour, codine.StateDone),
		rec(fzj, "a", 1, 10*time.Minute, 20*time.Minute, 2*time.Hour, codine.StateDone),
	}
	// Earliest submit at +0, latest end at +20m+2h.
	if got, want := Makespan(recs), 2*time.Hour+20*time.Minute; got != want {
		t.Fatalf("makespan = %s, want %s", got, want)
	}
	if Makespan(nil) != 0 {
		t.Fatal("empty makespan should be 0")
	}
}

func TestCSV(t *testing.T) {
	r := rec(fzj, "alice", 8, 0, time.Minute, time.Hour, codine.StateDone)
	r.Name = `weather, "main" run`
	out := CSV([]Record{r})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("csv lines = %d, want 2", len(lines))
	}
	if !strings.HasPrefix(lines[0], "target,job,name") {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], `"weather, ""main"" run"`) {
		t.Fatalf("row does not escape the name: %q", lines[1])
	}
	if !strings.Contains(lines[1], "FZJ/T3E") {
		t.Fatalf("row missing target: %q", lines[1])
	}
}

func TestCSVSortedByEnd(t *testing.T) {
	early := rec(fzj, "a", 1, 0, 0, time.Minute, codine.StateDone)
	late := rec(lrz, "b", 1, 0, 0, 2*time.Hour, codine.StateDone)
	out := CSV([]Record{late, early})
	if strings.Index(out, "FZJ/T3E") > strings.Index(out, "LRZ/VPP") {
		t.Fatalf("rows not sorted by end time:\n%s", out)
	}
}
