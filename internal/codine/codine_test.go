package codine

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"unicore/internal/machine"
	"unicore/internal/sim"
	"unicore/internal/vfs"
)

// rig bundles an RMS with its clock and file system.
type rig struct {
	clock *sim.VirtualClock
	fs    *vfs.FS
	rms   *RMS
}

func newRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	clock := sim.NewVirtualClock()
	fs := vfs.New(clock)
	if err := fs.MkdirAll("/work"); err != nil {
		t.Fatal(err)
	}
	if cfg.Machine.Name == "" {
		cfg.Machine = machine.CrayT3E(64)
	}
	if cfg.Queues == nil {
		cfg.Queues = []Queue{{Name: "batch", Slots: 64}}
	}
	rms, err := New(clock, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{clock: clock, fs: fs, rms: rms}
}

// state reads a job's state.
func (r *rig) state(id JobID) State {
	r.rms.mu.Lock()
	defer r.rms.mu.Unlock()
	return r.rms.jobs[id].state
}

// load reads the used and total slots of the queue named batch.
func (r *rig) load() (used, total int) {
	r.rms.mu.Lock()
	defer r.rms.mu.Unlock()
	q := r.rms.queues["batch"]
	return q.used, q.cfg.Slots
}

func (r *rig) spec(script string) JobSpec {
	return JobSpec{
		Name: "job", Owner: "alice", Queue: "batch", Slots: 1,
		TimeLimit: time.Hour, Script: script, WorkDir: "/work", FS: r.fs,
	}
}

func TestSubmitRunComplete(t *testing.T) {
	r := newRig(t, Config{})
	var got Result
	done := false
	spec := r.spec("echo starting\ncpu 60s\nwrite out.dat 16\necho finished")
	spec.Done = func(_ JobID, res Result) { got, done = res, true }
	id, err := r.rms.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := r.state(id); st != StateRunning {
		t.Fatalf("state after submit = %s (empty queue should dispatch at once)", st)
	}
	r.clock.RunUntilIdle(0)
	if !done {
		t.Fatal("Done callback never fired")
	}
	if got.State != StateDone || got.ExitCode != 0 {
		t.Fatalf("result = %+v", got)
	}
	if !strings.Contains(got.Stdout, "finished") {
		t.Fatalf("stdout = %q", got.Stdout)
	}
	if got.CPUTime != 60*time.Second {
		t.Fatalf("CPUTime = %v", got.CPUTime)
	}
	if got.WallTime != 60*time.Second+500*time.Millisecond {
		t.Fatalf("WallTime = %v", got.WallTime)
	}
	if !r.fs.Exists("/work/out.dat") {
		t.Fatal("job output missing from the data space")
	}
}

func TestSpeedFactorScalesWallTime(t *testing.T) {
	r := newRig(t, Config{Machine: machine.FujitsuVPP700(8)}) // speed 2.2
	var res Result
	spec := r.spec("cpu 22s")
	spec.Done = func(_ JobID, rr Result) { res = rr }
	if _, err := r.rms.Submit(spec); err != nil {
		t.Fatal(err)
	}
	r.clock.RunUntilIdle(0)
	want := time.Duration(float64(22*time.Second)/2.2) + 500*time.Millisecond
	if res.WallTime != want {
		t.Fatalf("WallTime = %v, want %v", res.WallTime, want)
	}
}

func TestSequentialWhenSlotsExhausted(t *testing.T) {
	r := newRig(t, Config{Queues: []Queue{{Name: "batch", Slots: 1}}})
	for i := 0; i < 2; i++ {
		s := r.spec("cpu 10s")
		s.Name = fmt.Sprintf("j%d", i)
		if _, err := r.rms.Submit(s); err != nil {
			t.Fatal(err)
		}
	}
	r.clock.RunUntilIdle(0)
	recs := r.rms.Accounting()
	if len(recs) != 2 {
		t.Fatalf("%d records", len(recs))
	}
	if recs[1].Start.Before(recs[0].End) {
		t.Fatalf("second job started %v before first ended %v", recs[1].Start, recs[0].End)
	}
	if recs[1].Submit.After(recs[0].Start) {
		t.Fatal("unexpected submit ordering")
	}
}

func TestParallelWhenSlotsAvailable(t *testing.T) {
	r := newRig(t, Config{Queues: []Queue{{Name: "batch", Slots: 4}}})
	for i := 0; i < 4; i++ {
		if _, err := r.rms.Submit(r.spec("cpu 10s")); err != nil {
			t.Fatal(err)
		}
	}
	used, total := r.load()
	if used != 4 || total != 4 {
		t.Fatalf("load = %d/%d, want 4/4", used, total)
	}
	r.clock.RunUntilIdle(0)
	recs := r.rms.Accounting()
	for _, rec := range recs[1:] {
		if !rec.Start.Equal(recs[0].Start) {
			t.Fatalf("jobs did not start together: %v vs %v", rec.Start, recs[0].Start)
		}
	}
}

func TestTimeLimitExceeded(t *testing.T) {
	r := newRig(t, Config{})
	var res Result
	spec := r.spec("cpu 2h")
	spec.TimeLimit = time.Minute
	spec.Done = func(_ JobID, rr Result) { res = rr }
	if _, err := r.rms.Submit(spec); err != nil {
		t.Fatal(err)
	}
	r.clock.RunUntilIdle(0)
	if res.State != StateFailed || !strings.Contains(res.Reason, "wall clock") {
		t.Fatalf("result = %+v", res)
	}
	if res.WallTime != time.Minute {
		t.Fatalf("WallTime = %v (killed job should stop at the limit)", res.WallTime)
	}
}

func TestScriptFailure(t *testing.T) {
	r := newRig(t, Config{})
	var res Result
	spec := r.spec("fail disk exploded\necho unreachable")
	spec.Done = func(_ JobID, rr Result) { res = rr }
	if _, err := r.rms.Submit(spec); err != nil {
		t.Fatal(err)
	}
	r.clock.RunUntilIdle(0)
	if res.State != StateFailed || res.ExitCode != 1 {
		t.Fatalf("result = %+v", res)
	}
	if !strings.Contains(res.Stderr, "disk exploded") {
		t.Fatalf("stderr = %q", res.Stderr)
	}
}

func TestCancelPending(t *testing.T) {
	r := newRig(t, Config{Queues: []Queue{{Name: "batch", Slots: 1}}})
	id1, _ := r.rms.Submit(r.spec("cpu 10s"))
	id2, _ := r.rms.Submit(r.spec("cpu 10s"))
	if st := r.state(id2); st != StatePending {
		t.Fatalf("second job state = %s", st)
	}
	if err := r.rms.Cancel(id2); err != nil {
		t.Fatal(err)
	}
	if st := r.state(id2); st != StateCancelled {
		t.Fatalf("state after cancel = %s", st)
	}
	r.clock.RunUntilIdle(0)
	if st := r.state(id1); st != StateDone {
		t.Fatalf("first job = %s", st)
	}
}

func TestCancelRunningFreesSlots(t *testing.T) {
	r := newRig(t, Config{Queues: []Queue{{Name: "batch", Slots: 1}}})
	id1, _ := r.rms.Submit(r.spec("cpu 10h"))
	id2, _ := r.rms.Submit(r.spec("cpu 1s"))
	if err := r.rms.Cancel(id1); err != nil {
		t.Fatal(err)
	}
	// Cancelling the hog must let the second job dispatch.
	if st := r.state(id2); st != StateRunning {
		t.Fatalf("second job = %s after cancel", st)
	}
	r.clock.RunUntilIdle(0)
	if st := r.state(id2); st != StateDone {
		t.Fatalf("second job final = %s", st)
	}
	if err := r.rms.Cancel(id2); !errors.Is(err, ErrBadState) {
		t.Fatalf("cancel done job: %v", err)
	}
}

func TestSubmitValidation(t *testing.T) {
	r := newRig(t, Config{Queues: []Queue{{Name: "batch", Slots: 8, MaxTime: time.Hour, MaxSlots: 4}}})
	if _, err := r.rms.Submit(JobSpec{}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("empty spec: %v", err)
	}
	s := r.spec("true")
	s.Queue = "nope"
	if _, err := r.rms.Submit(s); !errors.Is(err, ErrUnknownQueue) {
		t.Fatalf("bad queue: %v", err)
	}
	s = r.spec("true")
	s.Slots = 8
	if _, err := r.rms.Submit(s); !errors.Is(err, ErrOverCapacity) {
		t.Fatalf("slots over MaxSlots: %v", err)
	}
	s = r.spec("true")
	s.TimeLimit = 48 * time.Hour
	if _, err := r.rms.Submit(s); !errors.Is(err, ErrOverCapacity) {
		t.Fatalf("time over MaxTime: %v", err)
	}
}

func TestEventSequence(t *testing.T) {
	r := newRig(t, Config{})
	var seq []EventType
	r.rms.Observe(func(ev Event) { seq = append(seq, ev.Type) })
	_, _ = r.rms.Submit(r.spec("cpu 1s"))
	r.clock.RunUntilIdle(0)
	want := []EventType{EventSubmitted, EventStarted, EventFinished}
	if fmt.Sprint(seq) != fmt.Sprint(want) {
		t.Fatalf("events = %v, want %v", seq, want)
	}
}

func TestAccountingRecords(t *testing.T) {
	r := newRig(t, Config{})
	s := r.spec("cpu 30s")
	s.Project = "zam"
	_, _ = r.rms.Submit(s)
	r.clock.RunUntilIdle(0)
	recs := r.rms.Accounting()
	if len(recs) != 1 {
		t.Fatalf("%d records", len(recs))
	}
	rec := recs[0]
	if rec.Owner != "alice" || rec.Project != "zam" || rec.State != StateDone {
		t.Fatalf("record = %+v", rec)
	}
	if rec.CPUTime != 30*time.Second || !rec.End.After(rec.Start) {
		t.Fatalf("record times = %+v", rec)
	}
}

// TestBackfillImprovesNarrowJob reproduces the classic EASY scenario: a wide
// job blocks the head of the queue; with backfill a short narrow job runs in
// the hole, without it the narrow job waits.
func TestBackfillImprovesNarrowJob(t *testing.T) {
	run := func(backfill bool) time.Duration {
		r := newRig(t, Config{
			Queues:   []Queue{{Name: "batch", Slots: 4}},
			Backfill: backfill,
		})
		// Hog: 3 slots, long.
		hog := r.spec("cpu 1h")
		hog.Slots = 3
		hog.TimeLimit = 2 * time.Hour
		_, _ = r.rms.Submit(hog)
		// Wide head: needs all 4 slots, must wait for the hog.
		wide := r.spec("cpu 10m")
		wide.Slots = 4
		wide.TimeLimit = time.Hour
		_, _ = r.rms.Submit(wide)
		// Narrow short job: could run on the spare slot right now.
		narrow := r.spec("cpu 5m")
		narrow.Slots = 1
		narrow.TimeLimit = 10 * time.Minute
		narrowID, _ := r.rms.Submit(narrow)
		r.clock.RunUntilIdle(0)
		for _, rec := range r.rms.Accounting() {
			if rec.Job == narrowID {
				return rec.End.Sub(rec.Submit)
			}
		}
		t.Fatal("narrow job not in accounting")
		return 0
	}
	with := run(true)
	without := run(false)
	if with >= without {
		t.Fatalf("backfill did not help: with=%v without=%v", with, without)
	}
}

// TestBackfillDoesNotStarveHead: the backfilled job must not delay the wide
// head job beyond the hog's completion.
func TestBackfillDoesNotStarveHead(t *testing.T) {
	r := newRig(t, Config{
		Queues:   []Queue{{Name: "batch", Slots: 4}},
		Backfill: true,
	})
	hog := r.spec("cpu 1h")
	hog.Slots = 3
	hog.TimeLimit = 90 * time.Minute
	_, _ = r.rms.Submit(hog)
	wide := r.spec("cpu 10m")
	wide.Slots = 4
	wide.TimeLimit = time.Hour
	wideID, _ := r.rms.Submit(wide)
	// This narrow job's limit exceeds the shadow window and it does not fit
	// beside the head (head needs all slots) — it must NOT backfill.
	narrow := r.spec("cpu 3h")
	narrow.Slots = 1
	narrow.TimeLimit = 4 * time.Hour
	narrowID, _ := r.rms.Submit(narrow)

	if st := r.state(narrowID); st != StatePending {
		t.Fatalf("greedy narrow job dispatched (%s); would starve the head", st)
	}
	r.clock.RunUntilIdle(0)
	var wideRec, hogRec Record
	for _, rec := range r.rms.Accounting() {
		switch rec.Job {
		case wideID:
			wideRec = rec
		case 1:
			hogRec = rec
		}
	}
	// The wide job must start essentially when the hog's reservation ends.
	slack := wideRec.Start.Sub(hogRec.End)
	if slack < 0 || slack > time.Hour {
		t.Fatalf("wide start %v vs hog end %v", wideRec.Start, hogRec.End)
	}
}

func TestConfigValidation(t *testing.T) {
	clock := sim.NewVirtualClock()
	if _, err := New(nil, Config{Queues: []Queue{{Name: "q", Slots: 1}}, Machine: machine.CrayT3E(1)}); err == nil {
		t.Fatal("nil clock accepted")
	}
	if _, err := New(clock, Config{Machine: machine.CrayT3E(1)}); err == nil {
		t.Fatal("no queues accepted")
	}
	if _, err := New(clock, Config{Queues: []Queue{{Name: "q", Slots: 0}}, Machine: machine.CrayT3E(1)}); err == nil {
		t.Fatal("zero-slot queue accepted")
	}
	if _, err := New(clock, Config{Queues: []Queue{{Name: "q", Slots: 1}}}); err == nil {
		t.Fatal("zero speed factor accepted")
	}
}

// Property: slots are never oversubscribed, for random workloads with and
// without backfill.
func TestSlotsNeverOversubscribed(t *testing.T) {
	for _, backfill := range []bool{false, true} {
		for seed := int64(0); seed < 15; seed++ {
			rng := rand.New(rand.NewSource(seed))
			slots := 1 + rng.Intn(8)
			r := newRig(t, Config{
				Queues:   []Queue{{Name: "batch", Slots: slots}},
				Backfill: backfill,
			})
			violated := false
			r.rms.Observe(func(Event) {
				used, total := r.load()
				if used > total || used < 0 {
					violated = true
				}
			})
			n := 5 + rng.Intn(20)
			for i := 0; i < n; i++ {
				s := r.spec(fmt.Sprintf("cpu %ds", 1+rng.Intn(120)))
				s.Slots = 1 + rng.Intn(slots)
				s.TimeLimit = time.Duration(2+rng.Intn(10)) * time.Minute
				if _, err := r.rms.Submit(s); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
			r.clock.RunUntilIdle(0)
			if violated {
				t.Fatalf("seed %d backfill=%v: oversubscription observed", seed, backfill)
			}
			recs := r.rms.Accounting()
			if len(recs) != n {
				t.Fatalf("seed %d: %d records, want %d (lost jobs)", seed, len(recs), n)
			}
		}
	}
}
