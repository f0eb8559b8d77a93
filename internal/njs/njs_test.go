package njs

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"unicore/internal/ajo"
	"unicore/internal/core"
	"unicore/internal/events"
	"unicore/internal/machine"
	"unicore/internal/protocol"
	"unicore/internal/resources"
	"unicore/internal/sim"
	"unicore/internal/staging"
)

// newNJS builds a two-Vsite NJS with a permissive login mapper.
// loginOf maps a user DN to the test login: "CN=Alice,O=…" logs in as u_alice.
func loginOf(dn core.DN) string {
	cn, _, _ := strings.Cut(strings.TrimPrefix(string(dn), "CN="), ",")
	return "u_" + strings.ToLower(cn)
}

func newNJS(t *testing.T) (*NJS, *sim.VirtualClock) {
	t.Helper()
	clock := sim.NewVirtualClock()
	n, err := New(Config{
		Usite: "FZJ",
		Clock: clock,
		Vsites: []VsiteConfig{
			{Name: "T3E", Profile: machine.CrayT3E(64)},
			{Name: "CLUSTER", Profile: machine.GenericCluster(8)},
		},
		Logins: testMapper,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return n, clock
}

var alice = core.MakeDN("Alice", "FZJ", "DE")

func script(id, text string) *ajo.ScriptTask {
	return &ajo.ScriptTask{
		TaskBase: ajo.TaskBase{
			Header:    ajo.Header{ActionID: ajo.ActionID(id), ActionName: id},
			Resources: resources.Request{Processors: 1, RunTime: time.Hour},
		},
		Script: text,
	}
}

func job(name string, vsite core.Vsite, actions []ajo.Action, deps []ajo.Dependency) *ajo.AbstractJob {
	return &ajo.AbstractJob{
		Header:       ajo.Header{ActionID: ajo.NewID("job"), ActionName: name},
		Target:       core.Target{Usite: "FZJ", Vsite: vsite},
		Actions:      actions,
		Dependencies: deps,
	}
}

func TestConsignValidation(t *testing.T) {
	n, _ := newNJS(t)

	// Wrong Usite.
	j := job("wrong", "T3E", []ajo.Action{script("s", "echo hi\n")}, nil)
	j.Target.Usite = "ZIB"
	if _, err := n.Consign(context.Background(), alice, "", j); !errors.Is(err, ErrWrongUsite) {
		t.Fatalf("err = %v, want ErrWrongUsite", err)
	}

	// Unknown Vsite.
	j2 := job("novsite", "SX4", []ajo.Action{script("s", "echo hi\n")}, nil)
	if _, err := n.Consign(context.Background(), alice, "", j2); !errors.Is(err, ErrUnknownVsite) {
		t.Fatalf("err = %v, want ErrUnknownVsite", err)
	}

	// Resource admission: the T3E page caps processors at 64.
	huge := script("s", "echo hi\n")
	huge.Resources.Processors = 6500
	j3 := job("huge", "T3E", []ajo.Action{huge}, nil)
	if _, err := n.Consign(context.Background(), alice, "", j3); err == nil {
		t.Fatal("oversized request admitted")
	}

	// No login mapper: New refuses to build the NJS.
	noLogins := Config{Usite: "FZJ", Clock: sim.NewVirtualClock(), Vsites: []VsiteConfig{{Name: "T3E", Profile: machine.CrayT3E(64)}}}
	if _, err := New(noLogins); err == nil || !strings.Contains(err.Error(), "login mapper") {
		t.Fatalf("New without Logins: err = %v, want a refusal naming the login mapper", err)
	}
}

// TestPoolInstanceNamesEveryMint: a pool replica serves exactly one Vsite,
// and every name it mints — job ID, staged-upload handle, event origin,
// telemetry origin — carries its instance, which JobInstance reads back. A
// single NJS's IDs name no instance.
func TestPoolInstanceNamesEveryMint(t *testing.T) {
	clock := sim.NewVirtualClock()
	two := []VsiteConfig{{Name: "T3E", Profile: machine.CrayT3E(64)}, {Name: "CLUSTER", Profile: machine.GenericCluster(8)}}
	if _, err := New(Config{Usite: "FZJ", Clock: clock, Vsites: two, Instance: "T3E.r0", Logins: testMapper}); err == nil {
		t.Fatal("a pool instance serving two vsites was built")
	}
	n, err := New(Config{Usite: "FZJ", Clock: clock, Vsites: two[1:], Instance: "CLUSTER.r1", Logins: testMapper})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	id, err := n.Consign(context.Background(), alice, "", job("named", "CLUSTER", []ajo.Action{script("s", "echo hi\n")}, nil))
	if err != nil {
		t.Fatalf("Consign: %v", err)
	}
	open, err := n.StageOpen(alice, false, protocol.PutOpenRequest{Vsite: "CLUSTER"})
	if err != nil {
		t.Fatalf("StageOpen: %v", err)
	}
	reply, err := n.Events(alice, false, protocol.SubscribeRequest{})
	if err != nil {
		t.Fatalf("Events: %v", err)
	}
	if id != "FZJ-CLUSTER.r1-000001" || JobInstance("FZJ", id) != "CLUSTER.r1" ||
		staging.HandleTag(open.Handle) != "FZJ-CLUSTER.r1" || reply.Origins["CLUSTER.r1"] == 0 ||
		n.Metrics()[0].Origin != "njs/FZJ/CLUSTER.r1" {
		t.Fatalf("replica CLUSTER.r1 minted job %s, handle %s, origins %v, telemetry %s",
			id, open.Handle, reply.Origins, n.Metrics()[0].Origin)
	}
	for _, other := range []core.JobID{"FZJ-000001", "ZIB-CLUSTER.r1-000001", "FZJ"} {
		if got := JobInstance("FZJ", other); got != "" {
			t.Fatalf("JobInstance(FZJ, %s) = %q, want no instance", other, got)
		}
	}
}

func TestDependencyOrderAndFileGuarantee(t *testing.T) {
	n, clock := newNJS(t)
	j := job("chain", "T3E", []ajo.Action{
		script("produce", "write data.bin 1024\necho produced\n"),
		script("consume", "cat data.bin > sink.tmp\necho consumed\n"),
	}, []ajo.Dependency{{Before: "produce", After: "consume", Files: []string{"data.bin"}}})
	id, err := n.Consign(context.Background(), alice, "", j)
	if err != nil {
		t.Fatalf("Consign: %v", err)
	}
	clock.RunUntilIdle(100000)
	o, found, err := n.Outcome(alice, false, id)
	if err != nil || !found {
		t.Fatalf("Outcome: %v found=%v", err, found)
	}
	if o.Status != ajo.StatusSuccessful {
		t.Fatalf("job status = %s\n%s", o.Status, o.Render())
	}
	prod, _ := o.Find("produce")
	cons, _ := o.Find("consume")
	if prod.Finished.After(cons.Started) {
		t.Fatalf("consume started %s before produce finished %s", cons.Started, prod.Finished)
	}
}

func TestFailureCascadesNotDone(t *testing.T) {
	n, clock := newNJS(t)
	j := job("cascade", "T3E", []ajo.Action{
		script("bad", "fail deliberate\n"),
		script("next", "echo never\n"),
		script("last", "echo never either\n"),
	}, []ajo.Dependency{
		{Before: "bad", After: "next"},
		{Before: "next", After: "last"},
	})
	id, err := n.Consign(context.Background(), alice, "", j)
	if err != nil {
		t.Fatalf("Consign: %v", err)
	}
	clock.RunUntilIdle(100000)
	o, _, _ := n.Outcome(alice, false, id)
	if o.Status != ajo.StatusFailed {
		t.Fatalf("job status = %s, want FAILED", o.Status)
	}
	bad, _ := o.Find("bad")
	if bad.Status != ajo.StatusFailed {
		t.Fatalf("bad = %s", bad.Status)
	}
	for _, dep := range []ajo.ActionID{"next", "last"} {
		d, _ := o.Find(dep)
		if d.Status != ajo.StatusNotDone {
			t.Fatalf("%s = %s, want NOT_DONE", dep, d.Status)
		}
	}
}

func TestMissingDependencyFileFailsSuccessor(t *testing.T) {
	n, clock := newNJS(t)
	j := job("missing", "T3E", []ajo.Action{
		script("produce", "echo no file written\n"),
		script("consume", "cat ghost.bin\n"),
	}, []ajo.Dependency{{Before: "produce", After: "consume", Files: []string{"ghost.bin"}}})
	id, _ := n.Consign(context.Background(), alice, "", j)
	clock.RunUntilIdle(100000)
	o, _, _ := n.Outcome(alice, false, id)
	cons, _ := o.Find("consume")
	if cons.Status != ajo.StatusNotDone {
		t.Fatalf("consume = %s, want NOT_DONE (dependency file missing)", cons.Status)
	}
	if !strings.Contains(cons.Reason, "dependency files unavailable") {
		t.Fatalf("reason = %q", cons.Reason)
	}
}

func TestImportExecuteExport(t *testing.T) {
	n, clock := newNJS(t)
	payload := []byte("input-payload")
	j := job("staging", "T3E", []ajo.Action{
		&ajo.ImportTask{
			Header: ajo.Header{ActionID: "imp", ActionName: "import"},
			Source: ajo.ImportSource{Inline: payload},
			To:     "in.dat",
		},
		script("work", "cat in.dat > out.dat\necho worked\n"),
		&ajo.ExportTask{
			Header:   ajo.Header{ActionID: "exp", ActionName: "export"},
			From:     "out.dat",
			ToXspace: "/archive/out.dat",
		},
	}, []ajo.Dependency{
		{Before: "imp", After: "work"},
		{Before: "work", After: "exp"},
	})
	id, err := n.Consign(context.Background(), alice, "", j)
	if err != nil {
		t.Fatalf("Consign: %v", err)
	}
	clock.RunUntilIdle(100000)
	o, _, _ := n.Outcome(alice, false, id)
	if o.Status != ajo.StatusSuccessful {
		t.Fatalf("status = %s\n%s", o.Status, o.Render())
	}
	// The export must exist in the Vsite's Xspace with the same content.
	vs, _ := n.Vsite("T3E")
	got, err := vs.Space.ReadXspace("/archive/out.dat")
	if err != nil {
		t.Fatalf("ReadXspace: %v", err)
	}
	if string(got) != string(payload) {
		t.Fatalf("exported = %q, want %q", got, payload)
	}
	exp, _ := o.Find("exp")
	if len(exp.Files) != 1 || exp.Files[0].Size != int64(len(payload)) {
		t.Fatalf("export file records = %+v", exp.Files)
	}
}

func TestLocalSubJobOnAnotherVsite(t *testing.T) {
	n, clock := newNJS(t)
	sub := job("sub", "CLUSTER", []ajo.Action{script("pre", "write p.dat 64\necho pre done\n")}, nil)
	parent := job("parent", "T3E", []ajo.Action{
		sub,
		&ajo.TransferTask{
			Header:     ajo.Header{ActionID: "tr", ActionName: "fetch"},
			FromAction: sub.ID(),
			Files:      []string{"p.dat"},
		},
		script("main", "cat p.dat > sink.tmp\necho main done\n"),
	}, []ajo.Dependency{
		{Before: sub.ID(), After: "tr"},
		{Before: "tr", After: "main"},
	})
	id, err := n.Consign(context.Background(), alice, "", parent)
	if err != nil {
		t.Fatalf("Consign: %v", err)
	}
	clock.RunUntilIdle(1000000)
	o, _, _ := n.Outcome(alice, false, id)
	if o.Status != ajo.StatusSuccessful {
		t.Fatalf("status = %s\n%s", o.Status, o.Render())
	}
	// The sub-job ran on the CLUSTER Vsite: its accounting is there.
	vs, _ := n.Vsite("CLUSTER")
	if recs := vs.RMS.Accounting(); len(recs) != 1 {
		t.Fatalf("CLUSTER accounting = %d records, want 1", len(recs))
	}
}

func TestHoldResumeDispatching(t *testing.T) {
	n, clock := newNJS(t)
	j := job("held", "T3E", []ajo.Action{
		script("a", "echo a\n"),
		script("b", "echo b\n"),
	}, []ajo.Dependency{{Before: "a", After: "b"}})
	id, _ := n.Consign(context.Background(), alice, "", j)
	if err := n.Control(alice, false, id, ajo.OpHold); err != nil {
		t.Fatalf("Hold: %v", err)
	}
	clock.RunUntilIdle(100000)
	// Task a was already in flight and finishes; b must stay pending.
	poll, err := n.Poll(alice, false, id)
	if err != nil {
		t.Fatalf("Poll: %v", err)
	}
	if poll.Summary.Status.Terminal() {
		t.Fatalf("held job finished: %s", poll.Summary.Status)
	}
	if err := n.Control(alice, false, id, ajo.OpResume); err != nil {
		t.Fatalf("Resume: %v", err)
	}
	clock.RunUntilIdle(100000)
	poll, _ = n.Poll(alice, false, id)
	if poll.Summary.Status != ajo.StatusSuccessful {
		t.Fatalf("status after resume = %s", poll.Summary.Status)
	}
}

func TestAbortMarksActionsAborted(t *testing.T) {
	n, clock := newNJS(t)
	j := job("abort", "T3E", []ajo.Action{
		script("long", "cpu 5h\necho never\n"),
	}, nil)
	id, _ := n.Consign(context.Background(), alice, "", j)
	clock.Advance(time.Second)
	if err := n.Control(alice, false, id, ajo.OpAbort); err != nil {
		t.Fatalf("Abort: %v", err)
	}
	clock.RunUntilIdle(100000)
	o, _, _ := n.Outcome(alice, false, id)
	if o.Status != ajo.StatusAborted {
		t.Fatalf("status = %s, want ABORTED", o.Status)
	}
	long, _ := o.Find("long")
	if long.Status != ajo.StatusAborted {
		t.Fatalf("task = %s, want ABORTED", long.Status)
	}
	// Aborting again is an error.
	if err := n.Control(alice, false, id, ajo.OpAbort); err == nil {
		t.Fatal("double abort succeeded")
	}
}

// TestAbortEventsFollowActionOrder aborts jobs with three non-terminal
// actions, two queued and one pending, whose IDs do not sort in action
// order. The aborted events come in action order every time: an abort is
// as replayable as the run that led to it.
func TestAbortEventsFollowActionOrder(t *testing.T) {
	n, clock := newNJS(t)
	want := []ajo.ActionID{"zz", "aa", "mm"}
	for range 5 {
		j := job("abort-order", "T3E", []ajo.Action{
			script("zz", "cpu 5h\n"), script("aa", "echo after zz\n"), script("mm", "cpu 5h\n"),
		}, []ajo.Dependency{{Before: "zz", After: "aa"}})
		id, err := n.Consign(context.Background(), alice, "", j)
		if err != nil {
			t.Fatalf("Consign: %v", err)
		}
		clock.Advance(time.Second)
		if err := n.Control(alice, false, id, ajo.OpAbort); err != nil {
			t.Fatalf("Abort: %v", err)
		}
		var got []ajo.ActionID
		for _, ev := range jobEvents(n, id) {
			if ev.Type == events.TypeActionDone && ev.Status == ajo.StatusAborted {
				got = append(got, ev.Action)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("aborted events for %v, want action order %v", got, want)
		}
	}
}

func TestAuthorization(t *testing.T) {
	n, clock := newNJS(t)
	j := job("mine", "T3E", []ajo.Action{script("s", "echo hi\n")}, nil)
	id, _ := n.Consign(context.Background(), alice, "", j)
	clock.RunUntilIdle(100000)

	bob := core.MakeDN("Bob", "RUS", "DE")
	if _, err := n.Poll(bob, false, id); !errors.Is(err, ErrNotAuthorized) {
		t.Fatalf("Poll as bob: %v, want ErrNotAuthorized", err)
	}
	if _, _, err := n.Outcome(bob, false, id); !errors.Is(err, ErrNotAuthorized) {
		t.Fatalf("Outcome as bob: %v, want ErrNotAuthorized", err)
	}
	if err := n.Control(bob, false, id, ajo.OpAbort); !errors.Is(err, ErrNotAuthorized) {
		t.Fatalf("Control as bob: %v, want ErrNotAuthorized", err)
	}
	// A peer server may poll on behalf of the consigning site.
	if _, err := n.Poll(bob, true, id); err != nil {
		t.Fatalf("Poll as server: %v", err)
	}
}

func TestConsignIdempotent(t *testing.T) {
	n, clock := newNJS(t)
	j := job("idem", "T3E", []ajo.Action{script("s", "echo hi\n")}, nil)
	id1, err := n.Consign(context.Background(), alice, "key-1", j)
	if err != nil {
		t.Fatalf("Consign 1: %v", err)
	}
	id2, err := n.Consign(context.Background(), alice, "key-1", j)
	if err != nil {
		t.Fatalf("Consign 2: %v", err)
	}
	if id1 != id2 {
		t.Fatalf("idempotent consign returned %s then %s", id1, id2)
	}
	clock.RunUntilIdle(100000)
	jobs, _ := n.List(alice)
	if len(jobs) != 1 {
		t.Fatalf("list = %d jobs, want 1", len(jobs))
	}
}

func TestVsiteLoads(t *testing.T) {
	n, clock := newNJS(t)
	loads := n.VsiteLoads()
	if len(loads) != 2 {
		t.Fatalf("loads = %v", loads)
	}
	if loads["T3E"].Load != 0 || loads["T3E"].Pending != 0 {
		t.Fatalf("idle loads = %+v", loads["T3E"])
	}
	// Fill the 8-node cluster with a 8-proc 2h job plus one waiting.
	mk := func(id string) *ajo.AbstractJob {
		s := script(id, "cpu 1h\necho done\n")
		s.Resources.Processors = 8
		jj := job(id, "CLUSTER", []ajo.Action{s}, nil)
		return jj
	}
	if _, err := n.Consign(context.Background(), alice, "", mk("fill1")); err != nil {
		t.Fatalf("Consign fill1: %v", err)
	}
	if _, err := n.Consign(context.Background(), alice, "", mk("fill2")); err != nil {
		t.Fatalf("Consign fill2: %v", err)
	}
	clock.Advance(time.Second)
	loads = n.VsiteLoads()
	if loads["CLUSTER"].Load != 1 {
		t.Fatalf("cluster load = %v, want 1", loads["CLUSTER"].Load)
	}
	if loads["CLUSTER"].Pending != 1 {
		t.Fatalf("cluster pending = %d, want 1", loads["CLUSTER"].Pending)
	}
}

func TestListOrdering(t *testing.T) {
	n, clock := newNJS(t)
	var ids []core.JobID
	for _, name := range []string{"first", "second", "third"} {
		clock.Advance(time.Minute)
		id, err := n.Consign(context.Background(), alice, "", job(name, "T3E", []ajo.Action{script("s-"+name, "echo x\n")}, nil))
		if err != nil {
			t.Fatalf("Consign %s: %v", name, err)
		}
		ids = append(ids, id)
	}
	clock.RunUntilIdle(100000)
	list, _ := n.List(alice)
	if len(list) != 3 {
		t.Fatalf("list = %d", len(list))
	}
	// Newest first.
	if list[0].Job != ids[2] || list[2].Job != ids[0] {
		t.Fatalf("order = %v, want newest first %v", list, ids)
	}
}

func TestCompileLinkExecuteOnT3E(t *testing.T) {
	n, clock := newNJS(t)
	src := "!SIM: cpu 30m\n!SIM: echo kernel ran\nprogram p\nend program\n"
	j := job("cle", "T3E", []ajo.Action{
		&ajo.ImportTask{
			Header: ajo.Header{ActionID: "imp", ActionName: "stage source"},
			Source: ajo.ImportSource{Inline: []byte(src)},
			To:     "main.f90",
		},
		&ajo.CompileTask{
			TaskBase: ajo.TaskBase{Header: ajo.Header{ActionID: "cc", ActionName: "compile"},
				Resources: resources.Request{Processors: 1, RunTime: time.Hour}},
			Language: "f90", Sources: []string{"main.f90"}, Output: "main.o",
		},
		&ajo.LinkTask{
			TaskBase: ajo.TaskBase{Header: ajo.Header{ActionID: "ld", ActionName: "link"},
				Resources: resources.Request{Processors: 1, RunTime: time.Hour}},
			Objects: []string{"main.o"}, Libraries: []string{"MPI"}, Output: "a.out",
		},
		&ajo.ExecuteTask{
			TaskBase: ajo.TaskBase{Header: ajo.Header{ActionID: "run", ActionName: "run"},
				Resources: resources.Request{Processors: 16, RunTime: 2 * time.Hour}},
			Executable: "a.out",
		},
	}, []ajo.Dependency{
		{Before: "imp", After: "cc"},
		{Before: "cc", After: "ld"},
		{Before: "ld", After: "run"},
	})
	id, err := n.Consign(context.Background(), alice, "", j)
	if err != nil {
		t.Fatalf("Consign: %v", err)
	}
	clock.RunUntilIdle(1000000)
	o, _, _ := n.Outcome(alice, false, id)
	if o.Status != ajo.StatusSuccessful {
		t.Fatalf("status = %s\n%s", o.Status, o.Render())
	}
	run, _ := o.Find("run")
	if !strings.Contains(string(run.Stdout), "kernel ran") {
		t.Fatalf("run stdout = %q", run.Stdout)
	}
}
