package njs

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"unicore/internal/ajo"
	"unicore/internal/codine"
	"unicore/internal/core"
)

// TestTerminalOutcomeIsSharedAndNeverWritten holds the contract that lets
// Outcome hand out a finished job's tree without copying it: a terminal
// outcome node is never written again. Readers marshal every tree Outcome
// returns, with no lock, while the job is aborted under them and everything
// that could still reach its nodes arrives late — the batch system's answer
// to the cancellation, a completion with output, a finished sub-job, hold,
// resume and a second abort. Every terminal tree must encode to the same
// bytes, then and at the end; under -race a write to a node a reader holds
// is reported as well. A live tree must be the caller's own copy.
func TestTerminalOutcomeIsSharedAndNeverWritten(t *testing.T) {
	n, clock := newNJS(t)
	sub := &ajo.AbstractJob{
		Header:  ajo.Header{ActionID: "sub", ActionName: "sub"},
		Target:  core.Target{Usite: "FZJ", Vsite: "T3E"},
		Actions: ajo.ActionList{script("inner", "echo inner\n")},
	}
	id, err := n.Consign(context.Background(), alice, "", job("shared", "T3E",
		[]ajo.Action{sub, script("quick", "echo quick\n"), script("long", "cpu 2h\n")}, nil))
	if err != nil {
		t.Fatalf("Consign: %v", err)
	}
	clock.Advance(10 * time.Minute) // the sub-job and quick finish; long runs
	outcome := func() *ajo.Outcome {
		o, found, err := n.Outcome(alice, false, id)
		if err != nil || !found {
			t.Errorf("Outcome: found=%v, %v", found, err)
		}
		return o
	}
	live := outcome()
	if live.Status.Terminal() {
		t.Fatalf("the job finished early: %s", live.Status)
	}
	if sub, ok := live.Find("sub"); !ok || len(sub.Children) != 1 {
		t.Fatalf("the sub-job's tree is not in the outcome: %+v", sub)
	}
	if outcome() == live {
		t.Fatal("Outcome of a live job returned the tree it returned before: a live tree must be a copy")
	}
	uj, _ := n.job(id)
	uj.mu.Lock()
	childID := uj.action("sub").child
	uj.mu.Unlock()
	long, _ := uj.graph.Index("long")

	var (
		mu    sync.Mutex
		kept  *ajo.Outcome // the first terminal tree a reader got
		first []byte       // and its encoding at the time
	)
	check := func(o *ajo.Outcome) {
		b, err := ajo.MarshalOutcome(o)
		if err != nil {
			t.Errorf("MarshalOutcome: %v", err)
			return
		}
		if !o.Status.Terminal() {
			return
		}
		mu.Lock()
		if kept == nil {
			kept, first = o, b
		}
		k, want := kept, first
		mu.Unlock()
		if !bytes.Equal(b, want) {
			t.Errorf("a terminal outcome changed:\n got %s\nwant %s", canonical(o), canonical(k))
		}
		if o != k {
			t.Error("Outcome of a terminal job returned a copy, not the shared tree")
		}
	}

	stop := make(chan struct{})
	var readers, writers sync.WaitGroup
	for range 4 {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				check(outcome())
				mu.Lock()
				k := kept
				mu.Unlock()
				if k != nil {
					check(k) // a tree already handed out, encoded again
				}
			}
		}()
	}
	writers.Add(2)
	go func() { // the clock delivers the cancelled batch job's completion
		defer writers.Done()
		for range 200 {
			clock.Advance(time.Second)
		}
	}()
	go func() {
		defer writers.Done()
		if err := n.Control(alice, false, id, ajo.OpAbort); err != nil {
			t.Errorf("abort: %v", err)
		}
		for range 20 {
			for _, op := range []ajo.ControlOp{ajo.OpHold, ajo.OpResume, ajo.OpAbort} {
				if err := n.Control(alice, false, id, op); err == nil {
					t.Errorf("%s of a finished job succeeded", op)
				}
			}
			n.onBatchDone(id, long, codine.Result{State: codine.StateDone, Stdout: "late output\n", ExitCode: 7})
			n.completeChild(id, "sub", childID)
		}
	}()
	writers.Wait()
	clock.RunUntilIdle(0)
	close(stop)
	readers.Wait()

	final := outcome()
	check(final)
	if final.Status != ajo.StatusAborted {
		t.Fatalf("the job finished %s, want ABORTED", final.Status)
	}
	if long, ok := final.Find("long"); !ok || long.Status != ajo.StatusAborted || len(long.Stdout) != 0 {
		t.Fatalf("the aborted batch task took a late completion: %+v", long)
	}
}
