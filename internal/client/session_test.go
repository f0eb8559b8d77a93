package client

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"unicore/internal/ajo"
	"unicore/internal/events"
	"unicore/internal/resources"
)

// session opens a session against the rig's site.
func (r *rig) session() *Session {
	return NewSession(r.c, "LRZ")
}

// slowJob builds a two-step script job with real virtual runtime.
func slowJob(t *testing.T) *ajo.AbstractJob {
	t.Helper()
	b := NewJob("awaited", vpp)
	s1 := b.Script("produce", "cpu 5m\necho 42 > answer.txt\n", resources.Request{Processors: 1, RunTime: time.Hour})
	s2 := b.Script("consume", "cpu 2m\ncat answer.txt\n", resources.Request{Processors: 1, RunTime: time.Hour})
	b.After(s1, s2, "answer.txt")
	job, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return job
}

// TestSessionAwaitCompletesOnEventStream runs Await concurrently with the
// virtual-clock driver: the long-polled subscription wakes as the NJS
// appends events, and Await returns the terminal summary without interval
// polling.
func TestSessionAwaitCompletesOnEventStream(t *testing.T) {
	r := newRig(t)
	sess := r.session()
	jid, err := sess.Submit(context.Background(), slowJob(t))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	type result struct {
		sum ajo.Summary
		err error
	}
	done := make(chan result, 1)
	go func() {
		sum, err := sess.Await(context.Background(), jid)
		done <- result{sum, err}
	}()
	// Drive the deployment to completion while Await blocks.
	deadline := time.After(10 * time.Second)
	for {
		r.clock.RunUntilIdle(100000)
		select {
		case res := <-done:
			if res.err != nil {
				t.Fatalf("Await: %v", res.err)
			}
			if res.sum.Status != ajo.StatusSuccessful {
				t.Fatalf("Await status = %s, want SUCCESSFUL", res.sum.Status)
			}
			return
		case <-deadline:
			t.Fatal("Await never returned")
		case <-time.After(time.Millisecond):
			// The Await goroutine may not have subscribed yet; drive again.
		}
	}
}

// TestSessionAwaitCancellation unblocks a held Await as soon as its context
// is cancelled — the cancellation path through protocol.Client and the
// gateway long-poll.
func TestSessionAwaitCancellation(t *testing.T) {
	r := newRig(t)
	sess := r.session()
	jid, err := sess.Submit(context.Background(), slowJob(t))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := sess.Await(ctx, jid)
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the long-poll start
	cancel()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("cancelled Await returned nil error")
		}
		if !errors.Is(err, context.Canceled) && !strings.Contains(err.Error(), context.Canceled.Error()) {
			t.Fatalf("cancelled Await returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancel did not unblock Await")
	}
}

// TestSessionWatchDeliversOrderedStream collects the full event stream of a
// job and checks ordering invariants: contiguous per-job sequence from 1,
// admitted first, exactly one terminal event, delivered last.
func TestSessionWatchDeliversOrderedStream(t *testing.T) {
	r := newRig(t)
	sess := r.session()
	jid, err := sess.Submit(context.Background(), slowJob(t))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	ch, err := sess.Watch(context.Background(), jid)
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	got := make(chan []JobEvent, 1)
	go func() {
		var evs []JobEvent
		for ev := range ch {
			evs = append(evs, ev)
		}
		got <- evs
	}()
	var evs []JobEvent
	deadline := time.After(10 * time.Second)
collect:
	for {
		r.clock.RunUntilIdle(100000)
		select {
		case evs = <-got:
			break collect
		case <-deadline:
			t.Fatal("Watch channel never closed")
		case <-time.After(time.Millisecond):
			// The watcher may still be mid-subscribe; drive again.
		}
	}
	if len(evs) == 0 {
		t.Fatal("Watch delivered no events")
	}
	terminals := 0
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has Seq %d — stream not contiguous", i, ev.Seq)
		}
		if ev.Terminal {
			terminals++
		}
	}
	if evs[0].Type != events.TypeAdmitted {
		t.Fatalf("first event = %s, want admitted", evs[0].Type)
	}
	last := evs[len(evs)-1]
	if terminals != 1 || !last.Terminal || last.Status != ajo.StatusSuccessful {
		t.Fatalf("terminal events = %d, last = %+v; want exactly one terminal last", terminals, last)
	}
}

// TestWatchUnknownJobFailsFast surfaces bad subscriptions synchronously.
func TestWatchUnknownJobFailsFast(t *testing.T) {
	r := newRig(t)
	if _, err := r.session().Watch(context.Background(), "LRZ-999999"); err == nil {
		t.Fatal("Watch of an unknown job returned a channel instead of an error")
	}
}

// TestConsignIDFallbackStaysUnique is the regression test for the
// crypto/rand fallback: two submissions minted without entropy must not
// share an idempotency token (a shared token silently dedupes the second
// submission as a "retry" of the first).
func TestConsignIDFallbackStaysUnique(t *testing.T) {
	orig := consignIDReader
	consignIDReader = func([]byte) (int, error) { return 0, errors.New("entropy exhausted") }
	defer func() { consignIDReader = orig }()

	a, b := newConsignID(), newConsignID()
	if a == b {
		t.Fatalf("two entropy-free consign IDs collide: %q", a)
	}
	if a == "consign-fallback" || b == "consign-fallback" {
		t.Fatalf("constant fallback token is back: %q %q", a, b)
	}

	// End to end: two fallback-tokened submissions admit two distinct jobs.
	r := newRig(t)
	id1, err := r.jpa.Submit(slowJob(t))
	if err != nil {
		t.Fatalf("Submit 1: %v", err)
	}
	id2, err := r.jpa.Submit(slowJob(t))
	if err != nil {
		t.Fatalf("Submit 2: %v", err)
	}
	if id1 == id2 {
		t.Fatalf("second submission deduplicated onto %s", id1)
	}
}
