package testbed_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
	"unicore/internal/testbed"

	"unicore/internal/ajo"
	"unicore/internal/client"
	"unicore/internal/core"
	"unicore/internal/events"
	"unicore/internal/protocol"
	"unicore/internal/resources"
)

// drainJobEvents fetches one job's event stream from cursor to exhaustion
// through a session, returning the events and the advanced cursor.
func drainJobEvents(t *testing.T, sess *client.Session, job core.JobID, cursor uint64) ([]client.JobEvent, uint64) {
	t.Helper()
	var out []client.JobEvent
	for {
		reply, err := sess.Events(context.Background(), protocol.SubscribeRequest{Job: job, Cursor: cursor})
		if err != nil {
			t.Fatalf("Events(%s@%d): %v", job, cursor, err)
		}
		if reply.Gap {
			t.Fatalf("event stream of %s gapped at cursor %d", job, cursor)
		}
		out = append(out, reply.Events...)
		if reply.Cursor > cursor {
			cursor = reply.Cursor
		}
		if len(reply.Events) == 0 {
			return out, cursor
		}
	}
}

// checkStream asserts the invariants of a complete job event stream:
// contiguous per-job sequence from 1, admitted first, exactly one terminal
// event, delivered last.
func checkStream(t *testing.T, job core.JobID, evs []client.JobEvent) {
	t.Helper()
	if len(evs) == 0 {
		t.Fatalf("job %s produced no events", job)
	}
	terminals := 0
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("job %s: event %d has Seq %d — lost or duplicated events", job, i, ev.Seq)
		}
		if ev.Terminal {
			terminals++
		}
	}
	if evs[0].Type != events.TypeAdmitted {
		t.Fatalf("job %s: first event is %s, want admitted", job, evs[0].Type)
	}
	last := evs[len(evs)-1]
	if terminals != 1 || !last.Terminal {
		t.Fatalf("job %s: %d terminal events (last terminal=%v), want exactly one, last", job, terminals, last.Terminal)
	}
}

// TestEventStreamRecoversFromDroppedReplies drives a subscription over a
// lossy transport: dropped MsgEventsReply envelopes are recovered by
// re-subscribing at the last cursor, and the assembled stream has no gaps
// and no duplicates — byte-identical to what a reliable subscriber sees.
func TestEventStreamRecoversFromDroppedReplies(t *testing.T) {
	d, err := testbed.SingleSite("FZJ", "CLUSTER", 8)
	if err != nil {
		t.Fatalf("SingleSite: %v", err)
	}
	defer d.Close()
	user, err := d.NewUser("Flaky Watcher", "Test", "flaky")
	if err != nil {
		t.Fatalf("NewUser: %v", err)
	}
	// The watcher's transport loses 40% of round trips (half of those after
	// the server processed the request — a dropped reply); the client's
	// retry loop re-issues the idempotent cursor fetch.
	flaky := protocol.NewFlaky(d.Net, 0.4, 1999)
	c := protocol.NewClient(flaky, user, d.CA, d.Registry)
	c.Retries = 100
	sess := client.NewSession(c, "FZJ")

	b := client.NewJob("flaky-watched", core.Target{Usite: "FZJ", Vsite: "CLUSTER"})
	s1 := b.Script("one", "cpu 5m\necho a > x.txt\n", resources.Request{Processors: 1, RunTime: time.Hour})
	s2 := b.Script("two", "cpu 5m\ncat x.txt\n", resources.Request{Processors: 1, RunTime: time.Hour})
	b.After(s1, s2, "x.txt")
	job, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	id, err := sess.Submit(context.Background(), job)
	if err != nil {
		t.Fatalf("Submit over flaky transport: %v", err)
	}

	// Interleave clock progress with lossy cursor fetches.
	var flakyStream []client.JobEvent
	cursor := uint64(0)
	for i := 0; i < 40; i++ {
		d.Clock.Advance(30 * time.Second)
		var batch []client.JobEvent
		batch, cursor = drainJobEvents(t, sess, id, cursor)
		flakyStream = append(flakyStream, batch...)
	}
	d.Run(1_000_000)
	tail, _ := drainJobEvents(t, sess, id, cursor)
	flakyStream = append(flakyStream, tail...)
	checkStream(t, id, flakyStream)

	// A reliable subscriber reading the stream in one pass sees exactly the
	// same events in the same order.
	reliable, _ := drainJobEvents(t, d.Session(user, "FZJ"), id, 0)
	if len(reliable) != len(flakyStream) {
		t.Fatalf("flaky stream has %d events, reliable has %d", len(flakyStream), len(reliable))
	}
	for i := range reliable {
		if reliable[i] != flakyStream[i] {
			t.Fatalf("streams diverge at %d:\nflaky:    %+v\nreliable: %+v", i, flakyStream[i], reliable[i])
		}
	}
	if _, lost := flaky.Stats(); lost == 0 {
		t.Fatal("the flaky transport dropped nothing — the test exercised no recovery")
	}
}

// TestUserStreamMergesAcrossReplicas subscribes user-scoped through a
// replicated site's router: events minted by different replicas merge under
// per-origin cursors, and resuming at the returned cursors yields nothing
// new.
func TestUserStreamMergesAcrossReplicas(t *testing.T) {
	d, err := testbed.ReplicatedSite("POOL", "CLUSTER", 16, 3, 0)
	if err != nil {
		t.Fatalf("ReplicatedSite: %v", err)
	}
	defer d.Close()
	user, err := d.NewUser("Merge User", "Test", "merge")
	if err != nil {
		t.Fatalf("NewUser: %v", err)
	}
	sess := d.Session(user, "POOL")
	for i := 0; i < 6; i++ {
		if _, err := sess.Submit(context.Background(), probeJob(t, fmt.Sprintf("merge-%02d", i))); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	d.Run(1_000_000)

	var all []client.JobEvent
	origins := map[string]uint64{}
	for {
		reply, err := sess.Events(context.Background(), protocol.SubscribeRequest{Origins: origins})
		if err != nil {
			t.Fatalf("user-scoped Events: %v", err)
		}
		all = append(all, reply.Events...)
		for o, next := range reply.Origins {
			origins[o] = next
		}
		if len(reply.Events) == 0 {
			break
		}
	}
	seen := map[string]bool{}
	terminals := map[core.JobID]int{}
	for _, ev := range all {
		key := fmt.Sprintf("%s/%s/%d", ev.Origin, ev.Job, ev.Seq)
		if seen[key] {
			t.Fatalf("event %s delivered twice in the merged user stream", key)
		}
		seen[key] = true
		if ev.Terminal {
			terminals[ev.Job]++
		}
	}
	if len(terminals) != 6 {
		t.Fatalf("terminal events for %d jobs, want 6", len(terminals))
	}
	for job, n := range terminals {
		if n != 1 {
			t.Fatalf("job %s has %d terminal events in the user stream", job, n)
		}
	}
	// The round-robin pool really spread the jobs over several origins.
	byOrigin := map[string]bool{}
	for _, ev := range all {
		byOrigin[ev.Origin] = true
	}
	if len(byOrigin) < 2 {
		t.Fatalf("all events from %d origin(s); the merge was not exercised", len(byOrigin))
	}
}

// TestEventLogEvictionEndToEnd is the defined overload behaviour of the
// bounded per-job event log, seen from the client: a job emits more than
// events.DefaultJobCap events, so its head is evicted. A watcher that stalls
// while the log rolls over is told so — its push subscription answers Gap and
// the channel closes on a non-terminal event, never a silently incomplete
// stream; a Watch opened from the start is refused with ErrWatchGap; and
// Session.Events at an explicit retained cursor still reads the window.
func TestEventLogEvictionEndToEnd(t *testing.T) {
	d, err := testbed.SingleSite("FZJ", "CLUSTER", 8)
	if err != nil {
		t.Fatalf("SingleSite: %v", err)
	}
	defer d.Close()
	user, err := d.NewUser("Slow Watcher", "Test", "slow")
	if err != nil {
		t.Fatalf("NewUser: %v", err)
	}
	sess := d.Session(user, "FZJ")
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// A head of independent actions puts a few dozen events in the log at
	// once; the long tail behind head[0] then rolls the log over.
	b := client.NewJob("chatty", core.Target{Usite: "FZJ", Vsite: "CLUSTER"})
	req := resources.Request{Processors: 1, RunTime: time.Hour}
	var head []ajo.ActionID
	for i := 0; i < 20; i++ {
		head = append(head, b.Script(fmt.Sprintf("head-%02d", i), "cpu 1m\n", req))
	}
	for i := 0; i < 120; i++ {
		b.After(head[0], b.Script(fmt.Sprintf("tail-%03d", i), "cpu 1m\n", req))
	}
	job, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	id, err := sess.Submit(ctx, job)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	d.Clock.Advance(time.Second)

	// The watch's first fetch holds more events than its channel buffers, so
	// with nobody reading it stalls before it has subscribed to anything —
	// and stays stalled while the job runs dry and the log rolls over.
	watch, err := sess.Watch(ctx, id)
	if err != nil {
		t.Fatalf("Watch on the live job: %v", err)
	}
	if fired := d.Run(10_000_000); fired >= 10_000_000 {
		t.Fatal("clock never went idle")
	}
	var stalled []client.JobEvent
	for ev := range watch {
		stalled = append(stalled, ev)
	}
	if ctx.Err() != nil {
		t.Fatal("stalled watch never closed")
	}
	for i, ev := range stalled {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("stalled watch: event %d has Seq %d — lost or duplicated before the gap", i, ev.Seq)
		}
	}
	if len(stalled) == 0 || stalled[len(stalled)-1].Terminal {
		t.Fatalf("stalled watch delivered %d events ending terminal — it never fell behind", len(stalled))
	}

	// From the start the stream can no longer be delivered gaplessly.
	if _, err := sess.Watch(ctx, id); !errors.Is(err, client.ErrWatchGap) {
		t.Fatalf("Watch from cursor 0 of an evicted stream: err = %v, want ErrWatchGap", err)
	}
	reply, err := sess.Events(ctx, protocol.SubscribeRequest{Job: id})
	if err != nil || !reply.Gap || len(reply.Events) == 0 {
		t.Fatalf("Events from cursor 0: gap=%v events=%d err=%v, want the retained window flagged Gap", reply.Gap, len(reply.Events), err)
	}
	first := reply.Events[0].Seq
	if last := stalled[len(stalled)-1].Seq; last+1 >= first {
		t.Fatalf("stalled watch reached Seq %d but the log retains from %d: nothing was evicted under it", last, first)
	}

	// The retained window, read at an explicit cursor: exactly the cap,
	// contiguous, closing with the terminal event.
	window, _ := drainJobEvents(t, sess, id, first-1)
	if len(window) != events.DefaultJobCap {
		t.Fatalf("retained window holds %d events, want events.DefaultJobCap = %d", len(window), events.DefaultJobCap)
	}
	for i, ev := range window {
		if ev.Seq != first+uint64(i) {
			t.Fatalf("retained window: event %d has Seq %d, want %d", i, ev.Seq, first+uint64(i))
		}
	}
	if !window[len(window)-1].Terminal {
		t.Fatal("retained window does not close with the terminal event")
	}
}
