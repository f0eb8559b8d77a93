package gateway

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"unicore/internal/ajo"
	"unicore/internal/pki"
	"unicore/internal/protocol"
)

// TestStreamKillReconnectIdempotent severs the persistent v3 connection in
// the middle of a pipelined burst of calls and asserts the client absorbs it:
// in-flight calls are replayed on a fresh stream (or fall back to envelopes),
// a re-consign of the same ConsignID after the kill is answered with the same
// job — no duplicate admission — and the workload completes.
func TestStreamKillReconnectIdempotent(t *testing.T) {
	s := newSite(t)
	flaky := protocol.NewFlaky(s.net, 0, 1)
	flaky.Streams = true
	c := protocol.NewClient(flaky, s.alice, s.ca, s.reg)

	job := scriptJob("kill", "echo survive\n")
	id := consign(t, c, job)

	// Pipelined polls racing the kill: half are in flight when the stream
	// dies; every one must still return (replayed on a reconnect or via the
	// envelope fallback).
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var poll protocol.PollReply
			if err := c.Call(context.Background(), "FZJ", protocol.MsgPoll, protocol.PollRequest{Job: id}, &poll); err != nil {
				errs <- err
			}
		}()
	}
	if n := flaky.KillStreams(); n == 0 {
		t.Fatal("no live stream to kill: the workload never left the envelope path")
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("pipelined poll across the kill: %v", err)
	}

	// Idempotent replay: the same ConsignID after the kill must not admit a
	// second job.
	raw, err := ajo.Marshal(job)
	if err != nil {
		t.Fatal(err)
	}
	var again protocol.ConsignReply
	if err := c.Call(context.Background(), "FZJ", protocol.MsgConsign, protocol.ConsignRequest{ConsignID: string(job.ID()), AJO: raw}, &again); err != nil {
		t.Fatalf("re-consign: %v", err)
	}
	if !again.Accepted || again.Job != id {
		t.Fatalf("re-consign after kill = %+v, want the original job %s", again, id)
	}

	s.clock.RunUntilIdle(100000)
	var poll protocol.PollReply
	if err := c.Call(context.Background(), "FZJ", protocol.MsgPoll, protocol.PollRequest{Job: id}, &poll); err != nil {
		t.Fatalf("final poll: %v", err)
	}
	if !poll.Found || poll.Summary.Status != ajo.StatusSuccessful {
		t.Fatalf("job = %+v, want successful", poll.Summary)
	}

	// A second kill severs the reconnected stream too — the tracking set
	// must have registered the replacement connection.
	if n := flaky.KillStreams(); n == 0 {
		t.Fatal("no reconnected stream registered after the first kill")
	}
	var last protocol.PollReply
	if err := c.Call(context.Background(), "FZJ", protocol.MsgPoll, protocol.PollRequest{Job: id}, &last); err != nil {
		t.Fatalf("poll after second kill: %v", err)
	}
}

// TestStalledSubscriberFreesServerSubscription stalls the consumer of a push
// subscription until the client's read loop cuts it off, and requires the
// server's half to end with it: the cut-off sends the FrameSubStop that
// releases the push loop's long-poll, instead of leaving it holding one of
// the stream's subscription slots until the job (or, for this user-scope
// subscription, the connection) ends.
func TestStalledSubscriberFreesServerSubscription(t *testing.T) {
	s := newSite(t)
	c := s.client(s.alice)
	defer c.Close()

	// A user-scope subscription never ends on its own, and WaitMs keeps each
	// server round parked in the long-poll long past this test.
	events, stop, err := c.SubscribeStream(context.Background(), "FZJ", protocol.SubscribeRequest{WaitMs: 60_000})
	if err != nil {
		t.Fatalf("SubscribeStream: %v", err)
	}
	defer stop()

	gauge := func(name string, kv ...string) float64 {
		p, _ := s.gw.Telemetry().Snapshot().Get(name, kv...)
		return p.Value
	}
	// Never reading events is the stall. Every consign appends an admitted
	// event, so every round of the push loop emits a batch; the cut-off comes
	// once the client-side buffers are full.
	for i := 0; gauge("gateway_stream_frames_total", "kind", "sub-stop") == 0; i++ {
		if i == 2000 {
			t.Fatal("2000 unread batches later the client still has not told the server to stop")
		}
		consign(t, c, scriptJob(fmt.Sprintf("flood-%d", i), "echo flood\n"))
	}

	deadline := time.Now().Add(5 * time.Second)
	for gauge("gateway_longpoll_active") != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("gateway_longpoll_active = %v after the subscriber was cut off: the server's push loop is still running", gauge("gateway_longpoll_active"))
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The consumer finds the buffered batches, then a closed channel without
	// a terminal event: resume by cursor.
	for range events {
	}
}

// TestRefusedEnvelopeIsCountedAtBothDoors signs a request under a foreign CA
// and sends it both ways an envelope reaches the gateway — POSTed, and as the
// hello of a stream. Either way the refusal is a server-signed error reply
// and shows up in the same three series: the verification is counted
// (pki_verify_total), timed (pki_verify_seconds), and its failure attributed
// (gateway_rejected_total{cause="authentication"}).
func TestRefusedEnvelopeIsCountedAtBothDoors(t *testing.T) {
	otherCA, err := pki.NewAuthority("IMPOSTOR")
	if err != nil {
		t.Fatal(err)
	}
	stranger, err := otherCA.IssueUser("Mallory", "ELSEWHERE")
	if err != nil {
		t.Fatal(err)
	}
	doors := []struct {
		name string
		send func(c *protocol.Client) error
	}{
		{"post", func(c *protocol.Client) error {
			return c.Call(context.Background(), "FZJ", protocol.MsgList, protocol.ListRequest{}, nil)
		}},
		// A push subscription has no POST form: the hello is its only door.
		{"hello", func(c *protocol.Client) error {
			_, _, err := c.SubscribeStream(context.Background(), "FZJ", protocol.SubscribeRequest{})
			return err
		}},
	}
	for _, door := range doors {
		t.Run(door.name, func(t *testing.T) {
			s := newSite(t)
			// The stranger trusts the site's CA (it verifies the refusal) but
			// signs with a certificate the site's CA never issued.
			c := protocol.NewClient(s.net, stranger, s.ca, s.reg)
			defer c.Close()

			err := door.send(c)
			var refused *protocol.ErrorReply
			if !errors.As(err, &refused) || refused.Code != "authentication" {
				t.Fatalf("foreign-CA %s: err = %v, want the server's signed authentication refusal", door.name, err)
			}
			snap := s.gw.Telemetry().Snapshot()
			if got := snap.Total("pki_verify_total"); got != 1 {
				t.Errorf("pki_verify_total = %v, want 1", got)
			}
			if got := snap.HistCount("pki_verify_seconds"); got != 1 {
				t.Errorf("pki_verify_seconds observations = %d, want 1", got)
			}
			if p, _ := snap.Get("gateway_rejected_total", "cause", "authentication"); p.Value != 1 {
				t.Errorf(`gateway_rejected_total{cause="authentication"} = %v, want 1`, p.Value)
			}
			if got := snap.Total("gateway_stream_hellos_total"); got != 0 {
				t.Errorf("gateway_stream_hellos_total = %v for a refused caller, want 0", got)
			}
		})
	}
}
