package gateway

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"unicore/internal/ajo"
	"unicore/internal/core"
	"unicore/internal/pki"
	"unicore/internal/protocol"
)

// tamper is a transport that interferes with what the server sends back,
// after the server has done the work.
type tamper struct {
	protocol.Transport
	// loseReply loses the next reply: the stream is severed in place of
	// delivering its next reply frame.
	loseReply atomic.Bool
	// mangle, when set, rewrites every frame a stream delivers after its
	// hello-ok.
	mangle func(protocol.Frame) protocol.Frame
}

func (tr *tamper) OpenStream(ctx context.Context, baseURL string) (net.Conn, error) {
	conn, err := tr.Transport.OpenStream(ctx, baseURL)
	if err != nil {
		return nil, err
	}
	return &tamperedConn{Conn: conn, tr: tr}, nil
}

// tamperedConn reframes the server-to-client direction of a stream so the
// transport can act on whole frames. Read is the client's read loop's alone.
type tamperedConn struct {
	net.Conn
	tr      *tamper
	in, out []byte // read but not yet a whole frame; framed for the client
}

func (c *tamperedConn) Read(p []byte) (int, error) {
	for len(c.out) == 0 {
		f, n, err := protocol.DecodeFrame(c.in)
		if errors.Is(err, protocol.ErrFrameShort) {
			buf := make([]byte, 32<<10)
			m, rerr := c.Conn.Read(buf)
			if m == 0 && rerr != nil {
				return 0, rerr
			}
			c.in = append(c.in, buf[:m]...)
			continue
		}
		if err != nil {
			return 0, err
		}
		c.in = c.in[n:]
		if f.Kind != protocol.FrameHelloOK {
			if c.tr.loseReply.CompareAndSwap(true, false) {
				c.Conn.Close()
				return 0, io.ErrClosedPipe
			}
			if c.tr.mangle != nil {
				f = c.tr.mangle(f)
			}
		}
		c.out = protocol.AppendFrame(nil, f.Kind, f.ID, f.Payload)
	}
	n := copy(p, c.out)
	c.out = c.out[n:]
	return n, nil
}

// TestWrongReplyOutIsTheCallsError: handing Call a replyOut of another op's
// reply type is the caller's bug and comes back as the call's error. It must
// not be mistaken for an undecodable reply — which would drop a healthy
// stream and run the request a second time.
func TestWrongReplyOutIsTheCallsError(t *testing.T) {
	s := newSite(t)
	c := s.client(s.alice)
	defer c.Close()
	id := consign(t, c, scriptJob("held", "echo held\n"))
	total := func(name string) float64 { return s.gw.Telemetry().Snapshot().Total(name) }

	frames := total("gateway_stream_frames_total")
	var wrong protocol.PollReply
	err := c.Call(context.Background(), "FZJ", protocol.MsgControl, protocol.ControlRequest{Job: id, Op: ajo.OpHold}, &wrong)
	if err == nil || !strings.Contains(err.Error(), "reply out parameter") {
		t.Fatalf("control into a *PollReply: err = %v, want the out-parameter error", err)
	}
	if got := total("gateway_stream_frames_total") - frames; got != 1 {
		t.Errorf("the call sent %v frames, want 1", got)
	}
	// The request itself ran, once, and the stream is the one the hello opened.
	var right protocol.ControlReply
	if err := c.Call(context.Background(), "FZJ", protocol.MsgControl, protocol.ControlRequest{Job: id, Op: ajo.OpResume}, &right); err != nil || !right.OK {
		t.Fatalf("resume after the hold: %+v, %v", right, err)
	}
	if got := total("gateway_stream_hellos_total"); got != 1 {
		t.Errorf("%v stream hellos, want 1: the stream was dropped", got)
	}
}

// TestUndecodableReplyDropsTheStream is the other half: bytes the row's
// decoder rejects poison the connection, not the call — the stream is
// dropped and the request replayed on a fresh one, within the retry budget.
func TestUndecodableReplyDropsTheStream(t *testing.T) {
	s := newSite(t)
	tr := &tamper{Transport: s.net}
	c := protocol.NewClient(tr, s.alice, s.ca, s.reg)
	defer c.Close()
	id := consign(t, c, scriptJob("garbled", "echo garbled\n"))

	// Garble the first reply only: the replay's answer comes through.
	var garbled atomic.Bool
	tr.mangle = func(f protocol.Frame) protocol.Frame {
		if garbled.CompareAndSwap(false, true) {
			f.Payload = []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}
		}
		return f
	}
	var list protocol.ListReply
	if err := c.Call(context.Background(), "FZJ", protocol.MsgList, protocol.ListRequest{}, &list); err != nil {
		t.Fatalf("list across a garbled reply: %v", err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].Job != id {
		t.Fatalf("list = %+v, want the one job %s", list.Jobs, id)
	}
	snap := s.gw.Telemetry().Snapshot()
	if got := snap.Total("gateway_stream_hellos_total"); got != 2 {
		t.Errorf("%v stream hellos, want 2: the poisoned stream was kept", got)
	}
	if p, _ := snap.Get("gateway_stream_frames_total", "kind", "call"); p.Value != 3 {
		t.Errorf("%v call frames, want 3: the consign, the list and its one replay", p.Value)
	}
	if got := s.gw.Stats().Requests; got != 0 {
		t.Errorf("%d envelopes reached the gateway, want none", got)
	}

	// A peer that garbles every reply exhausts the budget: the error names it.
	tr.mangle = func(f protocol.Frame) protocol.Frame {
		f.Payload = []byte{0xFF}
		return f
	}
	err := c.Call(context.Background(), "FZJ", protocol.MsgList, protocol.ListRequest{}, &list)
	if err == nil || !strings.Contains(err.Error(), "failed after 3 attempts") {
		t.Fatalf("list against a peer that garbles every reply: err = %v, want the retry budget spent", err)
	}
}

// lossyEnvelopes is the envelope door behind a link that loses the next reply
// when lose is set: the request reaches the gateway, its answer does not come
// back, and the sender POSTs it again.
type lossyEnvelopes struct {
	envelopeDoor
	lose *atomic.Bool
}

func (d lossyEnvelopes) Call(ctx context.Context, usite core.Usite, t protocol.MsgType, payload, replyOut any) error {
	if d.lose.CompareAndSwap(true, false) {
		d.envelopeDoor.Call(ctx, usite, t, payload, nil)
	}
	return d.envelopeDoor.Call(ctx, usite, t, payload, replyOut)
}

// TestLostReplyReplaysLikeTheEnvelopeRetry loses the reply to a mutating op
// after the server has run it — the stream dies under the in-flight call, or
// a POST's response never arrives and the envelope is sent again — and
// requires both doors to recover the same way: the request runs once more,
// the caller gets that second answer, and the site is left in the same state.
// For a resume that means the answer is the replay's "not held"; for a
// put-open, one orphaned upload the spool's sweep collects. Neither door may
// do better or worse than the other.
func TestLostReplyReplaysLikeTheEnvelopeRetry(t *testing.T) {
	type observed struct {
		Resume  protocol.ControlReply
		Err     string
		Status  ajo.Status
		Events  int
		Opened  protocol.PutOpenReply
		Uploads int
	}
	run := func(t *testing.T, streams bool) observed {
		s := newSite(t)
		tr := &tamper{Transport: s.net}
		var c door = lossyEnvelopes{s.envelopes(s.alice), &tr.loseReply}
		if streams {
			client := protocol.NewClient(tr, s.alice, s.ca, s.reg)
			defer client.Close()
			c = client
		}
		ctx := context.Background()
		id := consign(t, c, scriptJob("replayed", "echo replayed\n"))
		if err := c.Call(ctx, "FZJ", protocol.MsgControl, protocol.ControlRequest{Job: id, Op: ajo.OpHold}, nil); err != nil {
			t.Fatalf("hold: %v", err)
		}
		var got observed
		tr.loseReply.Store(true)
		if err := c.Call(ctx, "FZJ", protocol.MsgControl, protocol.ControlRequest{Job: id, Op: ajo.OpResume}, &got.Resume); err != nil {
			got.Err = err.Error()
		}
		tr.loseReply.Store(true)
		if err := c.Call(ctx, "FZJ", protocol.MsgPutOpen, protocol.PutOpenRequest{Vsite: "T3E", Name: "in.dat"}, &got.Opened); err != nil {
			t.Fatalf("put-open across a lost reply: %v", err)
		}
		if tr.loseReply.Load() {
			t.Fatal("no reply was lost: the fault never fired")
		}
		if streams {
			if posts := s.gw.Stats().Requests; posts != 0 {
				t.Errorf("%d envelopes reached the gateway; one replay on a fresh stream should do", posts)
			}
			if hellos := s.gw.Telemetry().Snapshot().Total("gateway_stream_hellos_total"); hellos != 3 {
				t.Errorf("%v stream hellos, want 3: one redial per severed stream", hellos)
			}
		}
		s.clock.RunUntilIdle(100000)
		poll, err := s.njs.Poll(s.alice.DN(), false, id)
		if err != nil {
			t.Fatalf("Poll: %v", err)
		}
		evs, err := s.njs.Events(s.alice.DN(), false, protocol.SubscribeRequest{Job: id})
		if err != nil {
			t.Fatalf("Events: %v", err)
		}
		got.Status, got.Events, got.Uploads = poll.Summary.Status, len(evs.Events), len(s.njs.StagedHandles())
		if got.Opened.Handle == "" {
			t.Error("put-open returned no handle")
		}
		got.Opened.Handle = "" // minted per open
		return got
	}
	frames, envelopes := run(t, true), run(t, false)
	if !reflect.DeepEqual(frames, envelopes) {
		t.Fatalf("a lost reply leaves\n  over the stream: %+v\n  over envelopes:  %+v", frames, envelopes)
	}
	if frames.Resume.OK || frames.Status != ajo.StatusSuccessful || frames.Uploads != 2 {
		t.Fatalf("observed %+v, want the replayed resume refused, the job run, and two uploads opened", frames)
	}
}

// TestStreamKillReconnectIdempotent severs the persistent v3 connection in
// the middle of a pipelined burst of calls and asserts the client absorbs it:
// in-flight calls are replayed on a fresh stream, a re-consign of the same ConsignID after the kill is answered with the same
// job — no duplicate admission — and the workload completes.
func TestStreamKillReconnectIdempotent(t *testing.T) {
	s := newSite(t)
	flaky := protocol.NewFlaky(s.net, 0, 1)
	c := protocol.NewClient(flaky, s.alice, s.ca, s.reg)
	defer c.Close()

	job := scriptJob("kill", "echo survive\n")
	id := consign(t, c, job)

	// Pipelined polls racing the kill: half are in flight when the stream
	// dies; every one must still return, replayed on a reconnect.
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
		t.Fatal("no live stream to kill")
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

	// Never reading events is the stall. Every consign appends an admitted
	// event, so every round of the push loop emits a batch; the cut-off comes
	// once the client-side buffers are full.
	for i := 0; s.gauge("gateway_stream_frames_total", "kind", "sub-stop") == 0; i++ {
		if i == 2000 {
			t.Fatal("2000 unread batches later the client still has not told the server to stop")
		}
		consign(t, c, scriptJob(fmt.Sprintf("flood-%d", i), "echo flood\n"))
	}

	deadline := time.Now().Add(5 * time.Second)
	for s.gauge("gateway_longpoll_active") != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("gateway_longpoll_active = %v after the subscriber was cut off: the server's push loop is still running", s.gauge("gateway_longpoll_active"))
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The consumer finds the buffered batches, then a closed channel without
	// a terminal event: resume by cursor.
	for range events {
	}
}

// TestRefusedEnvelopeIsCountedAtBothDoors signs a request under a foreign CA
// and sends it both ways an envelope reaches the gateway — sealed into
// HandleContext as a POST is, and as the hello of a stream. Either way the refusal is a server-signed error reply
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
		send func(s *site) error
	}{
		{"post", func(s *site) error {
			return s.envelopes(stranger).Call(context.Background(), "FZJ", protocol.MsgList, protocol.ListRequest{}, nil)
		}},
		{"hello", func(s *site) error {
			// The stranger trusts the site's CA (it verifies the refusal) but
			// signs with a certificate the site's CA never issued.
			c := protocol.NewClient(s.net, stranger, s.ca, s.reg)
			defer c.Close()
			_, _, err := c.SubscribeStream(context.Background(), "FZJ", protocol.SubscribeRequest{})
			return err
		}},
	}
	for _, door := range doors {
		t.Run(door.name, func(t *testing.T) {
			s := newSite(t)
			err := door.send(s)
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
