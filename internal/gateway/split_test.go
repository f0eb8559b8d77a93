package gateway

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"unicore/internal/ajo"
	"unicore/internal/protocol"
	"unicore/internal/uudb"
)

// splitSite wires a site in the §5.2 firewall configuration: the Front
// relays over a real TCP socket on a site-selectable port to the Inner.
func splitSite(t *testing.T) (*site, *Front, func()) {
	t.Helper()
	s := newSite(t)

	inner := NewInner(s.gw)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback listener available: %v", err)
	}
	go inner.Serve(l)

	frontCred, err := s.ca.IssueServer("front.fzj", "gw.fzj")
	if err != nil {
		t.Fatalf("IssueServer: %v", err)
	}
	front, err := NewFront(frontCred, s.ca, TCPDial(l.Addr().String()))
	if err != nil {
		t.Fatalf("NewFront: %v", err)
	}
	// Replace the combined gateway with the split front at the same host.
	s.net.Register("gw.fzj", front)
	cleanup := func() {
		front.Close()
		inner.Close()
	}
	return s, front, cleanup
}

func TestSplitEndToEnd(t *testing.T) {
	s, _, cleanup := splitSite(t)
	defer cleanup()

	c := s.client(s.alice)
	id := consign(t, c, scriptJob("split", "echo through the firewall\n"))
	s.clock.RunUntilIdle(100000)

	var poll protocol.PollReply
	if err := c.Call(context.Background(), "FZJ", protocol.MsgPoll, protocol.PollRequest{Job: id}, &poll); err != nil {
		t.Fatalf("poll: %v", err)
	}
	if poll.Summary.Status != ajo.StatusSuccessful {
		t.Fatalf("status = %s, want SUCCESSFUL", poll.Summary.Status)
	}
}

func TestSplitRejectsAtTheFirewall(t *testing.T) {
	s, front, cleanup := splitSite(t)
	defer cleanup()

	// An unauthenticated envelope is answered at the front; it must never
	// reach the inner gateway.
	before := s.gw.Stats().Requests
	reply := front.Handle([]byte("garbage"))
	tp, _, _, _, err := protocol.Open(s.ca, reply)
	if err != nil || tp != protocol.MsgError {
		t.Fatalf("front reply = %s (err %v), want sealed error", tp, err)
	}
	if after := s.gw.Stats().Requests; after != before {
		t.Fatalf("unauthenticated request crossed the firewall (%d -> %d)", before, after)
	}
}

func TestSplitSurvivesInnerReconnect(t *testing.T) {
	s, front, cleanup := splitSite(t)
	defer cleanup()

	c := s.client(s.alice)
	if err := c.Call(context.Background(), "FZJ", protocol.MsgList, protocol.ListRequest{}, &protocol.ListReply{}); err != nil {
		t.Fatalf("first call: %v", err)
	}
	// Drop the pooled connection behind the front's back; the next call must
	// transparently redial.
	front.mu.Lock()
	front.idle[0].Close()
	front.mu.Unlock()
	if err := c.Call(context.Background(), "FZJ", protocol.MsgList, protocol.ListRequest{}, &protocol.ListReply{}); err != nil {
		t.Fatalf("call after reconnect: %v", err)
	}
}

// TestSplitHeldSubscribeDelaysNobodyElse holds one user's long-poll through
// the front and checks that another user's consign and poll go straight
// through: each in-flight relay has an Inner connection of its own.
func TestSplitHeldSubscribeDelaysNobodyElse(t *testing.T) {
	s, _, cleanup := splitSite(t)
	defer cleanup()
	bob, err := s.ca.IssueUser("Bob Bauer", "FZJ")
	if err != nil {
		t.Fatalf("IssueUser: %v", err)
	}
	s.users.AddUser(bob.DN(), "bob@fzj.de")
	if err := s.users.AddMapping(bob.DN(), "T3E", uudb.Login{UID: "bbaue", Groups: []string{"zam"}}); err != nil {
		t.Fatalf("AddMapping: %v", err)
	}
	ctx := context.Background()
	alice := s.client(s.alice)
	id := consign(t, alice, scriptJob("held", "echo held\n"))
	var seen protocol.EventsReply
	if err := alice.Call(ctx, "FZJ", protocol.MsgSubscribe, protocol.SubscribeRequest{Job: id}, &seen); err != nil {
		t.Fatalf("events: %v", err)
	}

	// The virtual clock stands still, so nothing new happens to the job and
	// the Inner holds this subscribe for the full minute unless released.
	held := make(chan error, 1)
	go func() {
		var next protocol.EventsReply
		held <- alice.Call(ctx, "FZJ", protocol.MsgSubscribe,
			protocol.SubscribeRequest{Job: id, Cursor: seen.Cursor, WaitMs: 60_000}, &next)
	}()
	for s.gw.Stats().ByType[protocol.MsgSubscribe] < 2 {
		time.Sleep(time.Millisecond) // until the Inner has the subscribe in hand
	}

	// Should bob's calls queue behind the hold after all, this lets them out.
	unblock := time.AfterFunc(10*time.Second, func() { s.clock.RunUntilIdle(100000) })
	start := time.Now()
	c := s.client(bob)
	own := consign(t, c, scriptJob("free", "echo free\n"))
	if err := c.Call(ctx, "FZJ", protocol.MsgPoll, protocol.PollRequest{Job: own}, &protocol.PollReply{}); err != nil {
		t.Fatalf("bob's poll: %v", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Errorf("bob's consign and poll took %v, behind alice's held subscribe", waited)
	}
	unblock.Stop()
	s.clock.RunUntilIdle(100000) // the job runs, its events release the subscribe
	if err := <-held; err != nil {
		t.Fatalf("held subscribe: %v", err)
	}
}

func TestSplitInnerDown(t *testing.T) {
	s := newSite(t)
	frontCred, err := s.ca.IssueServer("front.fzj", "gw.fzj")
	if err != nil {
		t.Fatalf("IssueServer: %v", err)
	}
	front, err := NewFront(frontCred, s.ca, TCPDial("127.0.0.1:1")) // nothing listens there
	if err != nil {
		t.Fatalf("NewFront: %v", err)
	}
	s.net.Register("gw.fzj", front)
	c := s.client(s.alice)
	err = c.Call(context.Background(), "FZJ", protocol.MsgList, protocol.ListRequest{}, &protocol.ListReply{})
	if err == nil {
		t.Fatal("call succeeded with the inner server down")
	}
	if !strings.Contains(err.Error(), "relay") {
		t.Fatalf("err = %v, want a relay failure", err)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	payload := []byte("framed payload")
	errc := make(chan error, 1)
	go func() { errc <- writeFrame(a, payload) }()
	got, err := readFrame(b)
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	if string(got) != string(payload) {
		t.Fatalf("frame = %q, want %q", got, payload)
	}
	if err := <-errc; err != nil {
		t.Fatalf("writeFrame: %v", err)
	}
}

func TestFrameTooLarge(t *testing.T) {
	var sink net.Conn
	a, b := net.Pipe()
	sink = a
	defer a.Close()
	defer b.Close()
	_ = sink
	big := make([]byte, maxFrame+1)
	if err := writeFrame(a, big); err == nil {
		t.Fatal("oversized frame written")
	}
}
