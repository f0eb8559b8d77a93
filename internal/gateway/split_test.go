package gateway

import (
	"context"
	"errors"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"unicore/internal/ajo"
	"unicore/internal/pki"
	"unicore/internal/protocol"
	"unicore/internal/uudb"
)

// innerSocket is the site-selectable port of a split site: the listener the
// inner gateway is served on, remembering what it accepted so a test can
// take the whole inner process's connections down with it.
type innerSocket struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func (l *innerSocket) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err == nil {
		l.mu.Lock()
		l.conns = append(l.conns, conn)
		l.mu.Unlock()
	}
	return conn, err
}

// crash closes the socket and every connection accepted on it.
func (l *innerSocket) crash() {
	l.Listener.Close()
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, conn := range l.conns {
		conn.Close()
	}
}

// serveInner serves the site's gateway plain on addr, as unicore-njs does.
func serveInner(t *testing.T, s *site, addr string) *innerSocket {
	t.Helper()
	l, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("no loopback listener available: %v", err)
	}
	sock := &innerSocket{Listener: l}
	go http.Serve(sock, s.gw)
	t.Cleanup(sock.crash)
	return sock
}

// splitSite wires a site in the §5.2 firewall configuration: the gateway is
// served on a real TCP socket on a site-selectable port, and the Front takes
// its place at the site's host name.
func splitSite(t *testing.T) (*site, *Front, *innerSocket) {
	t.Helper()
	s := newSite(t)
	sock := serveInner(t, s, "127.0.0.1:0")
	frontCred, err := s.ca.IssueServer("front.fzj", "gw.fzj")
	if err != nil {
		t.Fatalf("IssueServer: %v", err)
	}
	front, err := NewFront(frontCred, s.ca, sock.Addr().String())
	if err != nil {
		t.Fatalf("NewFront: %v", err)
	}
	t.Cleanup(front.Close)
	s.net.Register("gw.fzj", front)
	return s, front, sock
}

// postList POSTs a hand-sealed list request at the site's host: the envelope
// route through whatever is registered there.
func (s *site) postList(ctx context.Context, cred *pki.Credential) error {
	env, err := protocol.Seal(cred, protocol.MsgList, protocol.ListRequest{})
	if err != nil {
		return err
	}
	reply, err := s.net.Post(ctx, "https://gw.fzj", env)
	if err != nil {
		return err
	}
	return openEnvelopeReply(s.ca, protocol.MsgList, reply, nil)
}

func TestSplitEndToEnd(t *testing.T) {
	s, _, _ := splitSite(t)
	c := s.client(s.alice)
	defer c.Close()
	id := consign(t, c, scriptJob("split", "echo through the firewall\n"))
	s.clock.RunUntilIdle(100000)

	var poll protocol.PollReply
	if err := protocol.Do(context.Background(), c, "FZJ", protocol.OpPoll, protocol.PollRequest{Job: id}, &poll); err != nil {
		t.Fatalf("poll: %v", err)
	}
	if poll.Summary.Status != ajo.StatusSuccessful {
		t.Fatalf("status = %s, want SUCCESSFUL", poll.Summary.Status)
	}
	if hellos, posts := s.gauge("gateway_stream_hellos_total", "role", "user"), s.gw.Telemetry().Snapshot().Total("gateway_requests_total"); hellos != 1 || posts != 0 {
		t.Fatalf("inner gateway saw %v stream hellos and %v envelopes, want the one spliced stream", hellos, posts)
	}
}

// TestSplitRejectsAtTheFirewall: nothing unauthenticated crosses, on either
// route. A garbage POST, a hello signed under a foreign CA and a
// software-role hello are each answered by the front with a sealed error, and
// the inner gateway never hears of them.
func TestSplitRejectsAtTheFirewall(t *testing.T) {
	s, _, _ := splitSite(t)
	otherCA, err := pki.NewAuthority("IMPOSTOR")
	if err != nil {
		t.Fatal(err)
	}
	stranger, err := otherCA.IssueUser("Mallory", "ELSEWHERE")
	if err != nil {
		t.Fatal(err)
	}
	software, err := s.ca.IssueSoftware("UNICORE Consortium")
	if err != nil {
		t.Fatal(err)
	}
	hello := func(cred *pki.Credential) error {
		c := protocol.NewClient(s.net, cred, s.ca, s.reg)
		defer c.Close()
		return protocol.Do(context.Background(), c, "FZJ", protocol.OpList, protocol.ListRequest{}, nil)
	}
	attempts := []struct {
		name, code string
		send       func() error
	}{
		{"garbage POST", "authentication", func() error {
			reply, err := s.net.Post(context.Background(), "https://gw.fzj", []byte("garbage"))
			if err != nil {
				return err
			}
			return openEnvelopeReply(s.ca, protocol.MsgList, reply, nil)
		}},
		{"foreign-CA POST", "authentication", func() error { return s.postList(context.Background(), stranger) }},
		{"foreign-CA hello", "authentication", func() error { return hello(stranger) }},
		{"software-role hello", "role", func() error { return hello(software) }},
	}
	for _, a := range attempts {
		err := a.send()
		var refused *protocol.ErrorReply
		if !errors.As(err, &refused) || refused.Code != a.code {
			t.Errorf("%s: err = %v, want the front's sealed %q refusal", a.name, err, a.code)
		}
		snap := s.gw.Telemetry().Snapshot()
		for _, series := range []string{"pki_verify_total", "gateway_stream_conns", "gateway_rejected_total", "gateway_requests_total"} {
			if got := snap.Total(series); got != 0 {
				t.Errorf("%s crossed the firewall: inner %s = %v", a.name, series, got)
			}
		}
	}
}

// TestSplitSurvivesInnerReconnect restarts the inner half between two calls:
// its socket and every connection through it die, a new process listens on
// the same port, and the next call on each route goes through — the client
// redials its stream, net/http redials the front's pooled connection.
func TestSplitSurvivesInnerReconnect(t *testing.T) {
	s, _, sock := splitSite(t)
	ctx := context.Background()
	c := s.client(s.alice)
	defer c.Close()
	calls := func(when string) {
		t.Helper()
		if err := protocol.Do(ctx, c, "FZJ", protocol.OpList, protocol.ListRequest{}, &protocol.ListReply{}); err != nil {
			t.Fatalf("stream call %s: %v", when, err)
		}
		if err := s.postList(ctx, s.alice); err != nil {
			t.Fatalf("POST %s: %v", when, err)
		}
	}
	calls("before the restart")
	sock.crash()
	serveInner(t, s, sock.Addr().String())
	calls("after the restart")
	if hellos := s.gauge("gateway_stream_hellos_total", "role", "user"); hellos != 2 {
		t.Fatalf("inner gateway saw %v stream hellos, want 2: one per inner process", hellos)
	}
}

// TestSplitHeldSubscribeDelaysNobodyElse holds one user's long-poll through
// the front and checks that another user's consign and poll go straight
// through: a held subscribe is its caller's own spliced connection.
func TestSplitHeldSubscribeDelaysNobodyElse(t *testing.T) {
	s, _, _ := splitSite(t)
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
	defer alice.Close()
	id := consign(t, alice, scriptJob("held", "echo held\n"))
	var seen protocol.EventsReply
	if err := protocol.Do(ctx, alice, "FZJ", protocol.OpSubscribe, protocol.SubscribeRequest{Job: id}, &seen); err != nil {
		t.Fatalf("events: %v", err)
	}

	// The virtual clock stands still, so nothing new happens to the job and
	// the inner gateway holds this subscribe for the full minute unless
	// released.
	held := make(chan error, 1)
	go func() {
		var next protocol.EventsReply
		held <- protocol.Do(ctx, alice, "FZJ", protocol.OpSubscribe,
			protocol.SubscribeRequest{Job: id, Cursor: seen.Cursor, WaitMs: 60_000}, &next)
	}()
	for s.gauge("gateway_longpoll_active") < 1 {
		time.Sleep(time.Millisecond) // until the inner gateway has the subscribe in hand
	}

	// Should bob's calls queue behind the hold after all, this lets them out.
	unblock := time.AfterFunc(10*time.Second, func() { s.clock.RunUntilIdle(100000) })
	start := time.Now()
	c := s.client(bob)
	defer c.Close()
	own := consign(t, c, scriptJob("free", "echo free\n"))
	if err := protocol.Do(ctx, c, "FZJ", protocol.OpPoll, protocol.PollRequest{Job: own}, &protocol.PollReply{}); err != nil {
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

// TestSplitAbandonedHoldIsReleased cancels a 60 s held subscribe behind the
// front, on each route, and requires the inner gateway to let go of it with
// the caller instead of parking it until the wait runs out.
func TestSplitAbandonedHoldIsReleased(t *testing.T) {
	s, _, _ := splitSite(t)
	c := s.client(s.alice)
	defer c.Close()
	id := consign(t, c, scriptJob("abandoned", "echo abandoned\n"))
	var seen protocol.EventsReply
	if err := protocol.Do(context.Background(), c, "FZJ", protocol.OpSubscribe, protocol.SubscribeRequest{Job: id}, &seen); err != nil {
		t.Fatalf("events: %v", err)
	}
	hold := protocol.SubscribeRequest{Job: id, Cursor: seen.Cursor, WaitMs: 60_000}
	routes := map[string]func(context.Context) error{
		"stream": func(ctx context.Context) error {
			return protocol.Do(ctx, c, "FZJ", protocol.OpSubscribe, hold, nil)
		},
		"POST": func(ctx context.Context) error {
			env, err := protocol.Seal(s.alice, protocol.MsgSubscribe, hold)
			if err != nil {
				return err
			}
			_, err = s.net.Post(ctx, "https://gw.fzj", env)
			return err
		},
	}
	for name, send := range routes {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- send(ctx) }()
		for s.gauge("gateway_longpoll_active") < 1 {
			time.Sleep(time.Millisecond)
		}
		cancel()
		released := time.Now()
		for s.gauge("gateway_longpoll_active") != 0 {
			if time.Since(released) > time.Second {
				t.Fatalf("%s route: the inner gateway still holds the subscribe 1 s after its caller gave up", name)
			}
			time.Sleep(time.Millisecond)
		}
		// The stream caller gets its cancellation back; the POST's caller is
		// gone, and the front has answered nobody with a sealed relay error.
		if err := <-done; name == "stream" && !errors.Is(err, context.Canceled) {
			t.Errorf("%s route: abandoned hold returned %v, want the cancellation", name, err)
		}
	}
}

func TestSplitInnerDown(t *testing.T) {
	s := newSite(t)
	frontCred, err := s.ca.IssueServer("front.fzj", "gw.fzj")
	if err != nil {
		t.Fatalf("IssueServer: %v", err)
	}
	front, err := NewFront(frontCred, s.ca, "127.0.0.1:1") // nothing listens there
	if err != nil {
		t.Fatalf("NewFront: %v", err)
	}
	s.net.Register("gw.fzj", front)
	c := s.client(s.alice)
	for route, err := range map[string]error{
		"stream": protocol.Do(context.Background(), c, "FZJ", protocol.OpList, protocol.ListRequest{}, &protocol.ListReply{}),
		"POST":   s.postList(context.Background(), s.alice),
	} {
		if err == nil {
			t.Fatalf("%s call succeeded with the inner server down", route)
		}
		if !strings.Contains(err.Error(), "relay") {
			t.Fatalf("%s: err = %v, want a relay failure", route, err)
		}
	}
}
