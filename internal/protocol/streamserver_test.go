package protocol

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"unicore/internal/ajo"
	"unicore/internal/core"
	"unicore/internal/pki"
)

// subBackend serves what a subscription needs and nothing else: the hello,
// and event batches that owe every subscription one event per round.
type subBackend struct {
	ca *pki.Authority

	mu    sync.Mutex
	round uint64        // every job's events run up to this seq
	moved chan struct{} // closed and replaced when round advances
}

func (b *subBackend) StreamHello(hello []byte) (Opened, []byte) {
	o, err := OpenTraced(b.ca, hello)
	if err != nil {
		panic(err)
	}
	return o, nil
}

// handlers is the subscription backend's table: event batches, and no other
// op.
func (b *subBackend) handlers() Handlers {
	h := Handlers{}
	Handle(h, OpSubscribe, b.events)
	return h
}

func (b *subBackend) events(ctx context.Context, _ core.DN, _ bool, req SubscribeRequest) (EventsReply, error) {
	for {
		b.mu.Lock()
		round, moved := b.round, b.moved
		b.mu.Unlock()
		if seq := req.Cursor + 1; seq <= round {
			return EventsReply{Cursor: seq, Events: []JobEvent{{Job: req.Job, Seq: seq}}}, nil
		}
		select {
		case <-ctx.Done():
			return EventsReply{}, ctx.Err()
		case <-moved:
		}
	}
}

func (b *subBackend) advance() {
	b.mu.Lock()
	b.round++
	close(b.moved)
	b.moved = make(chan struct{})
	b.mu.Unlock()
}

// TestStreamSubscriptionOverload is maxStreamSubs' defined behaviour: the
// subscription past the bound is refused with a bad-frame error under its own
// ID, the ones within it keep delivering, and a stopped subscription frees
// its slot for a new one.
func TestStreamSubscriptionOverload(t *testing.T) {
	r := newRig(t)
	be := &subBackend{ca: r.ca, moved: make(chan struct{})}
	conn, server := net.Pipe()
	served := make(chan struct{})
	go func() {
		ServeStreamConn(context.Background(), server, be, be.handlers(), StreamServerOpts{Cred: r.server, Usite: "FZJ"})
		close(served)
	}()
	defer func() {
		conn.Close()
		<-served
	}()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	var hdr [frameHeaderLen]byte

	hello, err := Seal(r.user, MsgHello, HelloRequest{Usite: "FZJ", Nonce: "n"})
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(conn, FrameHello, 0, hello); err != nil {
		t.Fatal(err)
	}
	if f, err := readFrame(conn, &hdr, MaxFramePayload); err != nil || f.Kind != FrameHelloOK {
		t.Fatalf("hello answered with kind %#x, %v", f.Kind, err)
	}
	sub := func(id uint64) {
		t.Helper()
		body := mustEncode(binSub{SubscribeRequest: SubscribeRequest{Job: core.JobID(fmt.Sprintf("J-%d", id))}})
		if err := writeFrame(conn, FrameSub, id, body); err != nil {
			t.Fatal(err)
		}
	}
	// round reads one batch from each of the want subscriptions and requires
	// it to hold that subscription's own job at seq.
	round := func(seq uint64, want map[uint64]bool) {
		t.Helper()
		got := make(map[uint64]bool)
		for len(got) < len(want) {
			f, err := readFrame(conn, &hdr, MaxFramePayload)
			if err != nil {
				t.Fatalf("round %d: %d of %d subscriptions delivered, then %v", seq, len(got), len(want), err)
			}
			var evs binEvents
			if f.Kind != FrameEvents || !want[f.ID] || got[f.ID] || decode(f.Payload, &evs) != nil {
				t.Fatalf("round %d: frame kind %#x for subscription %d (already delivered: %v)", seq, f.Kind, f.ID, got[f.ID])
			}
			if len(evs.Events) != 1 || evs.Events[0].Seq != seq || evs.Events[0].Job != core.JobID(fmt.Sprintf("J-%d", f.ID)) || evs.End {
				t.Fatalf("round %d: subscription %d delivered %+v", seq, f.ID, evs)
			}
			got[f.ID] = true
		}
	}

	open := make(map[uint64]bool)
	for id := uint64(1); id <= maxStreamSubs; id++ {
		sub(id)
		open[id] = true
	}
	over := uint64(maxStreamSubs + 1)
	sub(over)
	f, err := readFrame(conn, &hdr, MaxFramePayload)
	if err != nil {
		t.Fatal(err)
	}
	if code, msg := parseStreamError(f.Payload); f.Kind != FrameError || f.ID != over || code != StreamErrBadFrame {
		t.Fatalf("subscription %d answered with kind %#x id %d code %d %q, want a bad-frame error", over, f.Kind, f.ID, code, msg)
	}
	be.advance()
	round(1, open)

	// One stop frees one slot. The slot is released by the subscription's own
	// goroutine once its long-poll has returned, so the new subscription may be
	// refused a few more times first; admitted, it is owed round 1 at once.
	if err := writeFrame(conn, FrameSubStop, 1, nil); err != nil {
		t.Fatal(err)
	}
	delete(open, 1)
	for id := over + 1; ; id++ {
		sub(id)
		f, err := readFrame(conn, &hdr, MaxFramePayload)
		if err != nil {
			t.Fatalf("no subscription admitted after a stop: %v", err)
		}
		if f.Kind == FrameEvents && f.ID == id {
			open[id] = true
			break
		}
		if code, _ := parseStreamError(f.Payload); f.Kind != FrameError || f.ID != id || code != StreamErrBadFrame {
			t.Fatalf("subscription %d after a stop answered with kind %#x id %d code %d", id, f.Kind, f.ID, code)
		}
		time.Sleep(time.Millisecond)
	}
	if len(open) != maxStreamSubs {
		t.Fatalf("%d subscriptions open, want %d", len(open), maxStreamSubs)
	}
	be.advance()
	round(2, open)
}

// TestHelloFrameIsBoundedBeforeAuth sends the stream server and the firewall
// front's splice a bare frame header claiming MaxFramePayload, from a peer
// that never signs anything. Each must close the connection at once, without
// allocating the payload it was promised: the hello is read against
// maxHandshakePayload, not MaxFramePayload.
func TestHelloFrameIsBoundedBeforeAuth(t *testing.T) {
	doors := []struct {
		name  string
		serve func(net.Conn)
	}{
		{"ServeStreamConn", func(c net.Conn) {
			ServeStreamConn(context.Background(), c, &subBackend{}, nil, StreamServerOpts{})
		}},
		{"SpliceStream", func(c net.Conn) {
			SpliceStream(c, func([]byte) (net.Conn, []byte) {
				t.Error("SpliceStream admitted a hello it never read")
				return nil, []byte("refused")
			})
		}},
	}
	var hdr [frameHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFramePayload+9)
	hdr[4] = FrameHello
	const conns = 4
	for _, door := range doors {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for range conns {
			client, server := net.Pipe()
			served := make(chan struct{})
			go func() {
				door.serve(server)
				close(served)
			}()
			go client.Write(hdr[:])
			client.SetReadDeadline(time.Now().Add(time.Second))
			_, err := client.Read(make([]byte, 1))
			client.Close()
			<-served
			if errors.Is(err, os.ErrDeadlineExceeded) {
				t.Errorf("%s: the connection is still open a second after a %d MiB hello header", door.name, MaxFramePayload>>20)
			}
		}
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= conns<<20 {
			t.Errorf("%s: %d hello headers allocated %d KiB, want under 1 MiB each", door.name, conns, grew>>10)
		}
	}
}

// identityBackend answers a poll with the identity its stream bound: the
// caller's DN as the summary's job, Found for a user-role caller.
type identityBackend struct {
	ca     *pki.Authority
	cred   *pki.Credential
	hellos sync.Map // signer and acting-for of every accepted hello
}

func (b *identityBackend) ServeStream(ctx context.Context, conn net.Conn) {
	h := Handlers{}
	Handle(h, OpPoll, identityPoll)
	ServeStreamConn(ctx, conn, b, h, StreamServerOpts{Cred: b.cred, Usite: "FZJ"})
}

func (b *identityBackend) StreamHello(hello []byte) (Opened, []byte) {
	o, err := OpenTraced(b.ca, hello)
	if err != nil {
		refusal, _ := Seal(b.cred, MsgError, ErrorReply{Code: "authentication", Message: err.Error()})
		return o, refusal
	}
	var hr HelloRequest
	_ = json.Unmarshal(o.Payload, &hr)
	n, _ := b.hellos.LoadOrStore(string(o.From)+"|"+string(hr.ActingFor), new(atomic.Int64))
	n.(*atomic.Int64).Add(1)
	return o, nil
}

func identityPoll(_ context.Context, dn core.DN, asServer bool, _ PollRequest) (PollReply, error) {
	return PollReply{Found: !asServer, Summary: ajo.Summary{Job: string(dn)}}, nil
}

// TestActingForBindsEachStreamToItsUser: a server's client relays calls for
// several users at once. Every call on a stream that acts for a user reaches
// the backend as that user in the user role, every plain call as the server
// in the server role, and each (site, user) pair costs one hello however
// many calls share it.
func TestActingForBindsEachStreamToItsUser(t *testing.T) {
	r := newRig(t)
	be := &identityBackend{ca: r.ca, cred: r.server}
	r.net.Register("gw.fzj", be)
	c := NewClient(r.net, r.server, r.ca, r.reg)
	defer c.Close()
	users := []core.DN{"", "CN=Alice", "CN=Bob", "CN=Carol"}
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		user := users[i%len(users)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			var rep PollReply
			if err := DoFor(context.Background(), c, "FZJ", user, OpPoll, PollRequest{Job: "FZJ-000001"}, &rep); err != nil {
				t.Errorf("poll acting for %q: %v", user, err)
				return
			}
			want := user
			if user == "" {
				want = r.server.DN()
			}
			if core.DN(rep.Summary.Job) != want || rep.Found != (user != "") {
				t.Errorf("poll acting for %q reached the backend as %s (user role %v)", user, rep.Summary.Job, rep.Found)
			}
		}()
	}
	wg.Wait()
	for _, user := range users {
		n, ok := be.hellos.Load(string(r.server.DN()) + "|" + string(user))
		if !ok || n.(*atomic.Int64).Load() != 1 {
			t.Errorf("streams acting for %q opened %v hellos, want 1", user, n)
		}
	}
}

// TestUnservedOpIsUnsupported: a server serves the ops its table holds and no
// other. A list call and a subscription to a server whose table holds only a
// poll are each refused with StreamErrUnsupported naming the frame, and the
// poll that follows on the same stream is still served.
func TestUnservedOpIsUnsupported(t *testing.T) {
	r := newRig(t)
	h := Handlers{}
	Handle(h, OpPoll, func(context.Context, core.DN, bool, PollRequest) (PollReply, error) {
		return PollReply{Found: true}, nil
	})
	conn, server := net.Pipe()
	served := make(chan struct{})
	go func() {
		ServeStreamConn(context.Background(), server, r.echoServer(), h, StreamServerOpts{Cred: r.server, Usite: "FZJ"})
		close(served)
	}()
	defer func() {
		conn.Close()
		<-served
	}()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	var hdr [frameHeaderLen]byte
	hello, err := Seal(r.user, MsgHello, HelloRequest{Usite: "FZJ", Nonce: "n"})
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(conn, FrameHello, 0, hello); err != nil {
		t.Fatal(err)
	}
	if f, err := readFrame(conn, &hdr, MaxFramePayload); err != nil || f.Kind != FrameHelloOK {
		t.Fatalf("hello answered with kind %#x, %v", f.Kind, err)
	}
	list, _, err := OpList.encodeRequest(nil, &ListRequest{}, "")
	if err != nil {
		t.Fatal(err)
	}
	refused := []struct {
		kind byte
		body []byte
	}{
		{FrameCall, list},
		{FrameSub, mustEncode(binSub{SubscribeRequest: SubscribeRequest{Job: "FZJ-000001"}})},
	}
	for i, req := range refused {
		id := uint64(i + 1)
		if err := writeFrame(conn, req.kind, id, req.body); err != nil {
			t.Fatal(err)
		}
		f, err := readFrame(conn, &hdr, MaxFramePayload)
		if err != nil {
			t.Fatal(err)
		}
		code, msg := parseStreamError(f.Payload)
		if f.Kind != FrameError || f.ID != id || code != StreamErrUnsupported || !strings.Contains(msg, FrameKindName(req.kind)) {
			t.Errorf("%s frame answered with kind %#x id %d code %d %q, want unsupported naming the frame", FrameKindName(req.kind), f.Kind, f.ID, code, msg)
		}
	}
	poll, _, err := OpPoll.encodeRequest(nil, &PollRequest{Job: "FZJ-000001"}, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(conn, FrameCall, 9, poll); err != nil {
		t.Fatal(err)
	}
	f, err := readFrame(conn, &hdr, MaxFramePayload)
	var rep PollReply
	if err != nil || f.Kind != FrameReply || f.ID != 9 || decode(f.Payload, &rep) != nil || !rep.Found {
		t.Fatalf("the poll after the refusals: kind %#x id %d %+v, %v", f.Kind, f.ID, rep, err)
	}
}
