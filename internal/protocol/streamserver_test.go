package protocol

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"unicore/internal/core"
	"unicore/internal/pki"
)

// subBackend serves what a subscription needs and nothing else: the hello,
// and event batches that owe every subscription one event per round.
type subBackend struct {
	StreamBackend // any other op is a nil dereference: the test sends none
	ca            *pki.Authority

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

func (b *subBackend) StreamEvents(ctx context.Context, _ core.DN, _ bool, req SubscribeRequest) (EventsReply, error) {
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
		ServeStreamConn(context.Background(), server, be, StreamServerOpts{Cred: r.server, Usite: "FZJ"})
		close(served)
	}()
	defer func() {
		conn.Close()
		<-served
	}()
	conn.SetDeadline(time.Now().Add(30 * time.Second))

	hello, err := Seal(r.user, MsgHello, HelloRequest{Usite: "FZJ", Nonce: "n"})
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(conn, FrameHello, 0, hello); err != nil {
		t.Fatal(err)
	}
	if f, err := readFrame(conn); err != nil || f.Kind != FrameHelloOK {
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
			f, err := readFrame(conn)
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
	f, err := readFrame(conn)
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
		f, err := readFrame(conn)
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
