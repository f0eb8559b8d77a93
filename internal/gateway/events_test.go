package gateway

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"unicore/internal/protocol"
)

// subscribeEnvelope seals a MsgSubscribe request for a site user.
func (s *site) subscribeEnvelope(t *testing.T, req protocol.SubscribeRequest) []byte {
	t.Helper()
	body, err := protocol.Seal(s.alice, protocol.MsgSubscribe, req)
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	return body
}

// openEvents decodes an events reply envelope.
func (s *site) openEvents(t *testing.T, data []byte) protocol.EventsReply {
	t.Helper()
	mt, raw, _, _, err := protocol.Open(s.ca, data)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if mt == protocol.MsgError {
		var er protocol.ErrorReply
		_ = json.Unmarshal(raw, &er)
		t.Fatalf("error reply: %v", &er)
	}
	if mt != protocol.MsgEventsReply {
		t.Fatalf("reply type = %s, want %s", mt, protocol.MsgEventsReply)
	}
	var reply protocol.EventsReply
	if err := json.Unmarshal(raw, &reply); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return reply
}

// TestSubscribeLongPollWakesOnEvent holds a user-stream subscription open
// until a consignment appends the first events, then returns them coalesced.
func TestSubscribeLongPollWakesOnEvent(t *testing.T) {
	s := newSite(t)
	env := s.subscribeEnvelope(t, protocol.SubscribeRequest{WaitMs: 30_000})

	replies := make(chan protocol.EventsReply, 1)
	go func() {
		replies <- s.openEvents(t, s.gw.HandleContext(context.Background(), env))
	}()
	select {
	case r := <-replies:
		t.Fatalf("long-poll returned before any event: %+v", r)
	case <-time.After(20 * time.Millisecond):
	}

	id := consign(t, s.client(s.alice), scriptJob("wake", "echo hi\n"))
	var reply protocol.EventsReply
	select {
	case reply = <-replies:
	case <-time.After(5 * time.Second):
		t.Fatal("long-poll never woke after the consignment")
	}
	if len(reply.Events) == 0 {
		t.Fatal("woken long-poll returned no events")
	}
	if reply.Events[0].Job != id || reply.Events[0].Type != "admitted" {
		t.Fatalf("first event = %+v, want admitted %s", reply.Events[0], id)
	}
}

// TestSubscribeLongPollDeadline returns an empty batch once the requested
// wall-clock wait expires without events.
func TestSubscribeLongPollDeadline(t *testing.T) {
	s := newSite(t)
	env := s.subscribeEnvelope(t, protocol.SubscribeRequest{WaitMs: 30})
	start := time.Now()
	reply := s.openEvents(t, s.gw.HandleContext(context.Background(), env))
	if len(reply.Events) != 0 {
		t.Fatalf("idle subscription returned %d events", len(reply.Events))
	}
	if time.Since(start) < 25*time.Millisecond {
		t.Fatal("long-poll returned before its deadline")
	}
}

// TestSubscribeLongPollCancellation releases the held request as soon as the
// caller's context is cancelled — the propagation path of Session contexts.
func TestSubscribeLongPollCancellation(t *testing.T) {
	s := newSite(t)
	env := s.subscribeEnvelope(t, protocol.SubscribeRequest{WaitMs: 60_000})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan protocol.EventsReply, 1)
	go func() { done <- s.openEvents(t, s.gw.HandleContext(ctx, env)) }()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case reply := <-done:
		if len(reply.Events) != 0 {
			t.Fatalf("cancelled subscription returned %d events", len(reply.Events))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancel did not release the long-poll")
	}
}
