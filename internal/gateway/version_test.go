package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"

	"unicore/internal/protocol"
)

// restamp rewrites an envelope's protocol version. The version rides outside
// the signed payload, so the signature still verifies: only the receiver's
// version check can refuse the result.
func restamp(t *testing.T, envelope []byte, version int) []byte {
	t.Helper()
	var env protocol.Envelope
	if err := json.Unmarshal(envelope, &env); err != nil {
		t.Fatalf("restamp: not an envelope: %v", err)
	}
	env.Version = version
	out, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// foreignVersion is the transport of a stock client talking to a peer from
// another wire generation: every envelope it carries — a POST body, or with
// hello set the hello that opens a stream — goes out restamped at version.
// trips counts the round trips the client made through it.
type foreignVersion struct {
	t       *testing.T
	base    protocol.Transport
	version int
	hello   bool
	trips   atomic.Int32
}

func (f *foreignVersion) Post(ctx context.Context, baseURL string, body []byte) ([]byte, error) {
	f.trips.Add(1)
	return f.base.Post(ctx, baseURL, restamp(f.t, body, f.version))
}

func (f *foreignVersion) OpenStream(ctx context.Context, baseURL string) (net.Conn, error) {
	conn, err := f.base.OpenStream(ctx, baseURL)
	if err != nil || !f.hello {
		return conn, err
	}
	f.trips.Add(1)
	return &helloRestamper{Conn: conn, f: f}, nil
}

// helloRestamper restamps the first frame written to the stream — the
// FrameHello, which the client sends as one Write.
type helloRestamper struct {
	net.Conn
	f    *foreignVersion
	done bool
}

func (h *helloRestamper) Write(b []byte) (int, error) {
	if h.done {
		return h.Conn.Write(b)
	}
	h.done = true
	frame, n, err := protocol.DecodeFrame(b)
	if err != nil || n != len(b) || frame.Kind != protocol.FrameHello {
		h.f.t.Errorf("first stream write is not one hello frame (kind %#x, %d of %d bytes, err %v)", frame.Kind, n, len(b), err)
		return h.Conn.Write(b)
	}
	out := protocol.AppendFrame(nil, frame.Kind, frame.ID, restamp(h.f.t, frame.Payload, h.f.version))
	if _, err := h.Conn.Write(out); err != nil {
		return 0, err
	}
	return len(b), nil
}

// TestForeignVersionRefused pins the one version policy at every door an
// envelope can come in by: posted to the combined gateway, posted to the
// firewall-split Front, or sent as a stream hello to either, an envelope at
// any version but protocol.Version is refused with a server-signed error. A
// stock client surfaces that as ErrBadVersion after exactly one round trip —
// it neither re-seals at another version nor redials a refused hello.
func TestForeignVersionRefused(t *testing.T) {
	doors := []struct {
		name         string
		split, hello bool
	}{
		{name: "gateway"},
		{name: "front", split: true},
		{name: "hello", hello: true},
		{name: "front-hello", split: true, hello: true},
	}
	for _, door := range doors {
		for _, version := range []int{1, 2, protocol.Version + 1} {
			t.Run(fmt.Sprintf("%s/v%d", door.name, version), func(t *testing.T) {
				var s *site
				if door.split {
					s, _, _ = splitSite(t)
				} else {
					s = newSite(t)
				}
				tr := &foreignVersion{t: t, base: s.net, version: version, hello: door.hello}
				var err error
				if door.hello {
					// The hello door's client dials the stream, as every
					// stock client does.
					c := protocol.NewClient(tr, s.alice, s.ca, s.reg)
					defer c.Close()
					err = c.Call(context.Background(), "FZJ", protocol.MsgPoll, protocol.PollRequest{Job: "FZJ-000001"}, nil)
				} else {
					// The POST doors take a hand-sealed envelope.
					env, serr := protocol.Seal(s.alice, protocol.MsgList, protocol.ListRequest{})
					if serr != nil {
						t.Fatal(serr)
					}
					reply, perr := tr.Post(context.Background(), "https://gw.fzj", env)
					if perr != nil {
						t.Fatal(perr)
					}
					err = openEnvelopeReply(s.ca, protocol.MsgList, reply, nil)
				}
				if !errors.Is(err, protocol.ErrBadVersion) {
					t.Fatalf("call at v%d: err = %v, want ErrBadVersion", version, err)
				}
				// An *ErrorReply was opened from an envelope verified against
				// the CA and the server role.
				var refused *protocol.ErrorReply
				if !errors.As(err, &refused) {
					t.Fatalf("call at v%d: err = %v (%T), want the server's signed *ErrorReply", version, err, err)
				}
				if got := tr.trips.Load(); got != 1 {
					t.Fatalf("client made %d round trips against a v%d peer, want exactly 1", got, version)
				}
				if door.split {
					if n := s.gw.Telemetry().Snapshot().Total("pki_verify_total"); n != 0 {
						t.Fatalf("%v foreign-version envelopes crossed the firewall", n)
					}
				} else if n := s.gw.Stats().ByFailure["authentication"]; n != 1 {
					t.Fatalf("gateway counted %d authentication rejections, want 1", n)
				}
			})
		}
	}
}
