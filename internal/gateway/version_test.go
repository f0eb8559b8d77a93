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

// helloRewriter is the transport of a stock client whose stream hellos are
// rewritten on the way out — restamped at another wire generation's version,
// say. dials counts the streams the client opened through it.
type helloRewriter struct {
	t       *testing.T
	base    protocol.Transport
	rewrite func(hello []byte) []byte
	dials   atomic.Int32
}

func (f *helloRewriter) Post(ctx context.Context, baseURL string, body []byte) ([]byte, error) {
	return f.base.Post(ctx, baseURL, body)
}

func (f *helloRewriter) OpenStream(ctx context.Context, baseURL string) (net.Conn, error) {
	conn, err := f.base.OpenStream(ctx, baseURL)
	if err != nil {
		return conn, err
	}
	f.dials.Add(1)
	return &helloRestamper{Conn: conn, f: f}, nil
}

// helloRestamper rewrites the first frame written to the stream — the
// FrameHello, which the client sends as one Write.
type helloRestamper struct {
	net.Conn
	f    *helloRewriter
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
	out := protocol.AppendFrame(nil, frame.Kind, frame.ID, h.f.rewrite(frame.Payload))
	if _, err := h.Conn.Write(out); err != nil {
		return 0, err
	}
	return len(b), nil
}

// TestForeignVersionRefused pins the one version policy at the one door an
// envelope comes in by, the stream hello, at the combined gateway and at the
// firewall-split Front: a hello at any version but protocol.Version is
// refused with a server-signed error. A stock client surfaces that as
// ErrBadVersion after exactly one dial — it neither re-seals at another
// version nor redials a refused hello.
func TestForeignVersionRefused(t *testing.T) {
	doors := []struct {
		name  string
		split bool
	}{
		{name: "hello"},
		{name: "front-hello", split: true},
	}
	for _, door := range doors {
		// Every retired version, the one just before this build (a peer not
		// yet upgraded) and the one just after are refused alike.
		for version := 1; version <= protocol.Version+1; version++ {
			if version == protocol.Version {
				continue
			}
			t.Run(fmt.Sprintf("%s/v%d", door.name, version), func(t *testing.T) {
				var s *site
				if door.split {
					s, _, _ = splitSite(t)
				} else {
					s = newSite(t)
				}
				tr := &helloRewriter{t: t, base: s.net, rewrite: func(hello []byte) []byte { return restamp(t, hello, version) }}
				c := protocol.NewClient(tr, s.alice, s.ca, s.reg)
				defer c.Close()
				err := protocol.Do(context.Background(), c, "FZJ", protocol.OpPoll, protocol.PollRequest{Job: "FZJ-000001"}, nil)
				if !errors.Is(err, protocol.ErrBadVersion) {
					t.Fatalf("call at v%d: err = %v, want ErrBadVersion", version, err)
				}
				// An *ErrorReply was opened from an envelope verified against
				// the CA and the server role.
				var refused *protocol.ErrorReply
				if !errors.As(err, &refused) {
					t.Fatalf("call at v%d: err = %v (%T), want the server's signed *ErrorReply", version, err, err)
				}
				if got := tr.dials.Load(); got != 1 {
					t.Fatalf("client made %d round trips against a v%d peer, want exactly 1", got, version)
				}
				if door.split {
					if n := s.gw.Telemetry().Snapshot().Total("pki_verify_total"); n != 0 {
						t.Fatalf("%v foreign-version envelopes crossed the firewall", n)
					}
				} else if n := series(s.gw.Telemetry().Snapshot(), "gateway_rejected_total", "cause", "authentication"); n != 1 {
					t.Fatalf("gateway counted %v authentication rejections, want 1", n)
				}
			})
		}
	}
}
