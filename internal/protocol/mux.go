package protocol

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"unicore/internal/core"
	"unicore/internal/pki"
	"unicore/internal/telemetry"
)

// DefaultStreamWindow bounds how many requests one v3 stream keeps in
// flight: pipelining hides latency, the bound keeps a slow server from
// absorbing unbounded client memory.
const DefaultStreamWindow = 32

// handshakeTimeout bounds the Hello/HelloOK exchange on a fresh stream.
const handshakeTimeout = 10 * time.Second

// ErrStreamClosed reports a request that died with its connection; the
// client reconnects and replays (every v3 frame request is idempotent).
var ErrStreamClosed = errors.New("protocol: v3 stream closed")

// streamConn is the client half of one persistent multiplexed v3 stream:
// correlation-ID routing, a bounded in-flight window, and push-subscription
// channels. All writes are whole frames under wmu; one reader goroutine
// dispatches every inbound frame.
type streamConn struct {
	conn   net.Conn
	window chan struct{}

	wmu sync.Mutex // serializes frame writes

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]waiter
	subs    map[uint64]chan EventsReply
	closed  bool
	err     error
	done    chan struct{}
}

// waiter is one request awaiting its reply. The reader claims it by removing
// it from pending, and from then on owns buf until it has sent on ch exactly
// once: the reply frame, or a close when the stream died mid-payload.
type waiter struct {
	ch  chan Frame // 1-buffered
	buf []byte     // receive buffer the reply payload is read into if it fits; nil allocates
}

// openStream dials baseURL's v3 stream and authenticates it: a signed Hello
// envelope out, a verified server-signed HelloOK back. ErrNoStream (from the
// transport) means "this pair has no stream path". A hello the server (or the
// firewall front before it) refuses comes back as its signed *ErrorReply.
func openStream(ctx context.Context, tr Transport, baseURL string, cred *pki.Credential, ca *pki.Authority, usite core.Usite) (*streamConn, error) {
	conn, err := tr.OpenStream(ctx, baseURL)
	if err != nil {
		return nil, err
	}
	var nb [16]byte
	if _, err := rand.Read(nb[:]); err != nil {
		conn.Close()
		return nil, err
	}
	nonce := hex.EncodeToString(nb[:])
	hello, err := SealTraced(cred, telemetry.TraceFrom(ctx), MsgHello, HelloRequest{Usite: usite, Nonce: nonce})
	if err != nil {
		conn.Close()
		return nil, err
	}
	deadline := time.Now().Add(handshakeTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	conn.SetDeadline(deadline)
	if err := writeFrame(conn, FrameHello, 0, hello); err != nil {
		conn.Close()
		return nil, fmt.Errorf("protocol: v3 hello to %s: %w", usite, err)
	}
	f, err := readFrame(conn)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("protocol: v3 hello to %s: %w", usite, err)
	}
	// Accepted or refused, the answer is a server-signed envelope: a
	// MsgHelloReply in a FrameHelloOK, or a MsgError as the message of a
	// FrameError.
	answer := f.Payload
	switch f.Kind {
	case FrameHelloOK:
	case FrameError:
		_, msg := parseStreamError(f.Payload)
		answer = []byte(msg)
	default:
		conn.Close()
		return nil, fmt.Errorf("protocol: v3 hello to %s answered with frame kind %#x", usite, f.Kind)
	}
	rt, raw, err := openReply(ca, usite, answer)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("protocol: v3 hello to %s: %w", usite, err)
	}
	if f.Kind != FrameHelloOK || rt != MsgHelloReply {
		conn.Close()
		return nil, fmt.Errorf("protocol: v3 hello to %s answered with a %s envelope in frame kind %#x", usite, rt, f.Kind)
	}
	var hr HelloReply
	if err := json.Unmarshal(raw, &hr); err != nil || hr.Nonce != nonce {
		conn.Close()
		return nil, fmt.Errorf("protocol: v3 hello reply from %s does not echo the handshake nonce", usite)
	}
	conn.SetDeadline(time.Time{})
	s := &streamConn{
		conn:    conn,
		window:  make(chan struct{}, DefaultStreamWindow),
		pending: make(map[uint64]waiter),
		subs:    make(map[uint64]chan EventsReply),
		done:    make(chan struct{}),
	}
	go s.readLoop()
	return s, nil
}

// alive reports whether the stream can still carry requests.
func (s *streamConn) alive() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.closed
}

// close tears the stream down, failing everything in flight.
func (s *streamConn) close() { s.fail(ErrStreamClosed) }

func (s *streamConn) fail(err error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.err = err
	for id, ch := range s.subs {
		delete(s.subs, id)
		close(ch)
	}
	close(s.done)
	s.mu.Unlock()
	s.conn.Close()
}

func (s *streamConn) failErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	return ErrStreamClosed
}

// register allocates a correlation ID with a 1-buffered reply channel and
// the receive buffer buf.
func (s *streamConn) register(buf []byte) (uint64, chan Frame, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, nil, s.err
	}
	s.nextID++
	id := s.nextID
	ch := make(chan Frame, 1)
	s.pending[id] = waiter{ch: ch, buf: buf}
	return id, ch, nil
}

// release withdraws a request its caller is giving up on. If the reader has
// already claimed it, the reader may be reading the reply into the request's
// receive buffer: release waits for the reader's one send, so the buffer is
// the caller's again when release returns.
func (s *streamConn) release(id uint64, ch chan Frame) {
	s.mu.Lock()
	_, unclaimed := s.pending[id]
	delete(s.pending, id)
	s.mu.Unlock()
	if !unclaimed {
		<-ch
	}
}

// send writes one frame, encoded in place (see getFrameBuf), under the write
// lock. A client frame is always one Write: it has no tail.
func (s *streamConn) send(kind byte, id uint64, frame []byte) error {
	s.wmu.Lock()
	err := sendFrame(s.conn, kind, id, frame, nil)
	s.wmu.Unlock()
	if err != nil {
		s.fail(fmt.Errorf("protocol: v3 stream write: %w", err))
	}
	return err
}

// subStop tells the server to end subscription id (best effort).
func (s *streamConn) subStop(id uint64) {
	var frame [frameHeaderLen]byte
	s.send(FrameSubStop, id, frame[:])
}

// roundTrip sends one request frame and waits for its correlated reply,
// holding one slot of the in-flight window for the duration. A FrameSub
// round trip that is abandoned (context cancelled) tells the server to
// release the long-poll with a FrameSubStop. frame is the request encoded
// behind a reserved header (getFrameBuf); it is not retained. The reply's
// payload is read into buf when it fits (the returned frame's Payload then
// aliases buf), and nothing writes buf once roundTrip has returned.
func (s *streamConn) roundTrip(ctx context.Context, kind byte, frame, buf []byte) (Frame, error) {
	select {
	case s.window <- struct{}{}:
	case <-ctx.Done():
		return Frame{}, ctx.Err()
	case <-s.done:
		return Frame{}, s.failErr()
	}
	defer func() { <-s.window }()

	id, ch, err := s.register(buf)
	if err != nil {
		return Frame{}, err
	}
	if err := s.send(kind, id, frame); err != nil {
		s.release(id, ch)
		return Frame{}, err
	}
	select {
	case f, ok := <-ch:
		if !ok {
			return Frame{}, s.failErr()
		}
		return f, nil
	case <-ctx.Done():
		s.release(id, ch)
		if kind == FrameSub {
			// Free the server-side long-poll immediately.
			s.subStop(id)
		}
		return Frame{}, ctx.Err()
	case <-s.done:
		s.release(id, ch)
		return Frame{}, s.failErr()
	}
}

// subscribe opens a push subscription: the server streams FrameEvents
// batches under the returned ID until the job terminates, unsubscribe is
// called, or the stream dies. The channel closes on any of those; a closed
// channel without a terminal event means "resubscribe at the cursor".
func (s *streamConn) subscribe(b binSub) (uint64, <-chan EventsReply, error) {
	s.mu.Lock()
	if s.closed {
		err := s.err
		s.mu.Unlock()
		return 0, nil, err
	}
	s.nextID++
	id := s.nextID
	ch := make(chan EventsReply, 64)
	s.subs[id] = ch
	s.mu.Unlock()

	bp := getFrameBuf(0)
	*bp, _ = encode(*bp, &b) // a binSub has its walk
	err := s.send(FrameSub, id, *bp)
	putFrameBuf(bp)
	if err != nil {
		return 0, nil, err
	}
	return id, ch, nil
}

// unsubscribe cancels a push subscription.
func (s *streamConn) unsubscribe(id uint64) {
	s.mu.Lock()
	ch, ok := s.subs[id]
	if ok {
		delete(s.subs, id)
		close(ch)
	}
	closed := s.closed
	s.mu.Unlock()
	if ok && !closed {
		s.subStop(id)
	}
}

// readLoop is the single reader: every inbound frame routes by correlation
// ID to a pending waiter or a subscription channel. A reply is routed on its
// header, before its payload is read, so the payload lands in the receive
// buffer its waiter lent. A subscription consumer that falls behind its
// buffer is cut off (channel closed) rather than allowed to head-of-line
// block the whole stream — the subscriber resumes at its cursor, which is
// lossless by construction.
func (s *streamConn) readLoop() {
	for {
		f, n, err := readFrameHeader(s.conn)
		if err != nil {
			s.fail(fmt.Errorf("protocol: v3 stream read: %w", err))
			return
		}
		s.mu.Lock()
		w, claimed := s.pending[f.ID]
		delete(s.pending, f.ID)
		s.mu.Unlock()
		// A claimed waiter gets exactly one send, whatever happens next.
		f.Payload, err = readFramePayload(s.conn, n, w.buf)
		if err != nil {
			s.fail(fmt.Errorf("protocol: v3 stream read: %w", err))
			if claimed {
				close(w.ch)
			}
			return
		}
		if claimed {
			w.ch <- f
			continue
		}
		s.mu.Lock()
		if ch, ok := s.subs[f.ID]; ok {
			// An End batch or a FrameError is the server ending the
			// subscription; an overflow or an undecodable batch is this end
			// cutting it off, and the server's push loop runs on until told.
			ended, cut := f.Kind != FrameEvents, false
			if f.Kind == FrameEvents {
				var ev binEvents
				if decode(f.Payload, &ev) != nil {
					cut = true
				} else {
					select {
					case ch <- ev.EventsReply:
						ended = ev.End
					default: // overflow: cut the subscriber off
						cut = true
					}
				}
			}
			if ended || cut {
				delete(s.subs, f.ID)
				close(ch)
			}
			s.mu.Unlock()
			if cut {
				// Off the read loop, which must never wait on a write; the
				// write ends when the server reads it or the stream fails.
				go s.subStop(f.ID)
			}
			continue
		}
		s.mu.Unlock()
		// Unmatched frames (reply raced a cancellation) are dropped.
	}
}
