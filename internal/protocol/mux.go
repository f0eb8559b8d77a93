package protocol

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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
	ch  chan Frame // 1-buffered, from replyChans
	buf []byte     // receive buffer a data reply's payload is read into if it fits; nil allocates
}

// replyChans recycles the waiters' reply channels. A channel goes back only
// open and empty: once its round trip has received its one frame, or once
// release has forestalled or drained the reader's one send. A channel the
// reader closed (the stream died mid-payload) is never reused.
var replyChans = sync.Pool{New: func() any { return make(chan Frame, 1) }}

// openStream dials baseURL's v3 stream and authenticates it: a signed Hello
// envelope out, a verified server-signed HelloOK back. ErrNoStream (from the
// transport) means "this pair has no stream path". A hello the server (or the
// firewall front before it) refuses comes back as its signed *ErrorReply.
// A non-empty actingFor names the user the stream's calls are made for.
func openStream(ctx context.Context, tr Transport, baseURL string, cred *pki.Credential, ca *pki.Authority, usite core.Usite, actingFor core.DN) (*streamConn, error) {
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
	hello, err := SealTraced(cred, telemetry.TraceFrom(ctx), MsgHello, HelloRequest{Usite: usite, Nonce: nonce, ActingFor: actingFor})
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
	f, err := readFrame(conn, new([frameHeaderLen]byte), maxHandshakePayload)
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

// register allocates a correlation ID with a recycled reply channel and the
// receive buffer buf.
func (s *streamConn) register(buf []byte) (uint64, chan Frame, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, nil, s.err
	}
	s.nextID++
	id := s.nextID
	ch := replyChans.Get().(chan Frame)
	s.pending[id] = waiter{ch: ch, buf: buf}
	return id, ch, nil
}

// release withdraws a request its caller is giving up on. If the reader has
// already claimed it, the reader may be reading the reply into the request's
// receive buffer: release waits for the reader's one send, so the buffer is
// the caller's again when release returns. The reply itself is dropped.
func (s *streamConn) release(id uint64, ch chan Frame) {
	if f, ok := s.reclaim(id, ch); ok {
		f.release()
	}
}

// reclaim takes request id back from the reader and returns its reply, if
// the reader had claimed it and read it whole (ok is false when the request
// was unclaimed or the stream died mid-payload). ch goes back to its pool
// unless the reader closed it.
func (s *streamConn) reclaim(id uint64, ch chan Frame) (f Frame, ok bool) {
	s.mu.Lock()
	_, unclaimed := s.pending[id]
	delete(s.pending, id)
	s.mu.Unlock()
	if !unclaimed {
		if f, ok = <-ch; !ok {
			return f, false // closed: the stream died mid-payload
		}
	}
	replyChans.Put(ch)
	return f, ok
}

// send writes one frame, encoded in place (see getFrameBuf) and followed by
// its tail, under the write lock.
func (s *streamConn) send(kind byte, id uint64, frame, tail []byte) error {
	s.wmu.Lock()
	err := sendFrame(s.conn, kind, id, frame, tail)
	s.wmu.Unlock()
	if err != nil {
		s.fail(fmt.Errorf("protocol: v3 stream write: %w", err))
	}
	return err
}

// subStop tells the server to end subscription id (best effort).
func (s *streamConn) subStop(id uint64) {
	var frame [frameHeaderLen]byte
	s.send(FrameSubStop, id, frame[:], nil)
}

// roundTrip sends one request frame and waits for its correlated reply,
// holding one slot of the in-flight window for the duration. A FrameSub
// round trip that is abandoned (context cancelled) tells the server to
// release the long-poll with a FrameSubStop. frame is the request encoded
// behind a reserved header (getFrameBuf); it is not retained. The reply's
// payload is read into buf when it fits (the returned frame's Payload then
// aliases buf), and nothing writes buf once roundTrip has returned. Any other
// reply is read into a receive-pool buffer, which the caller gives back with
// Frame.release once it has decoded the reply.
func (s *streamConn) roundTrip(ctx context.Context, kind byte, frame, tail, buf []byte) (Frame, error) {
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
	if err := s.send(kind, id, frame, tail); err != nil {
		s.release(id, ch)
		return Frame{}, err
	}
	select {
	case f, ok := <-ch:
		if !ok {
			return Frame{}, s.failErr()
		}
		replyChans.Put(ch)
		return f, nil
	case <-ctx.Done():
		s.release(id, ch)
		if kind == FrameSub {
			// Free the server-side long-poll immediately.
			s.subStop(id)
		}
		return Frame{}, ctx.Err()
	case <-s.done:
		// A reply read whole before the stream died still answers the call:
		// a server that answers and then closes, as one refusing a revoked
		// certificate does, is not a lost connection to replay on.
		if f, ok := s.reclaim(id, ch); ok {
			return f, nil
		}
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
	err := s.send(FrameSub, id, *bp, nil)
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

// readLoop is the single reader: every inbound frame routes on its header,
// before its payload is read, to a pending waiter, a subscription channel, or
// nobody. A waiter's reply lands in the receive buffer it lent (a data reply)
// or in a receive-pool buffer the waiter releases (any other); a frame nobody
// waits for any more (its call was cancelled) is read into no buffer at all.
// A subscription consumer that falls behind its buffer is cut off (channel
// closed) rather than allowed to head-of-line block the whole stream — the
// subscriber resumes at its cursor, which is lossless by construction.
func (s *streamConn) readLoop() {
	var hdr [frameHeaderLen]byte
	for {
		f, n, err := readFrameHeader(s.conn, &hdr, MaxFramePayload)
		if err != nil {
			s.fail(fmt.Errorf("protocol: v3 stream read: %w", err))
			return
		}
		s.mu.Lock()
		w, claimed := s.pending[f.ID]
		delete(s.pending, f.ID)
		_, subscribed := s.subs[f.ID]
		s.mu.Unlock()
		switch {
		case claimed:
			// A claimed waiter gets exactly one send, whatever happens next.
			if err := readPayload(s.conn, &f, n, w.buf); err != nil {
				s.fail(fmt.Errorf("protocol: v3 stream read: %w", err))
				close(w.ch)
				return
			}
			w.ch <- f
		case subscribed:
			if err := readPayload(s.conn, &f, n, nil); err != nil {
				s.fail(fmt.Errorf("protocol: v3 stream read: %w", err))
				return
			}
			s.deliver(f)
			f.release()
		default:
			// A reply that raced a cancellation, or a batch behind an
			// unsubscribe: nobody reads it, so nothing holds it.
			if _, err := io.CopyN(io.Discard, s.conn, int64(n)); err != nil {
				s.fail(fmt.Errorf("protocol: v3 stream read: %w", err))
				return
			}
		}
	}
}

// deliver hands a subscription's frame to its channel, if the subscription
// is still open. The decoded batch owns its fields, so f may be released
// once deliver returns.
func (s *streamConn) deliver(f Frame) {
	s.mu.Lock()
	ch, ok := s.subs[f.ID]
	if !ok { // unsubscribed while the payload was read
		s.mu.Unlock()
		return
	}
	// An End batch or a FrameError is the server ending the subscription; an
	// overflow or an undecodable batch is this end cutting it off, and the
	// server's push loop runs on until told.
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
		// Off the read loop, which must never wait on a write; the write
		// ends when the server reads it or the stream fails.
		go s.subStop(f.ID)
	}
}
