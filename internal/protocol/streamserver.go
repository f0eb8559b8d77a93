package protocol

import (
	"context"
	"crypto/x509"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"unicore/internal/core"
	"unicore/internal/pki"
	"unicore/internal/telemetry"
)

// Server-side half of the v3 frame protocol. ServeStreamConn owns the
// framing, the Hello authentication handshake, correlation-ID bookkeeping,
// and the push-subscription loops; the hello's check stays with the
// StreamBackend and each op with its handler in Handlers (the gateway's
// rows). SpliceStream is the firewall front's share. Compare
// streamConn/openStream in mux.go for the client half.

// defaultStreamConcurrency bounds how many request frames one stream serves
// at once — the server-side mirror of the client's in-flight window. It is
// the number of workers a stream may start (streamSession.dispatch).
const defaultStreamConcurrency = 64

// maxStreamSubs bounds concurrently-open push subscriptions per stream; each
// holds a goroutine in the backend's long-poll.
const maxStreamSubs = 256

// defaultPushWaitMs is the per-round long-poll the server applies to a push
// subscription whose request did not name a wait: without it an idle
// subscription would spin on empty fetches.
const defaultPushWaitMs = 30_000

// StreamBackend authenticates the hellos of a v3 stream — implemented by the
// gateway. Identity (dn, asServer) is the stream's: it was verified once at
// Hello and binds every frame after, for as long as StreamServerOpts.CA has
// not revoked it. A stream whose server hello acts for a user
// (HelloRequest.ActingFor) is that user's: dn names the user and asServer is
// false.
type StreamBackend interface {
	// StreamHello authenticates the Hello envelope before the handshake
	// completes — signature, role policy, site-specific auth. A non-nil
	// refusal is the sealed MsgError envelope that refuses the stream.
	StreamHello(hello []byte) (o Opened, refusal []byte)
}

// Handlers is a stream server's dispatch table: the handler of each op it
// serves, by the op's request frame kind and code. Handle fills it; a frame
// whose op has no entry is refused as unsupported.
type Handlers map[[2]byte]handler

// handler is an op's entry in Handlers with its types erased: serveFrame
// decodes one request body, runs the op's handler on it under the session's
// identity and writes the reply frame.
type handler interface {
	serveFrame(ctx context.Context, s *streamSession, id uint64, body []byte)
}

// served is the entry Handle makes.
type served[Req, Rep any] struct {
	op *Op[Req, Rep]
	fn func(context.Context, core.DN, bool, Req) (Rep, error)
}

// Handle registers fn as the server of op's frames in h. fn runs under the
// identity the stream's hello bound (see StreamBackend); an error it returns
// answers the frame as a generic stream error. For OpSubscribe, fn serves one
// event batch (one long-poll round), once for a one-shot subscription and in
// a loop for a push subscription.
func Handle[Req, Rep any](h Handlers, op *Op[Req, Rep], fn func(ctx context.Context, dn core.DN, asServer bool, req Req) (Rep, error)) {
	h[[2]byte{op.kind, op.code}] = &served[Req, Rep]{op, fn}
}

// Unserved returns the request type of every framed op in the protocol's
// table that h has no handler for, in table order.
func (h Handlers) Unserved() (missing []MsgType) {
	for _, r := range ops {
		if r.wire == nil {
			continue // the hello
		}
		if kind, code, _ := r.wire.Frames(); h[[2]byte{kind, code}] == nil {
			missing = append(missing, r.request)
		}
	}
	return missing
}

// ErrActingFor refuses a user-signed stream hello that names a user to act
// for: only a server relays calls for someone else.
var ErrActingFor = errors.New("protocol: only a server-signed hello may act for a user")

// StreamServerOpts configures ServeStreamConn.
type StreamServerOpts struct {
	// Cred signs the HelloOK reply (server role).
	Cred *pki.Credential
	// Usite is the site this stream serves; a Hello addressed elsewhere is
	// refused (the stream equivalent of posting to the wrong gateway).
	Usite core.Usite
	// OnFrame, when set, observes every inbound post-handshake frame kind —
	// the telemetry hook.
	OnFrame func(kind byte)
	// CA, when set, is asked again about the hello's certificate whenever its
	// revocation epoch has moved: a stream whose certificate it has revoked
	// since the hello has its next frame, or its next pushed batch, refused,
	// and is closed.
	CA *pki.Authority
}

// streamSession is one accepted v3 stream: single reader, mutex-serialised
// writer, a bounded pool of reused workers, per-subscription cancel registry.
type streamSession struct {
	conn     net.Conn
	handlers Handlers
	ctx      context.Context
	dn       core.DN
	asServer bool

	ca    *pki.Authority    // nil: revocation is checked at the hello only
	cert  *x509.Certificate // the hello's
	epoch atomic.Uint64     // ca's revocation epoch when cert was last found good

	wmu     sync.Mutex // serialises frame writes
	work    chan Frame // unbuffered: a request frame handed to an idle worker
	workers int        // workers started; only the read loop touches it
	wg      sync.WaitGroup

	subMu sync.Mutex
	subs  map[uint64]context.CancelFunc
}

// ServeStreamConn authenticates one v3 stream's hello with be, then serves
// its frames from h until the connection dies or ctx is cancelled. It
// blocks; callers run it from the upgrade handler's goroutine (or a testbed
// pipe's). The hello is read
// against maxHandshakePayload: a peer not yet authenticated cannot make it
// allocate more.
func ServeStreamConn(ctx context.Context, conn net.Conn, be StreamBackend, h Handlers, opts StreamServerOpts) {
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(handshakeTimeout))
	var hdr [frameHeaderLen]byte
	f, err := readFrame(conn, &hdr, maxHandshakePayload)
	if err != nil || f.Kind != FrameHello {
		return
	}
	var epoch uint64
	if opts.CA != nil {
		// Read before the hello is verified, so a revocation racing the
		// verify moves it and is caught at the first frame.
		epoch = opts.CA.RevocationEpoch()
	}
	o, refusal := be.StreamHello(f.Payload)
	if refusal != nil {
		refuseHello(conn, f.ID, refusal)
		return
	}
	refuseBecause := func(reason string) {
		if envelope, err := SealTraced(opts.Cred, o.Trace, MsgError, ErrorReply{Code: string(MsgHello), Message: reason}); err == nil {
			refuseHello(conn, f.ID, envelope)
		}
	}
	var hr HelloRequest
	if o.Type != MsgHello || json.Unmarshal(o.Payload, &hr) != nil {
		refuseBecause("malformed hello")
		return
	}
	if hr.Usite != "" && opts.Usite != "" && hr.Usite != opts.Usite {
		refuseBecause(fmt.Sprintf("stream hello addressed to %s, this is %s", hr.Usite, opts.Usite))
		return
	}
	// A server's hello that acts for a user binds the stream to that user as
	// a user-role caller: every call on it is judged as the user's own.
	dn, asServer := o.From, o.Role == pki.RoleServer
	if hr.ActingFor != "" {
		if !asServer {
			refuseBecause(fmt.Sprintf("%v: %s signed a hello acting for %s", ErrActingFor, o.From, hr.ActingFor))
			return
		}
		dn, asServer = hr.ActingFor, false
	}
	helloOK, err := SealTraced(opts.Cred, o.Trace, MsgHelloReply, HelloReply{Usite: opts.Usite, Nonce: hr.Nonce})
	if err != nil {
		return
	}
	if writeFrame(conn, FrameHelloOK, f.ID, helloOK) != nil {
		return
	}
	conn.SetDeadline(time.Time{})

	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// Parent cancellation (server shutdown) must unblock the read loop.
	go func() {
		<-sctx.Done()
		conn.Close()
	}()
	s := &streamSession{
		conn:     conn,
		handlers: h,
		ctx:      sctx,
		dn:       dn,
		asServer: asServer,
		ca:       opts.CA,
		cert:     o.Cert,
		work:     make(chan Frame),
		subs:     make(map[uint64]context.CancelFunc),
	}
	s.epoch.Store(epoch)
	for {
		f, n, err := readFrameHeader(conn, &hdr, MaxFramePayload)
		if err == nil {
			err = readPayload(conn, &f, n, nil)
		}
		if err != nil {
			break
		}
		if opts.OnFrame != nil {
			opts.OnFrame(f.Kind)
		}
		if s.revoked() {
			s.refuseRevoked(f.ID)
			f.release()
			break
		}
		switch f.Kind {
		case FrameSub:
			s.startSub(f)
			f.release()
		case FrameSubStop:
			s.stopSub(f.ID)
			f.release()
		default:
			s.dispatch(f)
		}
		if sctx.Err() != nil {
			break
		}
	}
	cancel()
	s.wg.Wait()
}

// revoked reports whether the CA has revoked the hello's certificate since
// the hello. It asks the CA only when the revocation epoch has moved since the
// certificate was last found good, so an unchanged stream pays two atomic
// loads and no allocation; a revoked certificate stays revoked, so once true
// it stays true.
func (s *streamSession) revoked() bool {
	if s.ca == nil || s.cert == nil {
		return false
	}
	e := s.ca.RevocationEpoch()
	if e == s.epoch.Load() {
		return false
	}
	if s.ca.IsRevoked(s.cert) {
		return true
	}
	s.epoch.Store(e)
	return false
}

// refuseRevoked answers request or subscription id with the revocation, as
// a generic stream error the caller sees as the call's answer.
func (s *streamSession) refuseRevoked(id uint64) {
	s.writeErr(id, StreamErrGeneric, fmt.Sprintf("%v: serial %s", pki.ErrRevoked, s.cert.SerialNumber))
}

// refuseHello answers a refused hello with a server-signed MsgError
// envelope, carried as the message of a FrameError.
func refuseHello(conn net.Conn, id uint64, envelope []byte) {
	writeFrame(conn, FrameError, id, appendStreamError(nil, StreamErrGeneric, string(envelope)))
}

// SpliceStream is the firewall half of a v3 stream (§5.2): it reads the
// client's hello and hands its envelope to admit, which verifies it and only
// then dials the gateway inside. A refusal is answered here exactly as
// ServeStreamConn would, and nothing has crossed the firewall; otherwise the
// hello is replayed inward for the gateway to verify in its turn, and the two
// connections are spliced byte for byte until either side closes — which
// closes the other, so a held subscribe ends with its caller. The hello is
// read against maxHandshakePayload, as ServeStreamConn reads it.
func SpliceStream(conn net.Conn, admit func(hello []byte) (inner net.Conn, refusal []byte)) {
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(handshakeTimeout))
	f, err := readFrame(conn, new([frameHeaderLen]byte), maxHandshakePayload)
	if err != nil || f.Kind != FrameHello {
		return
	}
	inner, refusal := admit(f.Payload)
	if refusal != nil {
		refuseHello(conn, f.ID, refusal)
		return
	}
	defer inner.Close()
	if writeFrame(inner, FrameHello, f.ID, f.Payload) != nil {
		return
	}
	conn.SetDeadline(time.Time{})
	go func() {
		io.Copy(inner, conn)
		inner.Close()
	}()
	io.Copy(conn, inner)
}

// send writes one frame encoded in place behind the header of a pooled frame
// buffer (getFrameBuf), followed by tail (see sendFrame), under the write
// lock, and releases the buffer; a failed write kills the connection, so a
// torn frame is never followed by another, and unwinds the read loop and
// every subscription.
func (s *streamSession) send(kind byte, id uint64, bp *[]byte, tail []byte) error {
	s.wmu.Lock()
	err := sendFrame(s.conn, kind, id, *bp, tail)
	s.wmu.Unlock()
	putFrameBuf(bp)
	if err != nil {
		s.conn.Close()
	}
	return err
}

func (s *streamSession) writeErr(id uint64, code byte, msg string) {
	bp := getFrameBuf(0)
	*bp = appendStreamError(*bp, code, msg)
	s.send(FrameError, id, bp, nil)
}

// dispatch hands a request frame to an idle worker. If none is idle it starts
// one, up to defaultStreamConcurrency; with that many busy it blocks the read
// loop until one is free, which is the stream's backpressure.
func (s *streamSession) dispatch(f Frame) {
	select {
	case s.work <- f:
		return
	default:
	}
	if s.workers < defaultStreamConcurrency {
		s.workers++
		s.wg.Add(1)
		go s.worker(f)
		return
	}
	select {
	case s.work <- f:
	case <-s.ctx.Done():
		f.release()
	}
}

// worker serves request frames one at a time, f first, until the stream's
// context ends, releasing each frame's receive buffer once it is answered.
// Workers are reused, so a request costs no goroutine of its own.
func (s *streamSession) worker(f Frame) {
	defer s.wg.Done()
	for {
		s.handle(f)
		f.release()
		select {
		case f = <-s.work:
		case <-s.ctx.Done():
			return
		}
	}
}

// handle serves one request/response frame: the frame's kind and code select
// the handler of its op, which does the rest. A frame no handler claims — an
// unknown kind, an unknown code of a known kind, or an op this server does
// not serve — is refused here and nowhere else.
func (s *streamSession) handle(f Frame) {
	code, trace, body, err := splitRequest(f.Kind, f.Payload)
	if err != nil {
		s.writeErr(f.ID, StreamErrBadFrame, err.Error())
		return
	}
	op := s.handlers[[2]byte{f.Kind, code}]
	if op == nil {
		s.writeErr(f.ID, StreamErrUnsupported, fmt.Sprintf("unsupported %s frame (code %d)", FrameKindName(f.Kind), code))
		return
	}
	ctx := s.ctx
	if trace != "" {
		ctx = telemetry.WithTrace(ctx, trace)
	}
	op.serveFrame(ctx, s, f.ID, body)
}

// serveFrame answers handler errors as generic stream errors — the client
// surfaces them as *ErrorReply. A decoded request aliases body only if it is
// a data frame's (a chunk's Data): readPayload allocated that body for this
// frame alone, so the handler owns it from here. Any other body is a
// receive-pool buffer the worker reuses once serveFrame returns, and its
// decoded request holds copies. The reply's fields are encoded into a small
// pooled buffer; a data reply's Data is not copied into it but written
// straight from where it rests (encodeFrame), so a handler's
// TransferReply.Data must stay unchanged until send returns — a vfs view
// does, being immutable.
func (e *served[Req, Rep]) serveFrame(ctx context.Context, s *streamSession, id uint64, body []byte) {
	var req Req
	if err := decode(body, &req); err != nil {
		s.writeErr(id, StreamErrBadFrame, named[Req](err).Error())
		return
	}
	rep, err := e.fn(ctx, s.dn, s.asServer, req)
	if err != nil {
		s.writeErr(id, StreamErrGeneric, err.Error())
		return
	}
	bp := getFrameBuf(0)
	var tail []byte
	if *bp, tail, err = encodeFrame(*bp, &rep); err != nil {
		putFrameBuf(bp)
		s.writeErr(id, StreamErrBadFrame, named[Rep](err).Error())
		return
	}
	s.send(e.op.answer, id, bp, tail)
}

// startSub opens a subscription under the frame's correlation ID: one batch
// for a one-shot (what Await, Events and Watch's first fetch run), a
// server-driven push loop otherwise.
func (s *streamSession) startSub(f Frame) {
	sub, err := decodeSub(f.Payload)
	if err != nil {
		s.writeErr(f.ID, StreamErrBadFrame, err.Error())
		return
	}
	ctx, cancel := context.WithCancel(s.ctx)
	s.subMu.Lock()
	if _, dup := s.subs[f.ID]; dup || len(s.subs) >= maxStreamSubs {
		s.subMu.Unlock()
		cancel()
		s.writeErr(f.ID, StreamErrBadFrame, "subscription id in use or too many subscriptions")
		return
	}
	s.subs[f.ID] = cancel
	s.subMu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer func() {
			s.subMu.Lock()
			delete(s.subs, f.ID)
			s.subMu.Unlock()
			cancel()
		}()
		s.runSub(ctx, f.ID, sub)
	}()
}

// decodeSub returns the subscription by value: decode takes its target's
// address, and a target startSub's goroutine captured would move to the heap
// for every subscription.
func decodeSub(p []byte) (sub binSub, err error) {
	err = decode(p, &sub)
	return sub, err
}

func (s *streamSession) stopSub(id uint64) {
	s.subMu.Lock()
	cancel, ok := s.subs[id]
	s.subMu.Unlock()
	if ok {
		cancel()
	}
}

// runSub drives one subscription. Each round is one long-poll of the
// OpSubscribe handler; a push subscription advances its own cursors between
// rounds, skips empty batches, and ends (End=true) once it has delivered the
// terminal event of a job-scoped stream. A server with no such handler
// refuses the subscription as unsupported.
func (s *streamSession) runSub(ctx context.Context, id uint64, sub binSub) {
	events, _ := s.handlers[[2]byte{OpSubscribe.kind, OpSubscribe.code}].(*served[SubscribeRequest, EventsReply])
	if events == nil {
		s.writeErr(id, StreamErrUnsupported, "unsupported "+FrameKindName(FrameSub)+" frame")
		return
	}
	req := sub.SubscribeRequest
	if !sub.Once && req.WaitMs <= 0 {
		req.WaitMs = defaultPushWaitMs
	}
	for {
		reply, err := events.fn(ctx, s.dn, s.asServer, req)
		if ctx.Err() != nil {
			return // cancelled: FrameSubStop, stream teardown, or shutdown
		}
		if err != nil {
			s.writeErr(id, StreamErrGeneric, err.Error())
			return
		}
		if s.revoked() {
			// No inbound frame need come to end a revoked push: the
			// closed connection ends the read loop and the stream.
			s.refuseRevoked(id)
			s.conn.Close()
			return
		}
		end := false
		if req.Job != "" {
			for i := range reply.Events {
				if reply.Events[i].Terminal && reply.Events[i].Job == req.Job {
					end = true
				}
			}
		}
		if sub.Once {
			s.writeEvents(id, binEvents{EventsReply: reply, End: end})
			return
		}
		if len(reply.Events) > 0 || reply.Gap {
			if !s.writeEvents(id, binEvents{EventsReply: reply, End: end}) {
				return
			}
		}
		if end {
			return
		}
		req.Cursor = reply.Cursor
		if req.Job == "" {
			req.Origins = reply.Origins
		}
	}
}

func (s *streamSession) writeEvents(id uint64, e binEvents) bool {
	bp := getFrameBuf(0)
	*bp, _ = encode(*bp, &e) // a binEvents has its walk
	return s.send(FrameEvents, id, bp, nil) == nil
}
