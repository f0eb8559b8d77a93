package protocol

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"unicore/internal/core"
	"unicore/internal/pki"
	"unicore/internal/telemetry"
)

// Server-side half of the v3 frame protocol. ServeStreamConn owns the
// framing, the Hello authentication handshake, correlation-ID bookkeeping,
// and the push-subscription loops; the typed request handling stays with the
// StreamBackend (the gateway), which shares its implementation with the
// signed-envelope dispatch path. SpliceStream is the firewall front's share.
// Compare streamConn/openStream in mux.go for the client half.

// defaultStreamConcurrency bounds how many request frames one stream serves
// at once — the server-side mirror of the client's in-flight window.
const defaultStreamConcurrency = 64

// maxStreamSubs bounds concurrently-open push subscriptions per stream; each
// holds a goroutine in the backend's long-poll.
const maxStreamSubs = 256

// defaultPushWaitMs is the per-round long-poll the server applies to a push
// subscription whose request did not name a wait: without it an idle
// subscription would spin on empty fetches.
const defaultPushWaitMs = 30_000

// StreamBackend is the typed server behind a v3 stream — implemented by the
// gateway, shared with its envelope dispatch. Identity (dn, asServer) is the
// stream's: it was verified once at Hello and binds every frame after.
type StreamBackend interface {
	// StreamHello authenticates the Hello envelope before the handshake
	// completes — signature, role policy, site-specific auth, exactly as for
	// a POSTed envelope. A non-nil refusal is the sealed MsgError envelope
	// that refuses the stream.
	StreamHello(hello []byte) (o Opened, refusal []byte)
	StreamConsign(ctx context.Context, dn core.DN, asServer bool, req ConsignRequest) (ConsignReply, error)
	StreamPoll(ctx context.Context, dn core.DN, asServer bool, req PollRequest) (PollReply, error)
	StreamOutcome(ctx context.Context, dn core.DN, asServer bool, req OutcomeRequest) (OutcomeReply, error)
	StreamList(ctx context.Context, dn core.DN, asServer bool, req ListRequest) (ListReply, error)
	StreamControl(ctx context.Context, dn core.DN, asServer bool, req ControlRequest) (ControlReply, error)
	StreamResources(ctx context.Context, dn core.DN, asServer bool, req ResourcesRequest) (ResourcesReply, error)
	StreamApplet(ctx context.Context, dn core.DN, asServer bool, req AppletRequest) (AppletReply, error)
	StreamLoad(ctx context.Context, dn core.DN, asServer bool, req LoadRequest) (LoadReply, error)
	StreamPutOpen(ctx context.Context, dn core.DN, asServer bool, req PutOpenRequest) (PutOpenReply, error)
	StreamPutChunk(ctx context.Context, dn core.DN, asServer bool, req PutChunkRequest) (PutChunkReply, error)
	StreamPutCommit(ctx context.Context, dn core.DN, asServer bool, req PutCommitRequest) (PutCommitReply, error)
	StreamMetrics(ctx context.Context, dn core.DN, asServer bool, req MetricsRequest) (MetricsReply, error)
	StreamFetch(ctx context.Context, dn core.DN, asServer bool, req FetchRequest) (TransferReply, error)
	StreamTransfer(ctx context.Context, dn core.DN, asServer bool, req TransferRequest) (TransferReply, error)
	// StreamEvents serves one cursor-resumable event batch (one long-poll
	// round). ServeStreamConn drives it once per one-shot subscription and in
	// a loop for push subscriptions.
	StreamEvents(ctx context.Context, dn core.DN, asServer bool, req SubscribeRequest) (EventsReply, error)
}

// StreamServerOpts configures ServeStreamConn.
type StreamServerOpts struct {
	// Cred signs the HelloOK reply (server role).
	Cred *pki.Credential
	// Usite is the site this stream serves; a Hello addressed elsewhere is
	// refused (the stream equivalent of posting to the wrong gateway).
	Usite core.Usite
	// OnFrame, when set, observes every inbound post-handshake frame kind —
	// the telemetry hook. Stream frames are deliberately not envelope
	// requests and never count into gateway Stats().ByType.
	OnFrame func(kind byte)
}

// streamSession is one accepted v3 stream: single reader, mutex-serialised
// writer, bounded concurrent dispatch, per-subscription cancel registry.
type streamSession struct {
	conn     net.Conn
	be       StreamBackend
	ctx      context.Context
	dn       core.DN
	asServer bool

	wmu sync.Mutex // serialises frame writes
	sem chan struct{}
	wg  sync.WaitGroup

	subMu sync.Mutex
	subs  map[uint64]context.CancelFunc
}

// ServeStreamConn authenticates and serves one v3 stream until the
// connection dies or ctx is cancelled. It blocks; callers run it from the
// upgrade handler's goroutine (or a testbed pipe's).
func ServeStreamConn(ctx context.Context, conn net.Conn, be StreamBackend, opts StreamServerOpts) {
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(handshakeTimeout))
	f, err := readFrame(conn)
	if err != nil || f.Kind != FrameHello {
		return
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
		be:       be,
		ctx:      sctx,
		dn:       o.From,
		asServer: o.Role == pki.RoleServer,
		sem:      make(chan struct{}, defaultStreamConcurrency),
		subs:     make(map[uint64]context.CancelFunc),
	}
	for {
		f, err := readFrame(conn)
		if err != nil {
			break
		}
		if opts.OnFrame != nil {
			opts.OnFrame(f.Kind)
		}
		switch f.Kind {
		case FrameSub:
			s.startSub(f)
		case FrameSubStop:
			s.stopSub(f.ID)
		default:
			select {
			case s.sem <- struct{}{}:
				s.wg.Add(1)
				go func(f Frame) {
					defer s.wg.Done()
					defer func() { <-s.sem }()
					s.handle(f)
				}(f)
			case <-sctx.Done():
			}
		}
		if sctx.Err() != nil {
			break
		}
	}
	cancel()
	s.wg.Wait()
}

// refuseHello answers a refused hello like a refused POST: with a
// server-signed MsgError envelope, carried as the message of a FrameError.
func refuseHello(conn net.Conn, id uint64, envelope []byte) {
	writeFrame(conn, FrameError, id, appendStreamError(nil, StreamErrGeneric, string(envelope)))
}

// SpliceStream is the firewall half of a v3 stream (§5.2): it reads the
// client's hello and hands its envelope to admit, which verifies it and only
// then dials the gateway inside. A refusal is answered here exactly as
// ServeStreamConn would, and nothing has crossed the firewall; otherwise the
// hello is replayed inward for the gateway to verify in its turn, and the two
// connections are spliced byte for byte until either side closes — which
// closes the other, so a held subscribe ends with its caller.
func SpliceStream(conn net.Conn, admit func(hello []byte) (inner net.Conn, refusal []byte)) {
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(handshakeTimeout))
	f, err := readFrame(conn)
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

// handle serves one request/response frame: the wire table names the op the
// frame's kind and code select, and the op's row does the rest. A frame no
// row claims — an unknown kind, or an unknown code of a known kind — is
// refused here and nowhere else.
func (s *streamSession) handle(f Frame) {
	code, trace, body, err := splitRequest(f.Kind, f.Payload)
	if err != nil {
		s.writeErr(f.ID, StreamErrBadFrame, err.Error())
		return
	}
	op := opByFrame[[2]byte{f.Kind, code}]
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

// startSub opens a subscription under the frame's correlation ID: one batch
// for a one-shot (the MsgSubscribe compatibility path), a server-driven push
// loop otherwise.
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

// runSub drives one subscription. Each round is one backend long-poll; a
// push subscription advances its own cursors between rounds, skips empty
// batches, and ends (End=true) once it has delivered the terminal event of a
// job-scoped stream.
func (s *streamSession) runSub(ctx context.Context, id uint64, sub binSub) {
	req := sub.SubscribeRequest
	if !sub.Once && req.WaitMs <= 0 {
		req.WaitMs = defaultPushWaitMs
	}
	for {
		reply, err := subscribeOp.backend(s.be, ctx, s.dn, s.asServer, req)
		if ctx.Err() != nil {
			return // cancelled: FrameSubStop, stream teardown, or shutdown
		}
		if err != nil {
			s.writeErr(id, StreamErrGeneric, err.Error())
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
