package protocol

import (
	"context"
	"errors"
	"fmt"

	"unicore/internal/bin"
	"unicore/internal/core"
)

// op is one row of the protocol's operation table: a request type, the reply
// type that answers it, and how the pair rides the frame stream. Everything
// this package does per op is derived from the table: the envelope client's
// reply-type check, the client's frame encoding and reply decoding, and the
// server session's frame dispatch.
type op struct {
	request MsgType
	reply   MsgType
	// wire is nil for the two ops that exist only as signed envelopes: the
	// hello that authenticates a stream, and gateway-to-gateway gossip.
	wire wireRow
}

// ops is the operation table, in wire-constant order. A row's request and
// reply types are its wireOp's type arguments; their wire forms are the cases
// walkMsg has for them (bincodec.go).
var ops = []op{
	{MsgConsign, MsgConsignReply, call(binConsign, StreamBackend.StreamConsign)},
	{MsgPoll, MsgPollReply, call(binPoll, StreamBackend.StreamPoll)},
	{MsgOutcome, MsgOutcomeReply, call(binOutcome, StreamBackend.StreamOutcome)},
	{MsgList, MsgListReply, call(binList, StreamBackend.StreamList)},
	{MsgControl, MsgControlReply, call(binControl, StreamBackend.StreamControl)},
	{MsgResources, MsgResourcesReply, call(binResources, StreamBackend.StreamResources)},
	{MsgTransfer, MsgTransferReply, &wireOp[TransferRequest, TransferReply]{
		kind: FrameFetch, code: 1, answer: FrameData, backend: StreamBackend.StreamTransfer,
	}},
	{MsgApplet, MsgAppletReply, call(binApplet, StreamBackend.StreamApplet)},
	{MsgLoad, MsgLoadReply, call(binLoad, StreamBackend.StreamLoad)},
	{MsgFetch, MsgFetchReply, &wireOp[FetchRequest, TransferReply]{
		kind: FrameFetch, code: 0, answer: FrameData, backend: StreamBackend.StreamFetch,
	}},
	{MsgSubscribe, MsgEventsReply, subscribeOp},
	{MsgPutOpen, MsgPutOpenReply, call(binPutOpen, StreamBackend.StreamPutOpen)},
	{MsgPutChunk, MsgPutChunkReply, &wireOp[PutChunkRequest, PutChunkReply]{
		kind: FramePut, answer: FramePutAck, backend: StreamBackend.StreamPutChunk,
	}},
	{MsgPutCommit, MsgPutCommitReply, call(binPutCommit, StreamBackend.StreamPutCommit)},
	// The reply's snapshots ride as one JSON document (see walkSnapshots).
	{MsgMetrics, MsgMetricsReply, call(binMetrics, StreamBackend.StreamMetrics)},
	{MsgFedAdvertise, MsgFedAdvertiseReply, nil},
	{MsgHello, MsgHelloReply, nil},
}

// call is the row of an op that rides FrameCall / FrameReply under a call
// code: the code and the backend method are all that tell such ops apart.
func call[Req, Rep any](code byte, backend func(StreamBackend, context.Context, core.DN, bool, Req) (Rep, error)) *wireOp[Req, Rep] {
	return &wireOp[Req, Rep]{kind: FrameCall, code: code, answer: FrameReply, backend: backend}
}

// subscribeOp is the one-batch form of a subscription — what Client.Call
// sends for MsgSubscribe. The server session runs FrameSub itself (one-shot
// and push subscriptions are cancellable and outlive a request slot, see
// startSub) and takes only the backend method from this row.
var subscribeOp = &wireOp[SubscribeRequest, EventsReply]{
	kind: FrameSub, answer: FrameEvents, backend: StreamBackend.StreamEvents,
}

// errReplyOut reports a Call whose replyOut cannot hold the op's reply,
// errNotRequest one whose payload is not the op's request.
var (
	errReplyOut   = errors.New("protocol: wrong reply out parameter")
	errNotRequest = errors.New("protocol: wrong request payload")
)

// opByRequest and opByFrame index the table: by request type for the
// client, by request frame kind and code for the server session.
var (
	opByRequest = make(map[MsgType]*op, len(ops))
	opByFrame   = make(map[[2]byte]wireRow)
)

func init() {
	for i := range ops {
		o := &ops[i]
		opByRequest[o.request] = o
		if o.wire != nil {
			kind, code, _ := o.wire.frames()
			opByFrame[[2]byte{kind, code}] = o.wire
		}
	}
}

// ReplyType returns the reply type that answers a request type; ok is false
// when t is not a request.
func ReplyType(t MsgType) (reply MsgType, ok bool) {
	o := opByRequest[t]
	if o == nil {
		return "", false
	}
	return o.reply, true
}

// Frames returns the frame kinds a request type and its reply ride on a
// stream; ok is false for the ops that travel as signed envelopes only (the
// hello and federation gossip).
func Frames(t MsgType) (request, reply byte, ok bool) {
	o := opByRequest[t]
	if o == nil || o.wire == nil {
		return 0, 0, false
	}
	request, _, reply = o.wire.frames()
	return request, reply, true
}

// wireRow is a wireOp with its request and reply types erased — what the
// client and the server session hold after a table lookup.
type wireRow interface {
	// frames returns the request frame kind, the code that selects the op
	// among those sharing the kind, and the reply frame kind.
	frames() (kind, code, answer byte)
	// encodeRequest appends the request frame's payload to b. The error is
	// errNotRequest when payload is not the op's request type (by value or by
	// pointer).
	encodeRequest(b []byte, payload any, trace string) ([]byte, error)
	// decodeReply decodes a reply frame into replyOut (which may be nil:
	// reply discarded, errors still surfaced). A replyOut that is not a
	// pointer to the op's reply type is errReplyOut — the caller's mistake;
	// any other error is the peer's: a reply this row cannot read.
	decodeReply(t MsgType, f Frame, replyOut any) error
	// serveFrame decodes one request body, runs it on the session's backend
	// and writes the reply frame.
	serveFrame(ctx context.Context, s *streamSession, id uint64, body []byte)
}

// wireOp is the frame form of one op, typed by its request and reply so a
// request travels from the frame to the backend and back without boxing.
type wireOp[Req, Rep any] struct {
	kind   byte // request frame kind
	code   byte // selects the op among those sharing kind: FrameCall's leading code byte, FrameFetch's trailing flag
	answer byte // reply frame kind

	backend func(StreamBackend, context.Context, core.DN, bool, Req) (Rep, error)
}

func (o *wireOp[Req, Rep]) frames() (kind, code, answer byte) { return o.kind, o.code, o.answer }

// named puts the message type into a codec error — above all errNoWalk,
// which walkMsg cannot name itself without making every message escape.
func named[T any](err error) error {
	return fmt.Errorf("%w (%T)", err, (*T)(nil))
}

func (o *wireOp[Req, Rep]) encodeRequest(b []byte, payload any, trace string) ([]byte, error) {
	var req Req
	switch v := payload.(type) {
	case Req:
		req = v
	case *Req:
		req = *v
	default:
		return b, errNotRequest
	}
	if o.kind == FrameCall {
		c, code := bin.Encoder(b), o.code
		walkCall(&c, &code, &trace)
		b = c.Bytes()
	}
	b, err := encode(b, &req)
	if err != nil {
		return b, named[Req](err)
	}
	return b, nil
}

func (o *wireOp[Req, Rep]) decodeReply(t MsgType, f Frame, replyOut any) error {
	p, ok := replyOut.(*Rep)
	if !ok && replyOut != nil {
		return fmt.Errorf("%w: %s reply decodes into %T, got %T", errReplyOut, t, p, replyOut)
	}
	if f.Kind != o.answer {
		return fmt.Errorf("protocol: %s answered with frame kind %#x", t, f.Kind)
	}
	var rep Rep
	if err := decode(f.Payload, &rep); err != nil {
		return named[Rep](err)
	}
	if p != nil {
		*p = rep
	}
	return nil
}

// serveFrame answers backend errors as generic stream errors — the client
// surfaces them as *ErrorReply exactly like a sealed error envelope would. A
// decoded request may alias body (a chunk's Data does): readFrame allocated
// it for this frame alone, so the backend owns it from here. The reply's
// fields are encoded into a small pooled buffer; a data reply's Data is not
// copied into it but written straight from where it rests (encodeFrame), so
// a backend's TransferReply.Data must stay unchanged until send returns —
// a vfs view does, being immutable.
func (o *wireOp[Req, Rep]) serveFrame(ctx context.Context, s *streamSession, id uint64, body []byte) {
	var req Req
	if err := decode(body, &req); err != nil {
		s.writeErr(id, StreamErrBadFrame, named[Req](err).Error())
		return
	}
	rep, err := o.backend(s.be, ctx, s.dn, s.asServer, req)
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
	s.send(o.answer, id, bp, tail)
}

// splitRequest peels a request frame's payload apart: the code that selects
// the op among those sharing the frame kind, the caller's trace, and the
// op's body. Only a FrameCall carries a header (walkCall); a FrameFetch's
// code is the transfer flag that ends its body.
func splitRequest(kind byte, p []byte) (code byte, trace string, body []byte, err error) {
	switch {
	case kind == FrameCall:
		c := bin.Decoder(p)
		walkCall(&c, &code, &trace)
		if c.Failed() {
			return 0, "", nil, bin.ErrMalformed
		}
		return code, trace, c.Bytes(), nil
	case kind == FrameFetch && len(p) > 0:
		code = p[len(p)-1]
	}
	return code, "", p, nil
}
