package protocol

import (
	"context"
	"fmt"

	"unicore/internal/bin"
	"unicore/internal/core"
)

// row is one row of the protocol's operation table: a request type, the reply
// type that answers it, and how the pair rides the frame stream. Everything
// this package does per op is derived from the table: the reply type a
// request is answered with, and the server session's frame dispatch.
type row struct {
	request MsgType
	reply   MsgType
	// wire is nil for the one op that is not a frame body: the signed hello
	// that authenticates a stream.
	wire wireRow
}

// The stream ops, one typed handle each: what Do runs. A handle names its
// request and reply types, so a request sent with another op's reply out
// parameter does not compile.
var (
	OpConsign   = call(MsgConsign, binConsign, StreamBackend.StreamConsign)
	OpPoll      = call(MsgPoll, binPoll, StreamBackend.StreamPoll)
	OpOutcome   = call(MsgOutcome, binOutcome, StreamBackend.StreamOutcome)
	OpList      = call(MsgList, binList, StreamBackend.StreamList)
	OpControl   = call(MsgControl, binControl, StreamBackend.StreamControl)
	OpResources = call(MsgResources, binResources, StreamBackend.StreamResources)
	OpTransfer  = &Op[TransferRequest, TransferReply]{MsgTransfer, FrameFetch, 1, FrameData, StreamBackend.StreamTransfer}
	OpApplet    = call(MsgApplet, binApplet, StreamBackend.StreamApplet)
	OpLoad      = call(MsgLoad, binLoad, StreamBackend.StreamLoad)
	OpFetch     = &Op[FetchRequest, TransferReply]{MsgFetch, FrameFetch, 0, FrameData, StreamBackend.StreamFetch}
	// OpSubscribe is the one-batch form of a subscription. The server
	// session runs FrameSub itself (one-shot and push subscriptions are
	// cancellable and outlive a request slot, see startSub) and takes only
	// the backend method from this handle.
	OpSubscribe = &Op[SubscribeRequest, EventsReply]{MsgSubscribe, FrameSub, 0, FrameEvents, StreamBackend.StreamEvents}
	OpPutOpen   = call(MsgPutOpen, binPutOpen, StreamBackend.StreamPutOpen)
	OpPutChunk  = &Op[PutChunkRequest, PutChunkReply]{MsgPutChunk, FramePut, 0, FramePutAck, StreamBackend.StreamPutChunk}
	OpPutCommit = call(MsgPutCommit, binPutCommit, StreamBackend.StreamPutCommit)
	// The reply's snapshots ride as one JSON document (see walkSnapshots).
	OpMetrics = call(MsgMetrics, binMetrics, StreamBackend.StreamMetrics)
	// OpAdvertise is gateway-to-gateway gossip, on the stream a peer's
	// federation also forwards consigns over.
	OpAdvertise = call(MsgFedAdvertise, binAdvertise, StreamBackend.StreamAdvertise)
)

// ops is the operation table, in wire-constant order. A stream op's request
// and reply types are its Op's type arguments; their wire forms are the
// cases walkMsg has for them (bincodec.go).
var ops = []row{
	framed(OpConsign, MsgConsignReply),
	framed(OpPoll, MsgPollReply),
	framed(OpOutcome, MsgOutcomeReply),
	framed(OpList, MsgListReply),
	framed(OpControl, MsgControlReply),
	framed(OpResources, MsgResourcesReply),
	framed(OpTransfer, MsgTransferReply),
	framed(OpApplet, MsgAppletReply),
	framed(OpLoad, MsgLoadReply),
	framed(OpFetch, MsgFetchReply),
	framed(OpSubscribe, MsgEventsReply),
	framed(OpPutOpen, MsgPutOpenReply),
	framed(OpPutChunk, MsgPutChunkReply),
	framed(OpPutCommit, MsgPutCommitReply),
	framed(OpMetrics, MsgMetricsReply),
	framed(OpAdvertise, MsgFedAdvertiseReply),
	{MsgHello, MsgHelloReply, nil},
}

// call is the handle of an op that rides FrameCall / FrameReply under a call
// code: the code and the backend method are all that tell such ops apart.
func call[Req, Rep any](msg MsgType, code byte, backend func(StreamBackend, context.Context, core.DN, bool, Req) (Rep, error)) *Op[Req, Rep] {
	return &Op[Req, Rep]{msg, FrameCall, code, FrameReply, backend}
}

// framed is the table row of a stream op.
func framed[Req, Rep any](o *Op[Req, Rep], reply MsgType) row {
	return row{o.msg, reply, o}
}

// opByRequest and opByFrame index the table: by request type for ReplyType,
// by request frame kind and code for the server session.
var (
	opByRequest = make(map[MsgType]*row, len(ops))
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

// wireRow is an Op with its request and reply types erased — what the
// server session holds after a table lookup.
type wireRow interface {
	// frames returns the request frame kind, the code that selects the op
	// among those sharing the kind, and the reply frame kind.
	frames() (kind, code, answer byte)
	// serveFrame decodes one request body, runs it on the session's backend
	// and writes the reply frame.
	serveFrame(ctx context.Context, s *streamSession, id uint64, body []byte)
}

// Op is the frame form of one op, typed by its request and reply so a
// request travels from the caller to the frame, and from the frame to the
// backend and back, without boxing.
type Op[Req, Rep any] struct {
	msg    MsgType
	kind   byte // request frame kind
	code   byte // selects the op among those sharing kind: FrameCall's leading code byte, FrameFetch's trailing flag
	answer byte // reply frame kind

	backend func(StreamBackend, context.Context, core.DN, bool, Req) (Rep, error)
}

// Type returns the op's request type.
func (o *Op[Req, Rep]) Type() MsgType { return o.msg }

// Frames returns the frame kinds the op's request and its reply ride.
func (o *Op[Req, Rep]) Frames() (request, reply byte) { return o.kind, o.answer }

func (o *Op[Req, Rep]) frames() (kind, code, answer byte) { return o.kind, o.code, o.answer }

// named puts the message type into a codec error — above all errNoWalk,
// which walkMsg cannot name itself without making every message escape.
func named[T any](err error) error {
	return fmt.Errorf("%w (%T)", err, (*T)(nil))
}

// encodeRequest appends the request frame's payload to b, except for the
// bytes of a field walked as a Tail (a put chunk's Data): those come back
// uncopied as tail, for sendFrame to write behind the rest (encodeFrame).
func (o *Op[Req, Rep]) encodeRequest(b []byte, req *Req, trace string) (body, tail []byte, err error) {
	if o.kind == FrameCall {
		c, code := bin.Encoder(b), o.code
		walkCall(&c, &code, &trace)
		b = c.Bytes()
	}
	if body, tail, err = encodeFrame(b, req); err != nil {
		return body, nil, named[Req](err)
	}
	return body, tail, nil
}

// decodeReply decodes a reply frame into rep (which may be nil: reply
// discarded, errors still surfaced). An error is the peer's: a reply this op
// cannot read.
func (o *Op[Req, Rep]) decodeReply(f Frame, rep *Rep) error {
	if f.Kind != o.answer {
		return fmt.Errorf("protocol: %s answered with frame kind %#x", o.msg, f.Kind)
	}
	var r Rep
	if err := decode(f.Payload, &r); err != nil {
		return named[Rep](err)
	}
	if rep != nil {
		*rep = r
	}
	return nil
}

// serveFrame answers backend errors as generic stream errors — the client
// surfaces them as *ErrorReply. A
// decoded request aliases body only if it is a data frame's (a chunk's Data):
// readPayload allocated that body for this frame alone, so the backend owns
// it from here. Any other body is a receive-pool buffer the worker reuses
// once serveFrame returns, and its decoded request holds copies. The reply's
// fields are encoded into a small pooled buffer; a data reply's Data is not
// copied into it but written straight from where it rests (encodeFrame), so
// a backend's TransferReply.Data must stay unchanged until send returns —
// a vfs view does, being immutable.
func (o *Op[Req, Rep]) serveFrame(ctx context.Context, s *streamSession, id uint64, body []byte) {
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
