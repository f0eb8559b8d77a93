package protocol

import (
	"fmt"

	"unicore/internal/bin"
)

// row is one row of the protocol's operation table: a request type, the reply
// type that answers it, and how the pair rides the frame stream. Everything
// this package does per op is derived from the table: the reply type a
// request is answered with, and the frames a server finds its handler by.
type row struct {
	request MsgType
	reply   MsgType
	// wire is nil for the one op that is not a frame body: the signed hello
	// that authenticates a stream.
	wire wireRow
}

// The stream ops, one typed handle each: what Do runs and Handle registers.
// A handle names its request and reply types, so a request sent with another
// op's reply out parameter does not compile.
var (
	OpConsign   = call[ConsignRequest, ConsignReply](MsgConsign, binConsign)
	OpPoll      = call[PollRequest, PollReply](MsgPoll, binPoll)
	OpOutcome   = call[OutcomeRequest, OutcomeReply](MsgOutcome, binOutcome)
	OpList      = call[ListRequest, ListReply](MsgList, binList)
	OpControl   = call[ControlRequest, ControlReply](MsgControl, binControl)
	OpResources = call[ResourcesRequest, ResourcesReply](MsgResources, binResources)
	OpTransfer  = &Op[TransferRequest, TransferReply]{MsgTransfer, FrameFetch, 1, FrameData}
	OpApplet    = call[AppletRequest, AppletReply](MsgApplet, binApplet)
	OpLoad      = call[LoadRequest, LoadReply](MsgLoad, binLoad)
	OpFetch     = &Op[FetchRequest, TransferReply]{MsgFetch, FrameFetch, 0, FrameData}
	// OpSubscribe is the one-batch form of a subscription. The server
	// session runs FrameSub itself (one-shot and push subscriptions are
	// cancellable and outlive a request slot, see startSub) and takes only
	// the handler registered under this handle.
	OpSubscribe = &Op[SubscribeRequest, EventsReply]{MsgSubscribe, FrameSub, 0, FrameEvents}
	OpPutOpen   = call[PutOpenRequest, PutOpenReply](MsgPutOpen, binPutOpen)
	OpPutChunk  = &Op[PutChunkRequest, PutChunkReply]{MsgPutChunk, FramePut, 0, FramePutAck}
	OpPutCommit = call[PutCommitRequest, PutCommitReply](MsgPutCommit, binPutCommit)
	OpMetrics   = call[MetricsRequest, MetricsReply](MsgMetrics, binMetrics)
	// OpAdvertise is gateway-to-gateway gossip, on the stream a peer's
	// federation also forwards consigns over.
	OpAdvertise = call[FedAdvertiseRequest, FedAdvertiseReply](MsgFedAdvertise, binAdvertise)
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
// code: the code and the types are all that tell such ops apart.
func call[Req, Rep any](msg MsgType, code byte) *Op[Req, Rep] {
	return &Op[Req, Rep]{msg, FrameCall, code, FrameReply}
}

// framed is the table row of a stream op.
func framed[Req, Rep any](o *Op[Req, Rep], reply MsgType) row {
	return row{o.msg, reply, o}
}

// opByRequest indexes the table by request type, for ReplyType. The one
// index by frame is a server's Handlers.
var opByRequest = make(map[MsgType]*row, len(ops))

func init() {
	for i := range ops {
		opByRequest[ops[i].request] = &ops[i]
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

// wireRow is an Op with its request and reply types erased.
type wireRow interface {
	Frames() (request, code, reply byte)
}

// Op is the frame form of one op, typed by its request and reply so a
// request travels from the caller to the frame, and from the frame to the
// backend and back, without boxing.
type Op[Req, Rep any] struct {
	msg    MsgType
	kind   byte // request frame kind
	code   byte // selects the op among those sharing kind: FrameCall's leading code byte, FrameFetch's trailing flag
	answer byte // reply frame kind
}

// Type returns the op's request type.
func (o *Op[Req, Rep]) Type() MsgType { return o.msg }

// Frames returns the frame kind the op's request rides, the code that selects
// the op among the requests of that kind, and the reply's frame kind.
func (o *Op[Req, Rep]) Frames() (request, code, reply byte) { return o.kind, o.code, o.answer }

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
