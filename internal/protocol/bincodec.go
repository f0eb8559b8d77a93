package protocol

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"time"

	"unicore/internal/ajo"
	"unicore/internal/bin"
	"unicore/internal/telemetry"
)

// Compact binary codec for every client op. JSON stays the payload format of
// every signed envelope, but the frames of a v3 stream carry uvarint
// encodings instead: no field names, no base64 expansion of chunk data, no
// reflection. Each message is described once, by a walk that names its fields
// in wire order; package bin runs the walk as the encoder (appending to a
// possibly pooled buffer) and as the decoder (one error check at the end).
// The primitives are shared with the AJO and journal codecs.

// Binary request discriminators — the first byte of a FrameCall payload
// (the code column of the wire table in ops.go).
const (
	binConsign byte = iota + 1
	binPoll
	binOutcome
	binList
	binControl
	binResources
	binApplet
	binLoad
	binPutOpen
	binPutCommit
	binMetrics
)

// errNoWalk reports a message type walkMsg has no case for: a row added to
// the wire table without its walk.
var errNoWalk = errors.New("protocol: message has no walk")

// encode appends m's frame body to b; m is a pointer to a message walkMsg
// knows.
func encode(b []byte, m any) ([]byte, error) {
	body, tail, err := encodeFrame(b, m)
	return append(body, tail...), err
}

// encodeFrame is encode for the send path: the body is appended to b except
// for the bytes of a field walked as a Tail (a data reply's Data), which are
// returned uncopied for sendFrame to write behind it.
func encodeFrame(b []byte, m any) (body, tail []byte, err error) {
	c := bin.Encoder(b)
	err = walkMsg(&c, m)
	return c.Bytes(), c.Rest(), err
}

// decode fills the zero message m points to from the frame body p. What m
// then holds may alias p where its walk says View or Tail: only a data frame's
// message (a put chunk's Data, a data reply's Data) does, and a control
// frame's body may be reused once it is decoded (readPayload).
func decode(p []byte, m any) error {
	c := bin.Decoder(p)
	if err := walkMsg(&c, m); err != nil {
		return err
	}
	return c.Err()
}

// walkMsg runs the walk of the message m points to. The type switch makes
// every walk a direct call, which is what keeps the codec and the message on
// their callers' stacks: dispatch through a function value, an interface
// method or a type-parameter method moves both to the heap on every frame.
// For the same reason nothing here may let m escape — not a walk handing a
// field's address to json.Unmarshal, not an error that formats m — because
// what leaks in one case leaks for every caller of the switch.
func walkMsg(c *bin.Codec, m any) error {
	switch m := m.(type) {
	case *ConsignRequest:
		c.Str(&m.ConsignID)
		c.Blob(&m.AJO)
	case *ConsignReply:
		c.Str((*string)(&m.Job))
		c.Bool(&m.Accepted)
		c.Str(&m.Reason)
	case *PollRequest:
		c.Str((*string)(&m.Job))
	case *PollReply:
		c.Bool(&m.Found)
		c.Str(&m.Summary.Job)
		c.Int((*int)(&m.Summary.Status))
		c.Int(&m.Summary.Total)
		c.Int(&m.Summary.Done)
		c.Int(&m.Summary.Failed)
		c.Time(&m.Summary.Updated)
	case *OutcomeRequest:
		c.Str((*string)(&m.Job))
	case *OutcomeReply:
		c.Bool(&m.Found)
		if !m.Found {
			return nil
		}
		if c.Decoding() {
			bin.Charge[ajo.Outcome](c, 1) // the root always fits: it is smaller than bin.Slack
			m.Outcome = new(ajo.Outcome)
		}
		return ajo.WalkOutcome(c, m.Outcome)
	case *ListRequest, *LoadRequest: // no fields
	case *ListReply:
		// A user's jobs are numbered by the site that minted them and often
		// named in series, so each row's ID and name write only what differs
		// from the row before.
		var prev JobInfo
		for i := range bin.Slice(c, &m.Jobs) {
			j := &m.Jobs[i]
			c.StrAfter((*string)(&j.Job), string(prev.Job))
			c.StrAfter(&j.Name, prev.Name)
			c.Int((*int)(&j.Status))
			c.TimeAfter(&j.Submitted, prev.Submitted)
			prev = *j
		}
	case *ControlRequest:
		c.Str((*string)(&m.Job))
		c.Str((*string)(&m.Op))
	case *ControlReply:
		c.Bool(&m.OK)
		c.Str(&m.Reason)
	case *ResourcesRequest:
		c.Str((*string)(&m.Vsite))
	case *ResourcesReply:
		for i := range bin.Slice(c, &m.PagesDER) {
			c.Blob(&m.PagesDER[i])
		}
	case *AppletRequest:
		c.Str(&m.Name)
	case *AppletReply:
		c.Str(&m.Name)
		c.Str(&m.Version)
		c.Blob(&m.Payload)
		c.Blob(&m.Signature.CertDER)
		c.Blob(&m.Signature.Sig)
	case *LoadReply:
		c.Float64(&m.Overall)
		walkLoads(c, &m.Vsites)
	case *PutOpenRequest:
		c.Str((*string)(&m.Vsite))
		c.Str(&m.Name)
		c.Varint(&m.Size)
		c.Varint(&m.ChunkSize)
		c.Int(&m.Window)
	case *PutOpenReply:
		c.Str(&m.Handle)
		c.Varint(&m.ChunkSize)
		c.Int(&m.Window)
	case *PutCommitRequest:
		c.Str(&m.Handle)
		c.Uvarint(&m.CRC)
	case *PutCommitReply:
		c.Varint(&m.Size)
		c.Uvarint(&m.CRC)
		c.Varint(&m.Chunks)
	case *MetricsRequest:
		c.Bool(&m.PerReplica)
		c.Bool(&m.Spans)
	case *MetricsReply:
		return walkSnapshots(c, m)

	// Staged-upload chunks (FramePut / FramePutAck). Data stays a view: the
	// frame was read for this chunk alone and the spool writes it straight out.
	case *PutChunkRequest:
		c.Str(&m.Handle)
		c.Varint(&m.Index)
		c.Uvarint(&m.CRC)
		c.View(&m.Data)
	case *PutChunkReply:
		c.Varint(&m.Received)

	// Ranged reads (FrameFetch / FrameData). One body is the frame form of
	// both FetchRequest and TransferRequest; the trailing flag marks the
	// server-role variant (server-to-server Uspace reads) so the gateway
	// applies the right authorisation. It is the op's code in the wire table,
	// which the server reads to pick the op before the body is decoded
	// (splitRequest), so a decoder drops it.
	case *FetchRequest:
		walkFetch(c, m, false)
	case *TransferRequest:
		walkFetch(c, (*FetchRequest)(m), true)
	case *TransferReply:
		c.Bool(&m.Found)
		c.Varint(&m.Size)
		c.Uvarint(&m.CRC)
		c.Tail(&m.Data) // written from the vfs view it rests in (serveFrame)

	// Event subscriptions (FrameSub / FrameEvents). The table's own types are
	// what Do sends and gets for OpSubscribe: a one-batch subscription, and a
	// batch whose End flag nobody reads.
	case *SubscribeRequest:
		once := true
		walkSub(c, m, &once)
	case *binSub:
		walkSub(c, &m.SubscribeRequest, &m.Once)
	case *EventsReply:
		var end bool
		walkEvents(c, m, &end)
	case *binEvents:
		walkEvents(c, &m.EventsReply, &m.End)
	default:
		return errNoWalk
	}
	return nil
}

// walkCall is the header of a FrameCall payload, ahead of the op's body: the
// request code, then the trace ID (the cross-tier telemetry trace the
// envelope header used to carry).
func walkCall(c *bin.Codec, code *byte, trace *string) {
	c.Byte(code)
	c.Str(trace)
}

func walkOrigins(c *bin.Codec, m *map[string]uint64) {
	n := c.Len(len(*m))
	if !c.Decoding() {
		for k, v := range *m {
			c.Str(&k)
			c.Uvarint(&v)
		}
	} else if n > 0 && bin.Charge[bin.MapEntry[string, uint64]](c, n) {
		*m = make(map[string]uint64, n)
		for ; n > 0 && !c.Failed(); n-- {
			var k string
			var v uint64
			c.Str(&k)
			c.Uvarint(&v)
			(*m)[k] = v
		}
	}
}

func walkLoads(c *bin.Codec, m *map[string]VsiteLoad) {
	n := c.Len(len(*m))
	if !c.Decoding() {
		for name, l := range *m {
			walkLoad(c, &name, &l)
		}
	} else if n > 0 && bin.Charge[bin.MapEntry[string, VsiteLoad]](c, n) {
		*m = make(map[string]VsiteLoad, n)
		for ; n > 0 && !c.Failed(); n-- {
			var name string
			var l VsiteLoad
			walkLoad(c, &name, &l)
			(*m)[name] = l
		}
	}
}

func walkLoad(c *bin.Codec, name *string, l *VsiteLoad) {
	c.Str(name)
	c.Float64(&l.Load)
	c.Int(&l.Pending)
	c.Int(&l.Inflight)
	c.Int(&l.Replicas)
	c.Int(&l.Healthy)
}

// A metrics reply is the one body that is not a walk over fields: the
// snapshots are package telemetry's type, which grows with every instrumented
// layer, so they ride as one length-prefixed JSON document — the document an
// envelope would carry. Snapshots that do not marshal go out as an empty
// document, which the decoder refuses like any malformed body. The decoded
// list goes through a local: json.Unmarshal lets its target escape, and a
// target inside m would take every message of walkMsg to the heap with it.
func walkSnapshots(c *bin.Codec, m *MetricsReply) error {
	var doc []byte
	if !c.Decoding() {
		doc, _ = json.Marshal(m.Snapshots)
	}
	c.View(&doc)
	if !c.Decoding() || c.Err() != nil {
		return nil // decode reports c.Err itself
	}
	var snaps []telemetry.Snapshot
	err := json.Unmarshal(doc, &snaps)
	m.Snapshots = snaps
	return err
}

// TransferReplyOverhead bounds the bytes a TransferReply's frame body spends
// besides its Data: the Found flag, Size, CRC and Data's length prefix. A
// receive buffer of limit+TransferReplyOverhead bytes holds the reply to any
// ranged read of at most limit bytes (Do reads it in place).
const TransferReplyOverhead = 1 + 3*binary.MaxVarintLen64

func walkFetch(c *bin.Codec, m *FetchRequest, transfer bool) {
	c.Str((*string)(&m.Job))
	c.Str(&m.File)
	c.Varint(&m.Offset)
	c.Varint(&m.Limit)
	c.Bool(&transfer)
}

// binSub is the frame form of SubscribeRequest. Once marks a one-shot
// subscription (OpSubscribe run through Do): the server
// answers with exactly one batch. A push subscription streams batches until
// the job terminates, the client sends FrameSubStop, or the stream dies.
type binSub struct {
	SubscribeRequest
	Once bool
}

func walkSub(c *bin.Codec, m *SubscribeRequest, once *bool) {
	c.Str((*string)(&m.Job))
	c.Uvarint(&m.Cursor)
	walkOrigins(c, &m.Origins)
	c.Int(&m.Max)
	c.Varint(&m.WaitMs)
	c.Bool(once)
}

// binEvents is the frame form of EventsReply. End tells a push subscriber no
// further batches follow (terminal job event delivered, or server teardown).
type binEvents struct {
	EventsReply
	End bool
}

// walkEvents names an event's repeated strings as Syms and its time as the
// offset from the event before it: a batch is one job's history, so its job
// ID, origin, types and action names repeat, and its instants are close.
func walkEvents(c *bin.Codec, m *EventsReply, end *bool) {
	c.Uvarint(&m.Cursor)
	walkOrigins(c, &m.Origins)
	c.Bool(&m.Gap)
	c.Bool(end)
	var prev time.Time
	for i := range bin.Slice(c, &m.Events) {
		ev := &m.Events[i]
		c.Sym((*string)(&ev.Job))
		c.Uvarint(&ev.Seq)
		c.Uvarint(&ev.Global)
		c.Sym(&ev.Origin)
		c.Sym((*string)(&ev.Type))
		c.Sym((*string)(&ev.Action))
		c.Int((*int)(&ev.Status))
		c.Sym(&ev.Reason)
		c.TimeAfter(&ev.Time, prev)
		prev = ev.Time
		c.Bool(&ev.Terminal)
	}
}
