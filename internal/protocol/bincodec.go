package protocol

import (
	"unicore/internal/ajo"
	"unicore/internal/bin"
	"unicore/internal/core"
	"unicore/internal/events"
)

// Compact binary codec for the hot message kinds. JSON stays the payload
// format of every signed envelope, but the frames of a v3 stream carry these
// hand-rolled uvarint encodings instead: no field names, no base64 expansion
// of chunk data, no reflection. Each encoder appends to a (possibly pooled)
// buffer; each decoder consumes a bin.Reader and leaves error handling to one
// check at the end. The primitives are package bin's, shared with the AJO
// and journal codecs.

// Binary request discriminators — the first byte of a FrameCall payload
// (the code column of the wire table in ops.go).
const (
	binConsign byte = 1
	binPoll    byte = 2
)

func appendOrigins(b []byte, m map[string]uint64) []byte {
	b = bin.AppendUvarint(b, uint64(len(m)))
	for k, v := range m {
		b = bin.AppendStr(b, k)
		b = bin.AppendUvarint(b, v)
	}
	return b
}

func readOrigins(r *bin.Reader) map[string]uint64 {
	n := r.Count()
	if n == 0 {
		return nil
	}
	m := make(map[string]uint64, n)
	for i := 0; i < n && !r.Failed(); i++ {
		k := r.Str()
		m[k] = r.Uvarint()
	}
	return m
}

// --- FrameCall header ---

// A FrameCall payload is: u8 request code, uvarint-prefixed trace ID (the
// cross-tier telemetry trace the envelope header used to carry), then the
// code-specific body.
func encCallHeader(b []byte, code byte, trace string) []byte {
	b = append(b, code)
	return bin.AppendStr(b, trace)
}

func splitCall(p []byte) (code byte, trace string, body []byte, err error) {
	if len(p) == 0 {
		return 0, "", nil, bin.ErrMalformed
	}
	r := bin.NewReader(p[1:])
	trace = r.Str()
	if r.Failed() {
		return 0, "", nil, bin.ErrMalformed
	}
	return p[0], trace, r.Rest(), nil
}

// --- consign ---

func encConsignRequest(b []byte, req ConsignRequest) []byte {
	b = bin.AppendStr(b, req.ConsignID)
	return bin.AppendBytes(b, req.AJO)
}

func decConsignRequest(p []byte) (ConsignRequest, error) {
	r := bin.NewReader(p)
	var req ConsignRequest
	req.ConsignID = r.Str()
	if raw := r.Bytes(); len(raw) > 0 {
		req.AJO = append([]byte(nil), raw...)
	}
	return req, r.Err()
}

func encConsignReply(b []byte, rep ConsignReply) []byte {
	b = bin.AppendStr(b, string(rep.Job))
	b = bin.AppendBool(b, rep.Accepted)
	return bin.AppendStr(b, rep.Reason)
}

func decConsignReply(p []byte) (ConsignReply, error) {
	r := bin.NewReader(p)
	var rep ConsignReply
	rep.Job = core.JobID(r.Str())
	rep.Accepted = r.Bool()
	rep.Reason = r.Str()
	return rep, r.Err()
}

// --- poll ---

func encPollRequest(b []byte, req PollRequest) []byte {
	return bin.AppendStr(b, string(req.Job))
}

func decPollRequest(p []byte) (PollRequest, error) {
	r := bin.NewReader(p)
	req := PollRequest{Job: core.JobID(r.Str())}
	return req, r.Err()
}

func encPollReply(b []byte, rep PollReply) []byte {
	b = bin.AppendBool(b, rep.Found)
	b = bin.AppendStr(b, rep.Summary.Job)
	b = bin.AppendVarint(b, int64(rep.Summary.Status))
	b = bin.AppendVarint(b, int64(rep.Summary.Total))
	b = bin.AppendVarint(b, int64(rep.Summary.Done))
	b = bin.AppendVarint(b, int64(rep.Summary.Failed))
	return bin.AppendTime(b, rep.Summary.Updated)
}

func decPollReply(p []byte) (PollReply, error) {
	r := bin.NewReader(p)
	var rep PollReply
	rep.Found = r.Bool()
	rep.Summary.Job = r.Str()
	rep.Summary.Status = ajo.Status(r.Varint())
	rep.Summary.Total = int(r.Varint())
	rep.Summary.Done = int(r.Varint())
	rep.Summary.Failed = int(r.Varint())
	rep.Summary.Updated = r.Time()
	return rep, r.Err()
}

// --- staged-upload chunks (FramePut / FramePutAck) ---

func encPutChunk(b []byte, req PutChunkRequest) []byte {
	b = bin.AppendStr(b, req.Handle)
	b = bin.AppendVarint(b, req.Index)
	b = bin.AppendUvarint(b, req.CRC)
	b = bin.AppendStr(b, string(req.Owner))
	return bin.AppendBytes(b, req.Data)
}

func decPutChunk(p []byte) (PutChunkRequest, error) {
	r := bin.NewReader(p)
	var req PutChunkRequest
	req.Handle = r.Str()
	req.Index = r.Varint()
	req.CRC = r.Uvarint()
	req.Owner = core.DN(r.Str())
	req.Data = r.Bytes()
	return req, r.Err()
}

func encPutAck(b []byte, rep PutChunkReply) []byte {
	return bin.AppendVarint(b, rep.Received)
}

func decPutAck(p []byte) (PutChunkReply, error) {
	r := bin.NewReader(p)
	rep := PutChunkReply{Received: r.Varint()}
	return rep, r.Err()
}

// --- ranged reads (FrameFetch / FrameData) ---

// A FrameFetch body is the frame form of both FetchRequest and
// TransferRequest. The trailing flag marks the server-role variant
// (server-to-server Uspace reads) so the gateway applies the right
// authorisation; it is the op's code in the wire table, which the server
// reads to pick the op before the body is decoded (splitRequest).
func encFetch(b []byte, req FetchRequest, transfer bool) []byte {
	b = bin.AppendStr(b, string(req.Job))
	b = bin.AppendStr(b, req.File)
	b = bin.AppendVarint(b, req.Offset)
	b = bin.AppendVarint(b, req.Limit)
	return bin.AppendBool(b, transfer)
}

func decFetch(p []byte) (FetchRequest, error) {
	r := bin.NewReader(p)
	var req FetchRequest
	req.Job = core.JobID(r.Str())
	req.File = r.Str()
	req.Offset = r.Varint()
	req.Limit = r.Varint()
	r.Bool() // the transfer flag
	return req, r.Err()
}

func encData(b []byte, rep TransferReply) []byte {
	b = bin.AppendBool(b, rep.Found)
	b = bin.AppendVarint(b, rep.Size)
	b = bin.AppendUvarint(b, rep.CRC)
	return bin.AppendBytes(b, rep.Data)
}

func decData(p []byte) (TransferReply, error) {
	r := bin.NewReader(p)
	var rep TransferReply
	rep.Found = r.Bool()
	rep.Size = r.Varint()
	rep.CRC = r.Uvarint()
	rep.Data = r.Bytes()
	return rep, r.Err()
}

// --- event subscriptions (FrameSub / FrameEvents) ---

// binSub is the frame form of SubscribeRequest. Once marks a one-shot
// subscription (the Client.Call MsgSubscribe compatibility path): the server
// answers with exactly one batch. A push subscription streams batches until
// the job terminates, the client sends FrameSubStop, or the stream dies.
type binSub struct {
	SubscribeRequest
	Once bool
}

func encSub(b []byte, s binSub) []byte {
	b = bin.AppendStr(b, string(s.Job))
	b = bin.AppendUvarint(b, s.Cursor)
	b = appendOrigins(b, s.Origins)
	b = bin.AppendVarint(b, int64(s.Max))
	b = bin.AppendVarint(b, s.WaitMs)
	return bin.AppendBool(b, s.Once)
}

func decSub(p []byte) (binSub, error) {
	r := bin.NewReader(p)
	var s binSub
	s.Job = core.JobID(r.Str())
	s.Cursor = r.Uvarint()
	s.Origins = readOrigins(r)
	s.Max = int(r.Varint())
	s.WaitMs = r.Varint()
	s.Once = r.Bool()
	return s, r.Err()
}

// binEvents is the frame form of EventsReply. End tells a push subscriber no
// further batches follow (terminal job event delivered, or server teardown).
type binEvents struct {
	EventsReply
	End bool
}

func encEvents(b []byte, e binEvents) []byte {
	b = bin.AppendUvarint(b, e.Cursor)
	b = appendOrigins(b, e.Origins)
	b = bin.AppendBool(b, e.Gap)
	b = bin.AppendBool(b, e.End)
	b = bin.AppendUvarint(b, uint64(len(e.Events)))
	for i := range e.Events {
		ev := &e.Events[i]
		b = bin.AppendStr(b, string(ev.Job))
		b = bin.AppendUvarint(b, ev.Seq)
		b = bin.AppendUvarint(b, ev.Global)
		b = bin.AppendStr(b, ev.Origin)
		b = bin.AppendStr(b, string(ev.Type))
		b = bin.AppendStr(b, string(ev.Action))
		b = bin.AppendVarint(b, int64(ev.Status))
		b = bin.AppendStr(b, ev.Reason)
		b = bin.AppendTime(b, ev.Time)
		b = bin.AppendBool(b, ev.Terminal)
	}
	return b
}

func decEvents(p []byte) (binEvents, error) {
	r := bin.NewReader(p)
	var e binEvents
	e.Cursor = r.Uvarint()
	e.Origins = readOrigins(r)
	e.Gap = r.Bool()
	e.End = r.Bool()
	n := r.Count()
	if n > 0 {
		e.Events = make([]JobEvent, 0, n)
	}
	for i := 0; i < n && !r.Failed(); i++ {
		var ev events.Event
		ev.Job = core.JobID(r.Str())
		ev.Seq = r.Uvarint()
		ev.Global = r.Uvarint()
		ev.Origin = r.Str()
		ev.Type = events.Type(r.Str())
		ev.Action = ajo.ActionID(r.Str())
		ev.Status = ajo.Status(r.Varint())
		ev.Reason = r.Str()
		ev.Time = r.Time()
		ev.Terminal = r.Bool()
		e.Events = append(e.Events, ev)
	}
	return e, r.Err()
}
