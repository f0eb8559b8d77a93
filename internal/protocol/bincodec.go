package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"unicore/internal/ajo"
	"unicore/internal/core"
	"unicore/internal/events"
)

// Compact binary codec for the hot message kinds. JSON stays the payload
// format of every signed envelope, but the frames of a v3 stream carry these
// hand-rolled uvarint encodings instead: no field names, no base64 expansion
// of chunk data, no reflection. Each encoder appends to a (possibly pooled)
// buffer; each decoder consumes a binReader and leaves error handling to one
// check at the end.

// Binary request discriminators — the first byte of a FrameCall payload
// (the code column of the wire table in ops.go).
const (
	binConsign byte = 1
	binPoll    byte = 2
)

var errBinCodec = errors.New("protocol: malformed binary payload")

type binReader struct {
	b   []byte
	bad bool
}

func (r *binReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.bad = true
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *binReader) varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.bad = true
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *binReader) bytes() []byte {
	n := r.uvarint()
	if r.bad || uint64(len(r.b)) < n {
		r.bad = true
		return nil
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

func (r *binReader) string() string { return string(r.bytes()) }

func (r *binReader) bool() bool { return r.uvarint() != 0 }

func (r *binReader) time() time.Time {
	// Zero marks the zero time distinctly from unix nano 0. UTC matches what
	// the JSON envelope path yields after an RFC 3339 round trip, so the two
	// decodings of one event compare equal.
	v := r.varint()
	if v == 0 {
		return time.Time{}
	}
	return time.Unix(0, v).UTC()
}

// err returns the decode verdict: one check covers the whole message.
func (r *binReader) err() error {
	if r.bad {
		return errBinCodec
	}
	if len(r.b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", errBinCodec, len(r.b))
	}
	return nil
}

func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }
func appendVarint(b []byte, v int64) []byte   { return binary.AppendVarint(b, v) }

func appendBytes(b []byte, v []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

func appendString(b []byte, v string) []byte {
	b = binary.AppendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendTime(b []byte, t time.Time) []byte {
	if t.IsZero() {
		return binary.AppendVarint(b, 0)
	}
	return binary.AppendVarint(b, t.UnixNano())
}

func appendOrigins(b []byte, m map[string]uint64) []byte {
	b = binary.AppendUvarint(b, uint64(len(m)))
	for k, v := range m {
		b = appendString(b, k)
		b = binary.AppendUvarint(b, v)
	}
	return b
}

func (r *binReader) origins() map[string]uint64 {
	n := r.uvarint()
	if n == 0 || r.bad {
		return nil
	}
	if n > uint64(len(r.b)) { // each entry is ≥ 2 bytes; cheap bound first
		r.bad = true
		return nil
	}
	m := make(map[string]uint64, n)
	for i := uint64(0); i < n && !r.bad; i++ {
		k := r.string()
		m[k] = r.uvarint()
	}
	return m
}

// --- FrameCall header ---

// A FrameCall payload is: u8 request code, uvarint-prefixed trace ID (the
// cross-tier telemetry trace the envelope header used to carry), then the
// code-specific body.
func encCallHeader(b []byte, code byte, trace string) []byte {
	b = append(b, code)
	return appendString(b, trace)
}

func splitCall(p []byte) (code byte, trace string, body []byte, err error) {
	if len(p) == 0 {
		return 0, "", nil, errBinCodec
	}
	r := &binReader{b: p[1:]}
	trace = r.string()
	if r.bad {
		return 0, "", nil, errBinCodec
	}
	return p[0], trace, r.b, nil
}

// --- consign ---

func encConsignRequest(b []byte, req ConsignRequest) []byte {
	b = appendString(b, req.ConsignID)
	return appendBytes(b, req.AJO)
}

func decConsignRequest(p []byte) (ConsignRequest, error) {
	r := &binReader{b: p}
	var req ConsignRequest
	req.ConsignID = r.string()
	if raw := r.bytes(); len(raw) > 0 {
		req.AJO = append([]byte(nil), raw...)
	}
	return req, r.err()
}

func encConsignReply(b []byte, rep ConsignReply) []byte {
	b = appendString(b, string(rep.Job))
	b = appendBool(b, rep.Accepted)
	return appendString(b, rep.Reason)
}

func decConsignReply(p []byte) (ConsignReply, error) {
	r := &binReader{b: p}
	var rep ConsignReply
	rep.Job = core.JobID(r.string())
	rep.Accepted = r.bool()
	rep.Reason = r.string()
	return rep, r.err()
}

// --- poll ---

func encPollRequest(b []byte, req PollRequest) []byte {
	return appendString(b, string(req.Job))
}

func decPollRequest(p []byte) (PollRequest, error) {
	r := &binReader{b: p}
	req := PollRequest{Job: core.JobID(r.string())}
	return req, r.err()
}

func encPollReply(b []byte, rep PollReply) []byte {
	b = appendBool(b, rep.Found)
	b = appendString(b, rep.Summary.Job)
	b = appendVarint(b, int64(rep.Summary.Status))
	b = appendVarint(b, int64(rep.Summary.Total))
	b = appendVarint(b, int64(rep.Summary.Done))
	b = appendVarint(b, int64(rep.Summary.Failed))
	return appendTime(b, rep.Summary.Updated)
}

func decPollReply(p []byte) (PollReply, error) {
	r := &binReader{b: p}
	var rep PollReply
	rep.Found = r.bool()
	rep.Summary.Job = r.string()
	rep.Summary.Status = ajo.Status(r.varint())
	rep.Summary.Total = int(r.varint())
	rep.Summary.Done = int(r.varint())
	rep.Summary.Failed = int(r.varint())
	rep.Summary.Updated = r.time()
	return rep, r.err()
}

// --- staged-upload chunks (FramePut / FramePutAck) ---

func encPutChunk(b []byte, req PutChunkRequest) []byte {
	b = appendString(b, req.Handle)
	b = appendVarint(b, req.Index)
	b = appendUvarint(b, req.CRC)
	b = appendString(b, string(req.Owner))
	return appendBytes(b, req.Data)
}

func decPutChunk(p []byte) (PutChunkRequest, error) {
	r := &binReader{b: p}
	var req PutChunkRequest
	req.Handle = r.string()
	req.Index = r.varint()
	req.CRC = r.uvarint()
	req.Owner = core.DN(r.string())
	req.Data = r.bytes()
	return req, r.err()
}

func encPutAck(b []byte, rep PutChunkReply) []byte {
	return appendVarint(b, rep.Received)
}

func decPutAck(p []byte) (PutChunkReply, error) {
	r := &binReader{b: p}
	rep := PutChunkReply{Received: r.varint()}
	return rep, r.err()
}

// --- ranged reads (FrameFetch / FrameData) ---

// A FrameFetch body is the frame form of both FetchRequest and
// TransferRequest. The trailing flag marks the server-role variant
// (server-to-server Uspace reads) so the gateway applies the right
// authorisation; it is the op's code in the wire table, which the server
// reads to pick the op before the body is decoded (splitRequest).
func encFetch(b []byte, req FetchRequest, transfer bool) []byte {
	b = appendString(b, string(req.Job))
	b = appendString(b, req.File)
	b = appendVarint(b, req.Offset)
	b = appendVarint(b, req.Limit)
	return appendBool(b, transfer)
}

func decFetch(p []byte) (FetchRequest, error) {
	r := &binReader{b: p}
	var req FetchRequest
	req.Job = core.JobID(r.string())
	req.File = r.string()
	req.Offset = r.varint()
	req.Limit = r.varint()
	r.bool() // the transfer flag
	return req, r.err()
}

func encData(b []byte, rep TransferReply) []byte {
	b = appendBool(b, rep.Found)
	b = appendVarint(b, rep.Size)
	b = appendUvarint(b, rep.CRC)
	return appendBytes(b, rep.Data)
}

func decData(p []byte) (TransferReply, error) {
	r := &binReader{b: p}
	var rep TransferReply
	rep.Found = r.bool()
	rep.Size = r.varint()
	rep.CRC = r.uvarint()
	rep.Data = r.bytes()
	return rep, r.err()
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
	b = appendString(b, string(s.Job))
	b = appendUvarint(b, s.Cursor)
	b = appendOrigins(b, s.Origins)
	b = appendVarint(b, int64(s.Max))
	b = appendVarint(b, s.WaitMs)
	return appendBool(b, s.Once)
}

func decSub(p []byte) (binSub, error) {
	r := &binReader{b: p}
	var s binSub
	s.Job = core.JobID(r.string())
	s.Cursor = r.uvarint()
	s.Origins = r.origins()
	s.Max = int(r.varint())
	s.WaitMs = r.varint()
	s.Once = r.bool()
	return s, r.err()
}

// binEvents is the frame form of EventsReply. End tells a push subscriber no
// further batches follow (terminal job event delivered, or server teardown).
type binEvents struct {
	EventsReply
	End bool
}

func encEvents(b []byte, e binEvents) []byte {
	b = appendUvarint(b, e.Cursor)
	b = appendOrigins(b, e.Origins)
	b = appendBool(b, e.Gap)
	b = appendBool(b, e.End)
	b = appendUvarint(b, uint64(len(e.Events)))
	for i := range e.Events {
		ev := &e.Events[i]
		b = appendString(b, string(ev.Job))
		b = appendUvarint(b, ev.Seq)
		b = appendUvarint(b, ev.Global)
		b = appendString(b, ev.Origin)
		b = appendString(b, string(ev.Type))
		b = appendString(b, string(ev.Action))
		b = appendVarint(b, int64(ev.Status))
		b = appendString(b, ev.Reason)
		b = appendTime(b, ev.Time)
		b = appendBool(b, ev.Terminal)
	}
	return b
}

func decEvents(p []byte) (binEvents, error) {
	r := &binReader{b: p}
	var e binEvents
	e.Cursor = r.uvarint()
	e.Origins = r.origins()
	e.Gap = r.bool()
	e.End = r.bool()
	n := r.uvarint()
	if r.bad || n > uint64(len(r.b)) { // ≥ 10 bytes per event; cheap bound
		r.bad = true
		return e, r.err()
	}
	if n > 0 {
		e.Events = make([]JobEvent, 0, n)
	}
	for i := uint64(0); i < n && !r.bad; i++ {
		var ev events.Event
		ev.Job = core.JobID(r.string())
		ev.Seq = r.uvarint()
		ev.Global = r.uvarint()
		ev.Origin = r.string()
		ev.Type = events.Type(r.string())
		ev.Action = ajo.ActionID(r.string())
		ev.Status = ajo.Status(r.varint())
		ev.Reason = r.string()
		ev.Time = r.time()
		ev.Terminal = r.bool()
		e.Events = append(e.Events, ev)
	}
	return e, r.err()
}
