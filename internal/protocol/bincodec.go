package protocol

import (
	"encoding/json"

	"unicore/internal/ajo"
	"unicore/internal/bin"
	"unicore/internal/core"
	"unicore/internal/events"
	"unicore/internal/pki"
	"unicore/internal/telemetry"
)

// Compact binary codec for every client op. JSON stays the payload format of
// every signed envelope, but the frames of a v3 stream carry these
// hand-rolled uvarint encodings instead: no field names, no base64 expansion
// of chunk data, no reflection. Each encoder appends to a (possibly pooled)
// buffer; each decoder consumes a bin.Reader and leaves error handling to one
// check at the end. The primitives are package bin's, shared with the AJO
// and journal codecs.

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

// --- outcome ---

func encOutcomeRequest(b []byte, req OutcomeRequest) []byte {
	return bin.AppendStr(b, string(req.Job))
}

func decOutcomeRequest(p []byte) (OutcomeRequest, error) {
	r := bin.NewReader(p)
	req := OutcomeRequest{Job: core.JobID(r.Str())}
	return req, r.Err()
}

func encOutcomeReply(b []byte, rep OutcomeReply) []byte {
	b = bin.AppendBool(b, rep.Found)
	return bin.AppendBytes(b, rep.Outcome)
}

func decOutcomeReply(p []byte) (OutcomeReply, error) {
	r := bin.NewReader(p)
	rep := OutcomeReply{Found: r.Bool(), Outcome: r.Blob()}
	return rep, r.Err()
}

// --- list ---

func encListRequest(b []byte, _ ListRequest) []byte { return b }

func decListRequest(p []byte) (ListRequest, error) {
	return ListRequest{}, bin.NewReader(p).Err()
}

func encListReply(b []byte, rep ListReply) []byte {
	b = bin.AppendUvarint(b, uint64(len(rep.Jobs)))
	for i := range rep.Jobs {
		j := &rep.Jobs[i]
		b = bin.AppendStr(b, string(j.Job))
		b = bin.AppendStr(b, j.Name)
		b = bin.AppendVarint(b, int64(j.Status))
		b = bin.AppendTime(b, j.Submitted)
	}
	return b
}

func decListReply(p []byte) (ListReply, error) {
	r := bin.NewReader(p)
	var rep ListReply
	if n := r.Count(); n > 0 {
		rep.Jobs = make([]JobInfo, 0, n)
		for i := 0; i < n && !r.Failed(); i++ {
			rep.Jobs = append(rep.Jobs, JobInfo{
				Job: core.JobID(r.Str()), Name: r.Str(), Status: ajo.Status(r.Varint()), Submitted: r.Time(),
			})
		}
	}
	return rep, r.Err()
}

// --- control ---

func encControlRequest(b []byte, req ControlRequest) []byte {
	b = bin.AppendStr(b, string(req.Job))
	return bin.AppendStr(b, string(req.Op))
}

func decControlRequest(p []byte) (ControlRequest, error) {
	r := bin.NewReader(p)
	req := ControlRequest{Job: core.JobID(r.Str()), Op: ajo.ControlOp(r.Str())}
	return req, r.Err()
}

func encControlReply(b []byte, rep ControlReply) []byte {
	b = bin.AppendBool(b, rep.OK)
	return bin.AppendStr(b, rep.Reason)
}

func decControlReply(p []byte) (ControlReply, error) {
	r := bin.NewReader(p)
	rep := ControlReply{OK: r.Bool(), Reason: r.Str()}
	return rep, r.Err()
}

// --- resource pages ---

func encResourcesRequest(b []byte, req ResourcesRequest) []byte {
	return bin.AppendStr(b, string(req.Vsite))
}

func decResourcesRequest(p []byte) (ResourcesRequest, error) {
	r := bin.NewReader(p)
	req := ResourcesRequest{Vsite: core.Vsite(r.Str())}
	return req, r.Err()
}

func encResourcesReply(b []byte, rep ResourcesReply) []byte {
	b = bin.AppendUvarint(b, uint64(len(rep.PagesDER)))
	for _, der := range rep.PagesDER {
		b = bin.AppendBytes(b, der)
	}
	return b
}

func decResourcesReply(p []byte) (ResourcesReply, error) {
	r := bin.NewReader(p)
	var rep ResourcesReply
	if n := r.Count(); n > 0 {
		rep.PagesDER = make([][]byte, 0, n)
		for i := 0; i < n && !r.Failed(); i++ {
			rep.PagesDER = append(rep.PagesDER, r.Bytes())
		}
	}
	return rep, r.Err()
}

// --- applets ---

func encAppletRequest(b []byte, req AppletRequest) []byte {
	return bin.AppendStr(b, req.Name)
}

func decAppletRequest(p []byte) (AppletRequest, error) {
	r := bin.NewReader(p)
	req := AppletRequest{Name: r.Str()}
	return req, r.Err()
}

func encAppletReply(b []byte, rep AppletReply) []byte {
	b = bin.AppendStr(b, rep.Name)
	b = bin.AppendStr(b, rep.Version)
	b = bin.AppendBytes(b, rep.Payload)
	b = bin.AppendBytes(b, rep.Signature.CertDER)
	return bin.AppendBytes(b, rep.Signature.Sig)
}

func decAppletReply(p []byte) (AppletReply, error) {
	r := bin.NewReader(p)
	rep := AppletReply{Name: r.Str(), Version: r.Str(), Payload: r.Blob(),
		Signature: pki.Signature{CertDER: r.Blob(), Sig: r.Blob()}}
	return rep, r.Err()
}

// --- load ---

func encLoadRequest(b []byte, _ LoadRequest) []byte { return b }

func decLoadRequest(p []byte) (LoadRequest, error) {
	return LoadRequest{}, bin.NewReader(p).Err()
}

func encLoadReply(b []byte, rep LoadReply) []byte {
	b = bin.AppendFloat64(b, rep.Overall)
	b = bin.AppendUvarint(b, uint64(len(rep.Vsites)))
	for name, l := range rep.Vsites {
		b = bin.AppendStr(b, name)
		b = bin.AppendFloat64(b, l.Load)
		b = bin.AppendVarint(b, int64(l.Pending))
		b = bin.AppendVarint(b, int64(l.Inflight))
		b = bin.AppendVarint(b, int64(l.Replicas))
		b = bin.AppendVarint(b, int64(l.Healthy))
	}
	return b
}

func decLoadReply(p []byte) (LoadReply, error) {
	r := bin.NewReader(p)
	rep := LoadReply{Overall: r.Float64()}
	if n := r.Count(); n > 0 {
		rep.Vsites = make(map[string]VsiteLoad, n)
		for i := 0; i < n && !r.Failed(); i++ {
			name := r.Str()
			rep.Vsites[name] = VsiteLoad{Load: r.Float64(), Pending: int(r.Varint()),
				Inflight: int(r.Varint()), Replicas: int(r.Varint()), Healthy: int(r.Varint())}
		}
	}
	return rep, r.Err()
}

// --- staged-upload open and commit ---

func encPutOpenRequest(b []byte, req PutOpenRequest) []byte {
	b = bin.AppendStr(b, string(req.Vsite))
	b = bin.AppendStr(b, req.Name)
	b = bin.AppendVarint(b, req.Size)
	b = bin.AppendVarint(b, req.ChunkSize)
	b = bin.AppendVarint(b, int64(req.Window))
	return bin.AppendStr(b, string(req.Owner))
}

func decPutOpenRequest(p []byte) (PutOpenRequest, error) {
	r := bin.NewReader(p)
	req := PutOpenRequest{Vsite: core.Vsite(r.Str()), Name: r.Str(), Size: r.Varint(),
		ChunkSize: r.Varint(), Window: int(r.Varint()), Owner: core.DN(r.Str())}
	return req, r.Err()
}

func encPutOpenReply(b []byte, rep PutOpenReply) []byte {
	b = bin.AppendStr(b, rep.Handle)
	b = bin.AppendVarint(b, rep.ChunkSize)
	return bin.AppendVarint(b, int64(rep.Window))
}

func decPutOpenReply(p []byte) (PutOpenReply, error) {
	r := bin.NewReader(p)
	rep := PutOpenReply{Handle: r.Str(), ChunkSize: r.Varint(), Window: int(r.Varint())}
	return rep, r.Err()
}

func encPutCommitRequest(b []byte, req PutCommitRequest) []byte {
	b = bin.AppendStr(b, req.Handle)
	b = bin.AppendUvarint(b, req.CRC)
	return bin.AppendStr(b, string(req.Owner))
}

func decPutCommitRequest(p []byte) (PutCommitRequest, error) {
	r := bin.NewReader(p)
	req := PutCommitRequest{Handle: r.Str(), CRC: r.Uvarint(), Owner: core.DN(r.Str())}
	return req, r.Err()
}

func encPutCommitReply(b []byte, rep PutCommitReply) []byte {
	b = bin.AppendVarint(b, rep.Size)
	b = bin.AppendUvarint(b, rep.CRC)
	return bin.AppendVarint(b, rep.Chunks)
}

func decPutCommitReply(p []byte) (PutCommitReply, error) {
	r := bin.NewReader(p)
	rep := PutCommitReply{Size: r.Varint(), CRC: r.Uvarint(), Chunks: r.Varint()}
	return rep, r.Err()
}

// --- metrics ---

func encMetricsRequest(b []byte, req MetricsRequest) []byte {
	b = bin.AppendBool(b, req.PerReplica)
	return bin.AppendBool(b, req.Spans)
}

func decMetricsRequest(p []byte) (MetricsRequest, error) {
	r := bin.NewReader(p)
	req := MetricsRequest{PerReplica: r.Bool(), Spans: r.Bool()}
	return req, r.Err()
}

// A metrics reply is the one body that is not hand-coded fields: the
// snapshots are package telemetry's type, which grows with every instrumented
// layer, so they ride as one length-prefixed JSON document — the document an
// envelope would carry. Snapshots that do not marshal go out as an empty
// document, which the decoder refuses like any malformed body.
func encMetricsReply(b []byte, rep MetricsReply) []byte {
	doc, _ := json.Marshal(rep.Snapshots)
	return bin.AppendBytes(b, doc)
}

func decMetricsReply(p []byte) (MetricsReply, error) {
	r := bin.NewReader(p)
	doc := r.Bytes()
	if err := r.Err(); err != nil {
		return MetricsReply{}, err
	}
	var snaps []telemetry.Snapshot
	err := json.Unmarshal(doc, &snaps)
	return MetricsReply{Snapshots: snaps}, err
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
