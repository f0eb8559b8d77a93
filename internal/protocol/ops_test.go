package protocol

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"unicore/internal/ajo"
	"unicore/internal/bin/bintest"
	"unicore/internal/core"
	"unicore/internal/events"
	"unicore/internal/pki"
	"unicore/internal/telemetry"
)

// wrongTypeTransport answers every POST with a correctly server-signed reply
// of one fixed type, whatever was asked.
type wrongTypeTransport struct {
	rig     *testRig
	rt      MsgType
	payload any
}

func (w wrongTypeTransport) Post(context.Context, string, []byte) ([]byte, error) {
	return Seal(w.rig.server, w.rt, w.payload)
}

func (wrongTypeTransport) OpenStream(context.Context, string) (net.Conn, error) {
	return nil, ErrNoStream
}

// TestEnvelopeClientChecksReplyType: a server-signed list-reply answering the
// one op that travels as an envelope must be an error, not a zero reply read
// as "no advertisements". The op's own reply type and a signed error reply
// still get through.
func TestEnvelopeClientChecksReplyType(t *testing.T) {
	r := newRig(t)
	call := func(rt MsgType, payload any) (FedAdvertiseReply, error) {
		c := NewClient(wrongTypeTransport{rig: r, rt: rt, payload: payload}, r.user, r.ca, r.reg)
		var reply FedAdvertiseReply
		err := c.Call(context.Background(), "FZJ", MsgFedAdvertise, FedAdvertiseRequest{From: "LRZ"}, &reply)
		return reply, err
	}
	if _, err := call(MsgListReply, ListReply{}); err == nil || !strings.Contains(err.Error(), string(MsgListReply)) {
		t.Fatalf("list-reply answering gossip: err = %v, want a reply-type error", err)
	}
	// The check holds when the caller discards the reply, too.
	c := NewClient(wrongTypeTransport{rig: r, rt: MsgListReply, payload: ListReply{}}, r.user, r.ca, r.reg)
	if err := c.Call(context.Background(), "FZJ", MsgFedAdvertise, FedAdvertiseRequest{}, nil); err == nil {
		t.Fatal("list-reply answering gossip with a discarded reply: no error")
	}
	if reply, err := call(MsgFedAdvertiseReply, FedAdvertiseReply{Ads: []FedAd{{}}}); err != nil || len(reply.Ads) != 1 {
		t.Fatalf("fed-advertise-reply answering gossip: %+v, %v", reply, err)
	}
	var er *ErrorReply
	if _, err := call(MsgError, ErrorReply{Code: "fed-advertise", Message: "boom"}); !errors.As(err, &er) || er.Message != "boom" {
		t.Fatalf("error reply answering gossip: err = %v", err)
	}
	// Every other op rides the stream, and a transport without one is an
	// error by name, not a second protocol.
	if err := Do(context.Background(), c, "FZJ", OpPoll, PollRequest{}, nil); !errors.Is(err, ErrNoStream) {
		t.Fatalf("poll over a POST-only transport: err = %v, want ErrNoStream", err)
	}
}

// countingTransport answers every POST like wrongTypeTransport and counts
// what the client tried to send, by either path.
type countingTransport struct {
	wrongTypeTransport
	posts, streams int
}

func (c *countingTransport) Post(ctx context.Context, base string, body []byte) ([]byte, error) {
	c.posts++
	return c.wrongTypeTransport.Post(ctx, base, body)
}

func (c *countingTransport) OpenStream(ctx context.Context, base string) (net.Conn, error) {
	c.streams++
	return c.wrongTypeTransport.OpenStream(ctx, base)
}

// TestCallIsTheEnvelopeDoorOnly: Call refuses every op that has a frame form
// with ErrStreamOp naming the op, before anything reaches the transport — a
// stream op runs through Do — and gossip, the op without one, still goes
// through it as a signed envelope.
func TestCallIsTheEnvelopeDoorOnly(t *testing.T) {
	r := newRig(t)
	tr := &countingTransport{wrongTypeTransport: wrongTypeTransport{rig: r, rt: MsgFedAdvertiseReply, payload: FedAdvertiseReply{Ads: []FedAd{{}}}}}
	c := NewClient(tr, r.user, r.ca, r.reg)
	for _, o := range ops {
		if o.wire == nil {
			continue
		}
		err := c.Call(context.Background(), "FZJ", o.request, nil, nil)
		if !errors.Is(err, ErrStreamOp) || !strings.Contains(err.Error(), string(o.request)) {
			t.Errorf("Call(%s): err = %v, want ErrStreamOp naming the op", o.request, err)
		}
	}
	if tr.posts != 0 || tr.streams != 0 {
		t.Fatalf("refused calls reached the transport: %d posts, %d stream dials", tr.posts, tr.streams)
	}
	var reply FedAdvertiseReply
	if err := c.Call(context.Background(), "FZJ", MsgFedAdvertise, FedAdvertiseRequest{From: "LRZ"}, &reply); err != nil || len(reply.Ads) != 1 {
		t.Fatalf("gossip through Call: %+v, %v", reply, err)
	}
	if tr.posts != 1 || tr.streams != 0 {
		t.Errorf("gossip: %d posts, %d stream dials; want one signed envelope", tr.posts, tr.streams)
	}
}

// codecFuzzer is implemented, in this test file, by every row of the wire
// table: the table is ranged over without naming its instantiations, so a new
// framed op is fuzzed without editing the test.
type codecFuzzer interface {
	roundTrip(t *testing.T, msg MsgType, reqs, reps []any)
	everyField(t *testing.T, msg MsgType)
	outlivesFrame(t *testing.T, msg MsgType)
	missingWalks() []string
	fuzzCodecs(t *testing.T, msg MsgType, p []byte)
	seedCodecs(add func([]byte), reqs, reps []any)
	encodeZero(trace string) ([]byte, error)
}

// roundTrip runs v through its walk in both directions: decode(encode(v)).
func roundTrip[T any](v T) (got T, err error) {
	b, err := encode(nil, &v)
	if err == nil {
		err = decode(b, &got)
	}
	return got, err
}

// stable requires the decode of p as a T to stay within its budget, accepted
// or not, and encode(decode(p)) to be a fixed point: what the walk of T
// accepts re-encodes to bytes it accepts again, as the same value. (Compared
// as values, not bytes: a decoder accepts non-canonical varints, and an
// origins map encodes in map order.)
func stable[T any](t *testing.T, what string, p []byte) {
	var v T
	// A metrics reply's snapshots are one JSON document, decoded by
	// encoding/json outside the budget (walkSnapshots).
	if _, json := any(&v).(*MetricsReply); !json {
		bintest.WithinBudget(t, what, len(p), func() {
			var v T
			decode(p, &v)
		})
	}
	if decode(p, &v) != nil {
		return
	}
	again, err := roundTrip(v)
	if err != nil {
		t.Fatalf("%s: re-encoding of an accepted input is rejected: %v (input %x)", what, err, p)
	}
	if !reflect.DeepEqual(v, again) {
		t.Fatalf("%s: %+v re-encodes to %+v (input %x)", what, v, again, p)
	}
}

func (o *Op[Req, Rep]) fuzzCodecs(t *testing.T, msg MsgType, p []byte) {
	stable[Req](t, string(msg)+" request", p)
	stable[Rep](t, string(msg)+" reply", p)
}

// codecSamples returns one populated value of every request and reply type
// the wire table carries — the round-trip test's inputs and the fuzzer's seed
// corpus.
func codecSamples() (reqs, reps []any) {
	now := time.Unix(0, 1234567890123456789).UTC()
	reqs = []any{
		ConsignRequest{ConsignID: "c-1", AJO: []byte(`{"job":1}`)},
		PollRequest{Job: "FZJ-000002"},
		PutChunkRequest{Handle: "h-1", Index: 3, CRC: 0xDEADBEEF, Data: []byte{1, 2, 3}},
		FetchRequest{Job: "FZJ-000003", File: "out.dat", Offset: 1 << 20, Limit: 256 << 10},
		TransferRequest{Job: "FZJ-000003", File: "out.dat", Offset: 1 << 20, Limit: 256 << 10},
		SubscribeRequest{Job: "FZJ-000004", Cursor: 17, Origins: map[string]uint64{"fzj": 9, "dwd": 3}, Max: 64, WaitMs: 30000},
		OutcomeRequest{Job: "FZJ-000005"},
		ListRequest{},
		ControlRequest{Job: "FZJ-000006", Op: ajo.OpHold},
		ResourcesRequest{Vsite: "T3E"},
		AppletRequest{Name: "jpa"},
		LoadRequest{},
		PutOpenRequest{Vsite: "T3E", Name: "in.dat", Size: 16 << 20, ChunkSize: 1 << 20, Window: 8},
		PutCommitRequest{Handle: "h-1", CRC: 0xFEEDFACE},
		MetricsRequest{PerReplica: true, Spans: true},
	}
	reps = []any{
		ConsignReply{Job: "FZJ-000001", Accepted: true, Reason: "ok"},
		PollReply{Found: true, Summary: ajo.Summary{Job: "FZJ-000002", Status: ajo.StatusRunning, Total: 5, Done: 2, Failed: 1, Updated: now}},
		PutChunkReply{Received: 4},
		TransferReply{Found: true, Size: 1 << 20, CRC: 0xCAFE, Data: bytes.Repeat([]byte{9}, 512)},
		EventsReply{Cursor: 21, Origins: map[string]uint64{"fzj": 21}, Events: []events.Event{{
			Job: "FZJ-000004", Seq: 2, Global: 21, Origin: "fzj", Type: events.Type("status"),
			Action: ajo.ActionID("s1"), Status: ajo.StatusSuccessful, Reason: "done", Time: now, Terminal: true,
		}}},
		OutcomeReply{Found: true, Outcome: &ajo.Outcome{Action: "j", Kind: ajo.KindJob, Status: ajo.StatusFailed, Reason: "s1 failed",
			Children: []*ajo.Outcome{{Action: "s1", Kind: ajo.KindScript, Status: ajo.StatusFailed, ExitCode: 2,
				Stdout: []byte("out"), Files: []ajo.FileRecord{{Path: "f", Size: 3, CRC: 9}}, Started: now, Finished: now}}}},
		ListReply{Jobs: []JobInfo{{Job: "FZJ-000007", Name: "nightly", Status: ajo.StatusQueued, Submitted: now}}},
		ControlReply{Reason: "job already finished"},
		ResourcesReply{PagesDER: [][]byte{{0x30, 0x03, 1, 2, 3}, {0x30, 0x00}}},
		AppletReply{Name: "jpa", Version: "1.2", Payload: []byte("applet"),
			Signature: pki.Signature{CertDER: []byte{0x30, 0x01}, Sig: []byte{7, 7}}},
		LoadReply{Overall: 0.25, Vsites: map[string]VsiteLoad{"T3E": {Load: 0.5, Pending: 3, Inflight: 1, Replicas: 2, Healthy: 1}}},
		PutOpenReply{Handle: "h-2", ChunkSize: 1 << 20, Window: 8},
		PutCommitReply{Size: 16 << 20, CRC: 0xFEEDFACE, Chunks: 16},
		MetricsReply{Snapshots: []telemetry.Snapshot{{Origin: "usite/FZJ", Taken: now,
			Metrics: []telemetry.MetricPoint{{Name: "consign_total", Kind: telemetry.KindCounter, Value: 4}}}}},
	}
	return reqs, reps
}

// sample returns codecSamples' value of type T.
func sample[T any](vs []any) T {
	for _, v := range vs {
		if x, ok := v.(T); ok {
			return x
		}
	}
	panic("codecSamples has no value of the requested type")
}

// roundTrip requires decode(encode(v)) to compare deeply equal to v for every
// sample of the row's own types — the same equality the event-stream recovery
// tests demand between the JSON and binary decodings of one event.
func (o *Op[Req, Rep]) roundTrip(t *testing.T, msg MsgType, reqs, reps []any) {
	tried := 0
	for _, v := range reqs {
		if req, ok := v.(Req); ok {
			tried++
			if got, err := roundTrip(req); err != nil || !reflect.DeepEqual(got, req) {
				t.Errorf("%s request: %+v, %v; want %+v", msg, got, err, req)
			}
		}
	}
	for _, v := range reps {
		if rep, ok := v.(Rep); ok {
			tried++
			if got, err := roundTrip(rep); err != nil || !reflect.DeepEqual(got, rep) {
				t.Errorf("%s reply: %+v, %v; want %+v", msg, got, err, rep)
			}
		}
	}
	if tried < 2 {
		t.Errorf("%s: codecSamples has no sample of its request or reply type", msg)
	}
}

// everyField fills the row's request and reply by reflection — every
// exported field non-zero — and requires both to survive their walks: a field
// added to a message and not named in its walk fails here by name.
func (o *Op[Req, Rep]) everyField(t *testing.T, msg MsgType) {
	var req Req
	bintest.Fill(t, &req)
	if got, err := roundTrip(req); err != nil || !reflect.DeepEqual(got, req) {
		t.Errorf("%s request:\n got %+v, %v\nwant %+v", msg, got, err, req)
	}
	var rep Rep
	bintest.Fill(t, &rep)
	if got, err := roundTrip(rep); err != nil || !reflect.DeepEqual(got, rep) {
		t.Errorf("%s reply:\n got %+v, %v\nwant %+v", msg, got, err, rep)
	}
}

// TestEveryWireFieldSurvives runs everyField over the whole wire table.
func TestEveryWireFieldSurvives(t *testing.T) {
	for _, o := range ops {
		if o.wire != nil {
			o.wire.(codecFuzzer).everyField(t, o.request)
		}
	}
}

// outlivesFrame fills the row's control messages by reflection, decodes each
// from a copy of its encoding, and overwrites the copy: the decoded message
// must not change, since a control frame's receive buffer is reused once its
// message is decoded (readPayload). A data frame's message — a put chunk's
// request, a data reply — aliases its payload by design and is skipped.
func (o *Op[Req, Rep]) outlivesFrame(t *testing.T, msg MsgType) {
	if o.kind != FramePut {
		outlives[Req](t, string(msg)+" request")
	}
	if o.answer != FrameData {
		outlives[Rep](t, string(msg)+" reply")
	}
}

func outlives[T any](t *testing.T, what string) {
	var want T
	bintest.Fill(t, &want)
	p := bytes.Clone(mustEncode(want))
	var got T
	if err := decode(p, &got); err != nil {
		t.Errorf("%s: %v", what, err)
		return
	}
	for i := range p {
		p[i] = 0xFF
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s changed with the frame it was decoded from:\n got %+v\nwant %+v", what, got, want)
	}
}

// TestDecodedControlMessagesOutliveTheirFrame runs outlivesFrame over the
// whole wire table.
func TestDecodedControlMessagesOutliveTheirFrame(t *testing.T) {
	for _, o := range ops {
		if o.wire != nil {
			o.wire.(codecFuzzer).outlivesFrame(t, o.request)
		}
	}
}

// missingWalks names those of the row's two types walkMsg has no case for.
func (o *Op[Req, Rep]) missingWalks() (missing []string) {
	if _, err := encode(nil, new(Req)); errors.Is(err, errNoWalk) {
		missing = append(missing, fmt.Sprintf("%T", new(Req)))
	}
	if _, err := encode(nil, new(Rep)); errors.Is(err, errNoWalk) {
		missing = append(missing, fmt.Sprintf("%T", new(Rep)))
	}
	return missing
}

// encodeZero runs the row's zero request through the client's encoder.
func (o *Op[Req, Rep]) encodeZero(trace string) ([]byte, error) {
	var req Req
	return o.encodeRequest(nil, &req, trace)
}

// mustEncode is encode for a message known to have its walk.
func mustEncode[T any](v T) []byte {
	b, err := encode(nil, &v)
	if err != nil {
		panic(err)
	}
	return b
}

func (o *Op[Req, Rep]) seedCodecs(add func([]byte), reqs, reps []any) {
	for _, v := range reqs {
		if req, ok := v.(Req); ok {
			add(mustEncode(req))
		}
	}
	for _, v := range reps {
		if rep, ok := v.(Rep); ok {
			add(mustEncode(rep))
		}
	}
}

// FuzzStreamBodyDecoders feeds arbitrary bytes to every per-kind body decoder
// in the wire table — what a stream peer can put in a frame after the hello:
// no decoder may panic or allocate more than its budget, and anything one
// accepts must re-encode stably. The
// frame forms that carry a flag beyond the table's request and reply types
// (binSub.Once, binEvents.End) are fuzzed alongside.
func FuzzStreamBodyDecoders(f *testing.F) {
	reqs, reps := codecSamples()
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	for _, o := range ops {
		if o.wire != nil {
			o.wire.(codecFuzzer).seedCodecs(func(p []byte) { f.Add(p) }, reqs, reps)
		}
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		for _, o := range ops {
			if o.wire != nil {
				o.wire.(codecFuzzer).fuzzCodecs(t, o.request, p)
			}
		}
		stable[binSub](t, "sub frame", p)
		stable[binEvents](t, "events frame", p)
		for _, kind := range []byte{FrameCall, FramePut, FrameFetch} {
			if _, _, body, err := splitRequest(kind, p); err == nil && len(body) > len(p) {
				t.Fatalf("splitRequest(%#x) grew the body", kind)
			}
		}
	})
}

// TestWireTableIsConsistent checks what the table's users assume: request
// types and frame (kind, code) pairs are unique, every row's request and
// reply type has its walk, every framed request encodes
// to a body its own row's decoder accepts and splitRequest routes back to
// that row, and a frame no row claims resolves to no row.
func TestWireTableIsConsistent(t *testing.T) {
	if len(opByRequest) != len(ops) {
		t.Fatalf("%d rows index to %d request types: a request type is listed twice", len(ops), len(opByRequest))
	}
	framed := 0
	for _, o := range ops {
		if o.wire == nil {
			// Only what no client sends over a stream may lack a frame form.
			if o.request != MsgFedAdvertise && o.request != MsgHello {
				t.Errorf("%s has no frame form: a client would need a second connection for it", o.request)
			}
			continue
		}
		framed++
		kind, code, answer := o.wire.frames()
		if FrameKindName(kind) == fmt.Sprintf("0x%02x", kind) || FrameKindName(answer) == fmt.Sprintf("0x%02x", answer) {
			t.Errorf("%s rides unnamed frame kinds %#x/%#x", o.request, kind, answer)
		}
		// Both of the row's types have a case in walkMsg.
		for _, missing := range o.wire.(codecFuzzer).missingWalks() {
			t.Errorf("%s: walkMsg has no case for %s", o.request, missing)
		}
		// The zero request of the row's type, through the client's encoder.
		body, err := o.wire.(codecFuzzer).encodeZero("trace-1")
		if err != nil {
			t.Fatalf("%s: encodeRequest refuses the zero request: %v", o.request, err)
		}
		gotCode, trace, _, err := splitRequest(kind, body)
		if err != nil || gotCode != code {
			t.Errorf("%s: splitRequest = code %d, %v; the row says code %d", o.request, gotCode, err, code)
		}
		if kind == FrameCall && trace != "trace-1" {
			t.Errorf("%s: trace %q did not survive the call header", o.request, trace)
		}
		if opByFrame[[2]byte{kind, code}] != o.wire {
			t.Errorf("%s: frame (%#x, %d) resolves to another row", o.request, kind, code)
		}
	}
	if len(opByFrame) != framed {
		t.Fatalf("%d framed rows index to %d (kind, code) pairs: two rows share a frame", framed, len(opByFrame))
	}
	if opByFrame[[2]byte{FrameCall, 0xEE}] != nil || opByFrame[[2]byte{0x55, 0}] != nil {
		t.Fatal("an unknown call code or frame kind resolves to a row")
	}
}

// walkless is a message type walkMsg has no case for: what a row added to the
// table without its walk looks like.
type walkless struct{ N int }

// TestRowWithoutWalkIsANamedError: a row whose request or reply type has no
// walk answers with an error naming the type on every path through it — the
// client's encoder and decoder, and the serving side as a bad-frame error —
// and never with a panic in the session goroutine.
func TestRowWithoutWalkIsANamedError(t *testing.T) {
	served := false
	row := &Op[walkless, walkless]{msg: "walkless", kind: FrameCall, code: 0xEE, answer: FrameReply,
		backend: func(StreamBackend, context.Context, core.DN, bool, walkless) (walkless, error) {
			served = true
			return walkless{}, nil
		}}
	named := func(err error) bool {
		return errors.Is(err, errNoWalk) && strings.Contains(err.Error(), "walkless")
	}
	if missing := row.missingWalks(); len(missing) != 2 {
		t.Fatalf("missingWalks = %v, want both types", missing)
	}
	if _, err := row.encodeRequest(nil, &walkless{}, ""); !named(err) {
		t.Errorf("encodeRequest: %v", err)
	}
	var rep walkless
	if err := row.decodeReply(Frame{Kind: FrameReply}, &rep); !named(err) {
		t.Errorf("decodeReply: %v", err)
	}

	client, server := net.Pipe()
	defer client.Close()
	go func() {
		row.serveFrame(context.Background(), &streamSession{conn: server}, 7, nil)
		server.Close()
	}()
	f, err := readFrame(client, new([frameHeaderLen]byte), MaxFramePayload)
	if err != nil {
		t.Fatal(err)
	}
	code, msg := parseStreamError(f.Payload)
	if f.Kind != FrameError || f.ID != 7 || code != StreamErrBadFrame || !strings.Contains(msg, "walkless") {
		t.Errorf("serveFrame answered kind %#x id %d code %d %q, want a bad-frame error naming the type", f.Kind, f.ID, code, msg)
	}
	if served {
		t.Error("the backend ran on a request that was never decoded")
	}
}

// freshIDs numbers job IDs no decoder in this test binary has seen, however
// often a test runs (go test -count).
var freshIDs int

// TestWalksStayOnTheStack is the escape guard of walkMsg: encoding into a
// buffer with room allocates nothing, and decoding allocates the lists the
// message holds and its strings' arena (package bin), and nothing else. A
// single-string message costs exactly one allocation the first time its
// string is seen and none once it is interned, so a walk that lets its
// message or its codec escape — a function-typed codec column, a field's
// address handed to json.Unmarshal — costs every frame of every op an
// allocation or two and fails here before it fails the benchmark gate. An
// event list costs its slice plus a number of arena chunks logarithmic in its
// size, not five strings an event.
func TestWalksStayOnTheStack(t *testing.T) {
	var poll PollReply
	bintest.Fill(t, &poll)
	var evs binEvents
	bintest.Fill(t, &evs)
	evs.Origins = nil // what a map costs to make is the runtime's business
	buf := make([]byte, 0, 4096)
	if n := testing.AllocsPerRun(100, func() {
		p, e := poll, evs // copies of this run's own, so an escaping message shows
		encode(buf, &p)
		encode(buf, &e)
	}); n != 0 {
		t.Errorf("encoding a PollReply and a binEvents allocates %.0f times, want 0", n)
	}
	pollBody, evsBody := mustEncode(poll), mustEncode(evs)
	decodes := func(run func() error) float64 {
		return testing.AllocsPerRun(100, func() {
			if err := run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	if n := decodes(func() error { var m PollReply; return decode(pollBody, &m) }); n != 0 {
		t.Errorf("decoding a PollReply allocates %.0f times once warm, want 0: its job ID is interned", n)
	}
	// A job ID never seen before, one for each run and the warm-up call.
	fresh := make([][]byte, 101)
	for i := range fresh {
		p := poll
		freshIDs++
		p.Summary.Job = fmt.Sprintf("WALK-FRESH-%06d", freshIDs)
		fresh[i] = mustEncode(p)
	}
	next := 0
	if n := decodes(func() error { var m PollReply; next++; return decode(fresh[next-1], &m) }); n != 1 {
		t.Errorf("decoding a PollReply with a fresh job ID allocates %.0f times, want 1: the job ID", n)
	}
	if n := decodes(func() error { var m binEvents; return decode(evsBody, &m) }); n > 4 {
		t.Errorf("decoding a binEvents of %d events allocates %.0f times, want at most 4: the list and its strings' arena", len(evs.Events), n)
	}
	// A job's whole history in one batch, shaped like a real one.
	many := binEvents{EventsReply: EventsReply{Cursor: 64}}
	for i := range 64 {
		ev := evs.Events[i%2]
		ev.Job = "FZJ-CLUSTER.r0-000042"
		ev.Seq, ev.Origin = uint64(i+1), "CLUSTER.r0"
		ev.Type, ev.Action = events.TypeActionDone, ajo.ActionID(fmt.Sprintf("stage-%02d", i))
		ev.Reason = fmt.Sprintf("exit status %d after %d retries", i%3, i%4)
		many.Events = append(many.Events, ev)
	}
	body := mustEncode(many)
	if n := decodes(func() error { var m binEvents; return decode(body, &m) }); n > 10 {
		t.Errorf("decoding a binEvents of %d events (%d bytes) allocates %.0f times, want at most 10: the list and its strings' arena", len(many.Events), len(body), n)
	}
}
