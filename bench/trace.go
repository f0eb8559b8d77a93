package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"unicore/internal/ajo"
	"unicore/internal/core"
	"unicore/internal/njs"
	"unicore/internal/protocol"
)

// The traced run records spans from outside the program, at the three
// boundaries the harness can reach:
//
//	client.op       one workload operation (root)
//	client.call     one Session call inside it
//	wire.roundtrip  one request on the wire: a POST, or a request frame paired
//	                with its reply frame by correlation id
//	njs.<method>    one call from the gateway into the njs.Service
//
// Spans of one operation share its id. A span's parent is the innermost span
// of the same client that was open when it started; for njs spans, which the
// server records without seeing the correlation id, that is the round trip of
// the same user whose interval contains it (see assignParents).

type span struct {
	Name   string
	Note   string // Session method or frame kind
	Op     int64  // 0 = outside any operation (setup, warm-up)
	Start  int64  // ns since the recorder was created
	End    int64
	Parent int32 // index into the client's span slice, -1 for roots
}

// clientTrace holds one client's spans. The client goroutine, the transfer
// engines' chunk goroutines and the server's handler goroutines all append.
type clientTrace struct {
	idx int
	t0  time.Time

	mu    sync.Mutex
	spans []span
	op    int64 // current operation id, 0 when untimed
	opIdx int32
	call  int32 // open client.call span, -1 when none
	seq   int64
}

type recorder struct {
	t0      time.Time
	mu      sync.Mutex
	clients map[int]*clientTrace
	byDN    map[core.DN]*clientTrace
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), clients: map[int]*clientTrace{}, byDN: map[core.DN]*clientTrace{}}
}

// client returns the trace of load-generator client idx. Each round issues
// fresh certificates, so the DN index follows the newest one.
func (r *recorder) client(idx int, dn core.DN) *clientTrace {
	r.mu.Lock()
	defer r.mu.Unlock()
	ct := r.clients[idx]
	if ct == nil {
		ct = &clientTrace{idx: idx, t0: r.t0, call: -1, opIdx: -1}
		r.clients[idx] = ct
	}
	r.byDN[dn] = ct
	return ct
}

func (r *recorder) forDN(dn core.DN) *clientTrace {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.byDN[dn]
}

func (ct *clientTrace) now() int64 { return int64(time.Since(ct.t0)) }

// beginOp opens the root span of one timed operation.
func (ct *clientTrace) beginOp() {
	ct.mu.Lock()
	ct.seq++
	ct.op = int64(ct.idx+1)<<40 | ct.seq
	ct.spans = append(ct.spans, span{Name: "client.op", Op: ct.op, Start: ct.now(), Parent: -1})
	ct.opIdx = int32(len(ct.spans) - 1)
	ct.mu.Unlock()
}

func (ct *clientTrace) endOp() {
	ct.mu.Lock()
	ct.spans[ct.opIdx].End = ct.now()
	ct.op, ct.opIdx = 0, -1
	ct.mu.Unlock()
}

// call wraps one Session call of the current operation.
func (ct *clientTrace) beginCall(method string) {
	ct.mu.Lock()
	if ct.op != 0 {
		ct.spans = append(ct.spans, span{Name: "client.call", Note: method, Op: ct.op, Start: ct.now(), Parent: ct.opIdx})
		ct.call = int32(len(ct.spans) - 1)
	}
	ct.mu.Unlock()
}

func (ct *clientTrace) endCall() {
	ct.mu.Lock()
	if ct.call >= 0 {
		ct.spans[ct.call].End = ct.now()
		ct.call = -1
	}
	ct.mu.Unlock()
}

// begin opens a span under the current call; it returns -1 outside timed
// operations, and end ignores -1.
func (ct *clientTrace) begin(name, note string) int32 {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	if ct.op == 0 {
		return -1
	}
	parent := ct.call
	if parent < 0 {
		parent = ct.opIdx
	}
	ct.spans = append(ct.spans, span{Name: name, Note: note, Op: ct.op, Start: ct.now(), Parent: parent})
	return int32(len(ct.spans) - 1)
}

func (ct *clientTrace) end(i int32) {
	if i < 0 {
		return
	}
	ct.mu.Lock()
	ct.spans[i].End = ct.now()
	ct.mu.Unlock()
}

// --- client side: the transport under protocol.Client -----------------------

// tracedTransport records one wire.roundtrip span per POST and, through
// tracedConn, per request/reply frame pair on the v3 stream.
type tracedTransport struct {
	base protocol.Transport
	ct   *clientTrace
}

func (t *tracedTransport) Post(ctx context.Context, baseURL string, body []byte) ([]byte, error) {
	i := t.ct.begin("wire.roundtrip", "post")
	defer t.ct.end(i)
	return t.base.Post(ctx, baseURL, body)
}

func (t *tracedTransport) OpenStream(ctx context.Context, baseURL string) (net.Conn, error) {
	conn, err := t.base.OpenStream(ctx, baseURL)
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: conn, ct: t.ct, open: map[uint64]int32{}}, nil
}

// frameHeader is the fixed prefix of a v3 frame (docs/PROTOCOL.md): u32
// length of what follows, u8 kind, u64 correlation id. The header is parsed
// here and not with protocol.DecodeFrame, which needs the whole frame in one
// buffer and copies its payload: on 1 MiB chunk frames that copy would be
// most of the tracing overhead.
const frameHeader = 4 + 1 + 8

// tracedConn pairs request and reply frames by correlation id. The client
// mux writes each frame with one Write call, so the write side reads the
// header off the front of the buffer; the read side runs a small state
// machine over the byte stream because the mux reads a frame in pieces.
type tracedConn struct {
	net.Conn
	ct *clientTrace

	mu   sync.Mutex
	open map[uint64]int32 // correlation id -> span index

	hdr  [frameHeader]byte
	have int   // header bytes collected
	body int64 // payload bytes of the current frame still to be read
}

func (c *tracedConn) Write(p []byte) (int, error) {
	if len(p) >= frameHeader {
		kind, id := p[4], binary.BigEndian.Uint64(p[5:frameHeader])
		if i := c.ct.begin("wire.roundtrip", frameName(kind)); i >= 0 {
			c.mu.Lock()
			c.open[id] = i
			c.mu.Unlock()
		}
	}
	return c.Conn.Write(p)
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	for b := p[:n]; len(b) > 0; {
		if c.body > 0 {
			k := int64(len(b))
			if k > c.body {
				k = c.body
			}
			c.body -= k
			b = b[k:]
			if c.body == 0 {
				c.frameDone()
			}
			continue
		}
		k := copy(c.hdr[c.have:], b)
		c.have += k
		b = b[k:]
		if c.have == frameHeader {
			c.have = 0
			c.body = int64(binary.BigEndian.Uint32(c.hdr[:4])) - 9
			if c.body <= 0 {
				c.body = 0
				c.frameDone()
			}
		}
	}
	return n, err
}

// frameDone ends the round trip whose reply frame was just read completely.
func (c *tracedConn) frameDone() {
	id := binary.BigEndian.Uint64(c.hdr[5:frameHeader])
	c.mu.Lock()
	i, ok := c.open[id]
	delete(c.open, id)
	c.mu.Unlock()
	if ok {
		c.ct.end(i)
	}
}

func frameName(kind byte) string {
	switch kind {
	case protocol.FrameHello:
		return "hello"
	case protocol.FrameCall:
		return "call"
	case protocol.FramePut:
		return "put"
	case protocol.FrameFetch:
		return "fetch"
	case protocol.FrameSub:
		return "sub"
	case protocol.FrameSubStop:
		return "sub-stop"
	}
	return fmt.Sprintf("kind-%#x", kind)
}

// --- server side: the njs.Service behind the gateway -------------------------

// tracedService records one njs.<method> span around every call the gateway
// makes into the NJS on behalf of a load-generator user. The user's DN picks
// the client; a closed-loop client has one operation in flight, so the DN is
// enough to find it.
type tracedService struct {
	njs.Service
	rec *recorder
}

func (t *tracedService) span(dn core.DN, method string) func() {
	ct := t.rec.forDN(dn)
	if ct == nil {
		return func() {}
	}
	i := ct.begin("njs."+method, "")
	return func() { ct.end(i) }
}

func (t *tracedService) Consign(ctx context.Context, user core.DN, consignID string, job *ajo.AbstractJob) (core.JobID, error) {
	defer t.span(user, "consign")()
	return t.Service.Consign(ctx, user, consignID, job)
}

func (t *tracedService) Poll(caller core.DN, asServer bool, id core.JobID) (protocol.PollReply, error) {
	defer t.span(caller, "poll")()
	return t.Service.Poll(caller, asServer, id)
}

func (t *tracedService) Outcome(caller core.DN, asServer bool, id core.JobID) (*ajo.Outcome, bool, error) {
	defer t.span(caller, "outcome")()
	return t.Service.Outcome(caller, asServer, id)
}

func (t *tracedService) List(caller core.DN) ([]protocol.JobInfo, error) {
	defer t.span(caller, "list")()
	return t.Service.List(caller)
}

func (t *tracedService) Events(caller core.DN, asServer bool, req protocol.SubscribeRequest) (protocol.EventsReply, error) {
	defer t.span(caller, "events")()
	return t.Service.Events(caller, asServer, req)
}

func (t *tracedService) FetchFileOwned(caller core.DN, asServer bool, id core.JobID, file string, offset, limit int64) (protocol.TransferReply, error) {
	defer t.span(caller, "fetch")()
	return t.Service.FetchFileOwned(caller, asServer, id, file, offset, limit)
}

func (t *tracedService) StageOpen(caller core.DN, asServer bool, req protocol.PutOpenRequest) (protocol.PutOpenReply, error) {
	defer t.span(caller, "stage-open")()
	return t.Service.StageOpen(caller, asServer, req)
}

func (t *tracedService) StageChunk(caller core.DN, asServer bool, req protocol.PutChunkRequest) (protocol.PutChunkReply, error) {
	defer t.span(caller, "stage-chunk")()
	return t.Service.StageChunk(caller, asServer, req)
}

func (t *tracedService) StageCommit(caller core.DN, asServer bool, req protocol.PutCommitRequest) (protocol.PutCommitReply, error) {
	defer t.span(caller, "stage-commit")()
	return t.Service.StageCommit(caller, asServer, req)
}

// --- analysis ----------------------------------------------------------------

// selfTimes is what the spans of the timed operations add up to.
type selfTimes struct {
	ops                   int
	client, gwWire, njsNs int64 // summed self time, ns
	njsCalls              int
	opDur                 []int64 // per-operation duration, ns
}

// interval coverage: the length of the union of [start,end) intervals.
type ival struct{ s, e int64 }

func covered(iv []ival) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i].s < iv[j].s })
	var total, end int64
	for i, v := range iv {
		if i == 0 || v.s > end {
			total += v.e - v.s
			end = v.e
		} else if v.e > end {
			total += v.e - end
			end = v.e
		}
	}
	return total
}

// analyse computes self times per layer: a layer's self time is its span's
// duration minus the part of that interval its child spans cover. Round
// trips of one operation overlap (8 chunk requests per transfer window), so
// coverage is the union of intervals, not their sum; the three self times of
// an operation therefore add up to its duration.
func (r *recorder) analyse() selfTimes {
	var st selfTimes
	for _, ct := range r.clients {
		byOp := map[int64][]int{}
		for i, s := range ct.spans {
			if s.Op != 0 && s.End != 0 {
				byOp[s.Op] = append(byOp[s.Op], i)
			}
		}
		for _, idx := range byOp {
			var op *span
			var rts, calls []ival
			for _, i := range idx {
				s := &ct.spans[i]
				switch {
				case s.Name == "client.op":
					op = s
				case s.Name == "wire.roundtrip":
					rts = append(rts, ival{s.Start, s.End})
				case strings.HasPrefix(s.Name, "njs."):
					calls = append(calls, ival{s.Start, s.End})
					st.njsCalls++
				}
			}
			if op == nil {
				continue
			}
			dur := op.End - op.Start
			rtCov, njsCov := covered(rts), covered(calls)
			st.ops++
			st.opDur = append(st.opDur, dur)
			st.client += dur - rtCov
			st.gwWire += rtCov - njsCov
			st.njsNs += njsCov
		}
	}
	return st
}

// assignParents gives every njs span the round trip that caused it: of the
// same client's round trips whose interval contains the span, the one with
// the fewest children so far, earliest first. With one request in flight
// that is exact; with a window of parallel chunk requests any containing
// round trip accounts for the time equally well.
func (ct *clientTrace) assignParents() {
	type rt struct {
		idx      int32
		children int
	}
	byOp := map[int64][]*rt{}
	for i, s := range ct.spans {
		if s.Name == "wire.roundtrip" && s.End != 0 {
			byOp[s.Op] = append(byOp[s.Op], &rt{idx: int32(i)})
		}
	}
	for i := range ct.spans {
		s := &ct.spans[i]
		if !strings.HasPrefix(s.Name, "njs.") {
			continue
		}
		var best *rt
		for _, c := range byOp[s.Op] {
			p := ct.spans[c.idx]
			if p.Start <= s.Start && s.End <= p.End && (best == nil || c.children < best.children) {
				best = c
			}
		}
		if best != nil {
			best.children++
			s.Parent = best.idx
		}
	}
}

// write stores every span as one JSON document. Ids are "<client>:<index>".
func (r *recorder) write(path, workload string, seed int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"unit\":\"ns since trace start\",\"spans\":[", workload, seed)
	first := true
	for c := 0; c < len(r.clients); c++ {
		ct := r.clients[c]
		if ct == nil {
			continue
		}
		ct.assignParents()
		for i, s := range ct.spans {
			if s.End == 0 {
				continue // a request whose reply never came (none on a clean run)
			}
			if !first {
				w.WriteByte(',')
			}
			first = false
			parent := "null"
			if s.Parent >= 0 {
				parent = fmt.Sprintf("\"%d:%d\"", c, s.Parent)
			}
			fmt.Fprintf(w, "\n{\"id\":\"%d:%d\",\"parent\":%s,\"op\":%d,\"client\":%d,\"name\":%q,\"note\":%q,\"start\":%d,\"end\":%d}",
				c, i, parent, s.Op, c, s.Name, s.Note, s.Start, s.End)
		}
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		return errors.Join(err, f.Close())
	}
	return f.Close()
}
