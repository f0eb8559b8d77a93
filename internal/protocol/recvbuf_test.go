package protocol

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"unicore/internal/core"
)

// These tests hold the receive-buffer contract of protocol.Do: a data reply
// is read into the spare capacity of the caller's TransferReply.Data when it
// fits, and nothing writes that buffer once Do has returned — not even a
// reader that was mid-payload when the call was cancelled or its stream died.
// They run under -race, which reports a reader still writing the buffer when
// the caller overwrites it.

// dataServer answers every fetch with data. wrap, when set, wraps the server
// end of each stream.
type dataServer struct {
	echoServer
	data []byte
	wrap func(net.Conn) net.Conn
}

func (d *dataServer) ServeStream(ctx context.Context, conn net.Conn) {
	if d.wrap != nil {
		conn = d.wrap(conn)
	}
	ServeStreamConn(ctx, conn, d, StreamServerOpts{Cred: d.cred, Usite: "FZJ"})
}

func (d *dataServer) StreamFetch(context.Context, core.DN, bool, FetchRequest) (TransferReply, error) {
	return TransferReply{Found: true, Size: int64(len(d.data)), CRC: 1, Data: d.data}, nil
}

// halvingConn holds back half of a data reply's Data. The server writes the
// reply as two writes — header and fields, then the Data from where it rests
// — so the first arms it and the second is written in two halves: the first,
// then a close of half, then — once hold is ready — the rest. Between the two
// the client's reader has claimed the reply and sits mid-payload. Writes come
// one at a time, under the stream's write lock.
type halvingConn struct {
	net.Conn
	half  chan struct{}
	hold  <-chan time.Time
	once  sync.Once
	armed bool // the last write began a data frame that it did not finish
}

func (c *halvingConn) Write(p []byte) (int, error) {
	if !c.armed {
		c.armed = len(p) >= frameHeaderLen && p[4] == FrameData && int(binary.BigEndian.Uint32(p)) > len(p)-4
		return c.Conn.Write(p)
	}
	c.armed = false
	n, err := c.Conn.Write(p[:len(p)/2])
	c.once.Do(func() { close(c.half) })
	if err != nil {
		return n, err
	}
	<-c.hold
	m, err := c.Conn.Write(p[len(p)/2:])
	return n + m, err
}

var fetchReq = FetchRequest{Job: "FZJ-000001", File: "out.dat"}

// writeCounter counts the writes that reach the connection.
type writeCounter struct {
	net.Conn
	writes atomic.Int64
}

func (c *writeCounter) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestConnFaultsDecidesOncePerFrame: a server end under ConnFaults writes
// each data reply as two writes, and the injector is still asked once per
// frame — so a loss rate is per frame, and a lost frame loses all of it.
func TestConnFaultsDecidesOncePerFrame(t *testing.T) {
	r := newRig(t)
	var decided atomic.Int64
	cf := &ConnFaults{Decide: func() Fault { decided.Add(1); return NoFault }}
	counter := &writeCounter{}
	r.net.Register("gw.fzj", &dataServer{echoServer: *r.echoServer(), data: bytes.Repeat([]byte{0x5A}, 64<<10),
		wrap: func(conn net.Conn) net.Conn { counter.Conn = conn; return cf.Wrap(counter) }})
	c := NewClient(r.net, r.user, r.ca, r.reg)
	defer c.Close()

	const fetches = 5
	for i := 0; i < fetches; i++ {
		var reply TransferReply
		if err := Do(context.Background(), c, "FZJ", OpFetch, fetchReq, &reply); err != nil || len(reply.Data) != 64<<10 {
			t.Fatalf("fetch %d: %d bytes, %v", i, len(reply.Data), err)
		}
	}
	var poll PollReply
	if err := Do(context.Background(), c, "FZJ", OpPoll, PollRequest{Job: "FZJ-000001"}, &poll); err != nil {
		t.Fatalf("poll: %v", err)
	}
	// The hello reply passes undecided; then five data replies and a reply.
	const frames = fetches + 1
	if got := decided.Load(); got != frames {
		t.Errorf("Decide asked %d times for %d frames", got, frames)
	}
	if got := counter.writes.Load(); got != 1+2*fetches+1 {
		t.Errorf("server end wrote %d times, want %d: a data reply is its fields, then its Data", got, 1+2*fetches+1)
	}
}

// TestTransferReplyOverheadBoundsItsFields: the widest Size and CRC a reply
// can carry, with a 1 MiB chunk behind them, leave the body within
// TransferReplyOverhead of its data.
func TestTransferReplyOverheadBoundsItsFields(t *testing.T) {
	data := make([]byte, 1<<20)
	body := mustEncode(TransferReply{Found: true, Size: math.MinInt64, CRC: math.MaxUint64, Data: data})
	if extra := len(body) - len(data); extra > TransferReplyOverhead {
		t.Fatalf("a data reply spends %d bytes besides its data, TransferReplyOverhead is %d", extra, TransferReplyOverhead)
	}
}

// TestDataReplyIsReadIntoTheCallerBuffer: a reply that fits the caller's
// buffer is a view into it; one that does not arrives byte-exact in a fresh
// allocation and leaves the buffer untouched.
func TestDataReplyIsReadIntoTheCallerBuffer(t *testing.T) {
	r := newRig(t)
	data := bytes.Repeat([]byte("0123456789abcdef"), 4<<10)
	r.net.Register("gw.fzj", &dataServer{echoServer: *r.echoServer(), data: data})
	c := NewClient(r.net, r.user, r.ca, r.reg)
	defer c.Close()
	fetch := func(buf []byte) TransferReply {
		t.Helper()
		reply := TransferReply{Data: buf[:0]}
		if err := Do(context.Background(), c, "FZJ", OpFetch, fetchReq, &reply); err != nil {
			t.Fatalf("Call: %v", err)
		}
		if !reply.Found || reply.Size != int64(len(data)) || !bytes.Equal(reply.Data, data) {
			t.Fatalf("reply: found=%v size=%d, %d bytes, equal=%v", reply.Found, reply.Size, len(reply.Data), bytes.Equal(reply.Data, data))
		}
		return reply
	}

	fits := make([]byte, len(data)+TransferReplyOverhead)
	reply := fetch(fits)
	clear(fits)
	if !bytes.Equal(reply.Data, make([]byte, len(data))) {
		t.Error("a reply that fits the caller's buffer is not a view into it")
	}

	small := bytes.Repeat([]byte{0xEE}, 1024)
	fetch(small)
	if !bytes.Equal(small, bytes.Repeat([]byte{0xEE}, 1024)) {
		t.Error("a reply larger than the caller's buffer was written into it")
	}
}

// midPayload starts a fetch whose reply's second half the server holds back
// until hold is ready, and returns once the client's reader has read the
// first half into the call's buffer. The reply is small on purpose: the race
// detector checks a short copy into the buffer byte for byte, a long one not.
func midPayload(t *testing.T, tr func(*InProc) Transport, ctx context.Context, hold <-chan time.Time) (c *Client, buf []byte, result <-chan error) {
	t.Helper()
	r := newRig(t)
	data := bytes.Repeat([]byte{0xAB}, 64)
	half := make(chan struct{})
	r.net.Register("gw.fzj", &dataServer{echoServer: *r.echoServer(), data: data,
		wrap: func(conn net.Conn) net.Conn { return &halvingConn{Conn: conn, half: half, hold: hold} }})
	c = NewClient(tr(r.net), r.user, r.ca, r.reg)
	c.Retries = 0 // a dead stream fails the call rather than replaying it
	buf = make([]byte, len(data)+TransferReplyOverhead)
	errc := make(chan error, 1)
	go func() { errc <- Do(ctx, c, "FZJ", OpFetch, fetchReq, &TransferReply{Data: buf[:0]}) }()
	select {
	case <-half:
	case err := <-errc:
		t.Fatalf("Call returned before its reply was half read: %v", err)
	}
	return c, buf, errc
}

// TestCancelledCallWaitsForItsPayload cancels a call while the reader is
// mid-payload. Do must not return until the reader is done with the buffer
// — here, until the server's pause is over and the payload has been read —
// and the caller may then overwrite the buffer at once.
func TestCancelledCallWaitsForItsPayload(t *testing.T) {
	const pause = 200 * time.Millisecond
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c, buf, result := midPayload(t, func(p *InProc) Transport { return p }, ctx, time.After(pause))
	defer c.Close()
	cancel()
	cancelled := time.Now()
	if err := <-result; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Call: %v", err)
	}
	if waited := time.Since(cancelled); waited < pause/2 {
		t.Errorf("Call returned %v after its cancel, while the reader was still filling its buffer", waited)
	}
	for i := range buf {
		buf[i] = 0xEE
	}
	// The stream lives on, and the next reply is read behind the dropped one:
	// a reader still writing the buffer would be reported by now.
	var poll PollReply
	if err := Do(context.Background(), c, "FZJ", OpPoll, PollRequest{Job: "FZJ-000001"}, &poll); err != nil || !poll.Found {
		t.Fatalf("poll after the cancelled fetch: %+v, %v", poll, err)
	}
}

// TestKilledStreamWaitsForItsPayload kills the stream while the reader is
// mid-payload, from either end of the client: Client.Close, and a severed
// connection. Do fails, and only once the reader has let go of the buffer.
func TestKilledStreamWaitsForItsPayload(t *testing.T) {
	for name, kill := range map[string]func(*Client, *Flaky){
		"client closes":      func(c *Client, _ *Flaky) { c.Close() },
		"connection severed": func(_ *Client, f *Flaky) { f.KillStreams() },
	} {
		t.Run(name, func(t *testing.T) {
			hold := make(chan time.Time) // the second half waits for the test's end
			defer close(hold)
			var flaky *Flaky
			tr := func(p *InProc) Transport {
				flaky = NewFlaky(p, 0, 1)
				return flaky
			}
			c, buf, result := midPayload(t, tr, context.Background(), hold)
			defer c.Close()
			kill(c, flaky)
			if err := <-result; err == nil {
				t.Fatal("Call succeeded on a stream killed mid-payload")
			}
			for i := range buf {
				buf[i] = 0xEE
			}
		})
	}
}
