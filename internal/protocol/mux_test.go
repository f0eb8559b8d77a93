package protocol

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"unicore/internal/ajo"
	"unicore/internal/core"
)

// These tests hold the frame mux's bookkeeping: reply channels, stream
// workers and control-frame receive buffers are reused across round trips,
// and reuse never hands one call's reply to another or lets a worker outlive
// its stream.

// raceEnabled is set by race_test.go under -race, where sync.Pool drops
// items at random, so a gate that counts on a pool hit skips there.
var raceEnabled bool

// TestPollRoundTripAllocatesOnlyItsJobID: a poll over InProc — client
// encode, the pipe both ways, the server's dispatch and reply, the client's
// decode — allocates once per call: the job ID the server decodes. Reply
// channels, stream workers and receive buffers are all reused.
func TestPollRoundTripAllocatesOnlyItsJobID(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	r := newRig(t)
	r.net.Register("gw.fzj", r.echoServer())
	c := NewClient(r.net, r.user, r.ca, r.reg)
	defer c.Close()
	ctx := context.Background()
	req := PollRequest{Job: "FZJ-000001"}
	var reply PollReply
	poll := func() {
		if err := Do(ctx, c, "FZJ", OpPoll, req, &reply); err != nil || !reply.Found {
			t.Fatalf("poll: %+v, %v", reply, err)
		}
	}
	poll() // dial, and start the stream's worker
	if n := testing.AllocsPerRun(200, poll); n > 1 {
		t.Errorf("a poll round trip allocates %.1f times, ceiling 1", n)
	}
}

// strayStream returns a client stream over net.Pipe, skipping the hello,
// and the server end of the pipe, on which the test writes what it likes.
func strayStream(t *testing.T) (*streamConn, net.Conn) {
	t.Helper()
	client, server := net.Pipe()
	s := &streamConn{
		conn:    client,
		window:  make(chan struct{}, DefaultStreamWindow),
		pending: make(map[uint64]waiter),
		subs:    make(map[uint64]chan EventsReply),
		done:    make(chan struct{}),
	}
	go s.readLoop()
	t.Cleanup(func() { s.close(); server.Close() })
	return s, server
}

// TestUnclaimedReplyIsDiscarded: a 1 MiB data reply under an ID nobody
// waits for — its caller gave up — is read off the stream into no buffer,
// and the call after it is answered.
func TestUnclaimedReplyIsDiscarded(t *testing.T) {
	s, server := strayStream(t)
	stray := make([]byte, 1<<20)
	frame := AppendFrame(nil, FrameData, 999, stray)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	// A net.Pipe write returns once the reader has taken every byte of it.
	if _, err := server.Write(frame); err != nil {
		t.Fatal(err)
	}
	reply := AppendFrame(nil, FrameReply, 1, mustEncode(PollReply{Found: true}))
	result := make(chan error, 1)
	go func() {
		var hdr [frameHeaderLen]byte
		f, err := readFrame(server, &hdr, MaxFramePayload)
		if err == nil && f.ID != 1 {
			t.Errorf("request under ID %d, want 1", f.ID)
		}
		if err == nil {
			_, err = server.Write(reply)
		}
		result <- err
	}()
	bp := getFrameBuf(0)
	*bp = append(*bp, mustEncode(PollRequest{Job: "FZJ-000001"})...)
	f, err := s.roundTrip(context.Background(), FrameCall, *bp, nil)
	putFrameBuf(bp)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("the call after the stray reply: %v", err)
	}
	if err := <-result; err != nil {
		t.Fatal(err)
	}
	var got PollReply
	if err := decode(f.Payload, &got); err != nil || !got.Found {
		t.Fatalf("reply after the stray one: %+v, %v", got, err)
	}
	f.release()
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 64<<10 {
		t.Errorf("a 1 MiB reply nobody waits for cost %d bytes of allocation", grew)
	}
}

// blockingPolls is a backend whose polls wait on release, counting how many
// are inside it at once.
type blockingPolls struct {
	echoServer
	release  chan struct{}
	in, peak atomic.Int64
	entered  chan struct{}
}

func (b *blockingPolls) ServeStream(ctx context.Context, conn net.Conn) {
	ServeStreamConn(ctx, conn, b, StreamServerOpts{Cred: b.cred, Usite: "FZJ"})
}

func (b *blockingPolls) StreamPoll(ctx context.Context, _ core.DN, _ bool, _ PollRequest) (PollReply, error) {
	n := b.in.Add(1)
	for p := b.peak.Load(); n > p && !b.peak.CompareAndSwap(p, n); p = b.peak.Load() {
	}
	b.entered <- struct{}{}
	defer b.in.Add(-1)
	select {
	case <-b.release:
	case <-ctx.Done():
	}
	return PollReply{Found: true}, nil
}

// TestStreamServesAtMostItsConcurrency sends 80 polls down one stream to a
// backend that holds them: exactly defaultStreamConcurrency are in the
// backend at once, the next is served only once one returns, all 80 are
// answered once released, and no worker outlives the stream.
func TestStreamServesAtMostItsConcurrency(t *testing.T) {
	const polls = 80
	baseline := runtime.NumGoroutine()
	r := newRig(t)
	be := &blockingPolls{echoServer: *r.echoServer(), release: make(chan struct{}), entered: make(chan struct{}, polls)}
	client, server := net.Pipe()
	served := make(chan struct{})
	go func() {
		be.ServeStream(context.Background(), server)
		close(served)
	}()
	hello, err := Seal(r.user, MsgHello, HelloRequest{Usite: "FZJ", Nonce: "n"})
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(client, FrameHello, 0, hello); err != nil {
		t.Fatal(err)
	}
	var hdr [frameHeaderLen]byte
	if f, err := readFrame(client, &hdr, maxHandshakePayload); err != nil || f.Kind != FrameHelloOK {
		t.Fatalf("hello: kind %#x, %v", f.Kind, err)
	}

	replies := make(chan Frame, polls)
	go func() {
		var hdr [frameHeaderLen]byte
		for {
			f, err := readFrame(client, &hdr, MaxFramePayload)
			if err != nil {
				close(replies)
				return
			}
			replies <- f
		}
	}()
	poll, err := OpPoll.encodeRequest(nil, &PollRequest{Job: "FZJ-000001"}, "")
	if err != nil {
		t.Fatal(err)
	}
	sent := make(chan error, 1)
	go func() {
		for i := 1; i <= polls; i++ {
			if err := writeFrame(client, FrameCall, uint64(i), poll); err != nil {
				sent <- err
				return
			}
		}
		sent <- nil
	}()

	for i := 0; i < defaultStreamConcurrency; i++ {
		<-be.entered
	}
	select {
	case <-be.entered:
		t.Fatalf("a poll entered the backend beside %d held ones", defaultStreamConcurrency)
	case <-time.After(100 * time.Millisecond):
	}
	if got := be.in.Load(); got != defaultStreamConcurrency {
		t.Fatalf("%d polls in the backend, want %d", got, defaultStreamConcurrency)
	}
	be.release <- struct{}{} // one returns: the next enters
	select {
	case <-be.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("no held poll entered the backend after one returned")
	}
	close(be.release)
	if err := <-sent; err != nil {
		t.Fatalf("sending polls: %v", err)
	}
	seen := make(map[uint64]bool)
	for len(seen) < polls {
		f, ok := <-replies
		if !ok {
			t.Fatalf("stream closed after %d of %d replies", len(seen), polls)
		}
		if f.Kind != FrameReply || seen[f.ID] {
			t.Fatalf("reply kind %#x under ID %d (seen: %v)", f.Kind, f.ID, seen[f.ID])
		}
		seen[f.ID] = true
	}
	if got := be.peak.Load(); got != defaultStreamConcurrency {
		t.Errorf("peak %d polls in the backend, want %d", got, defaultStreamConcurrency)
	}

	client.Close()
	select {
	case <-served:
	case <-time.After(5 * time.Second):
		t.Fatal("the stream is still served 5s after it closed")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Errorf("%d goroutines after the stream closed, %d before it opened", n, baseline)
	}
}

// jobEcho answers a poll with the polled job's ID, after a random delay of
// under a millisecond.
type jobEcho struct{ dataServer }

func (e *jobEcho) ServeStream(ctx context.Context, conn net.Conn) {
	if e.wrap != nil {
		conn = e.wrap(conn)
	}
	ServeStreamConn(ctx, conn, e, StreamServerOpts{Cred: e.cred, Usite: "FZJ"})
}

func (*jobEcho) StreamPoll(ctx context.Context, _ core.DN, _ bool, req PollRequest) (PollReply, error) {
	select {
	case <-time.After(time.Duration(rand.Int63n(int64(time.Millisecond)))):
	case <-ctx.Done():
	}
	return PollReply{Found: true, Summary: ajo.Summary{Job: string(req.Job)}}, nil
}

// TestRecycledReplyChannelCarriesOnlyItsReply: 8 goroutines poll 200 jobs
// each over one stream, and about a third of the calls are cancelled at a
// random time — before, during or after their reply. Every call that
// succeeds gets its own job back, whichever recycled channel it rode. Then a
// fetch dies with its stream mid-payload, which closes its channel, and the
// calls after it succeed on a redial.
func TestRecycledReplyChannelCarriesOnlyItsReply(t *testing.T) {
	r := newRig(t)
	hold := make(chan time.Time) // a held-back half waits for the test's end
	defer close(hold)
	half := make(chan struct{})
	be := &jobEcho{dataServer{echoServer: *r.echoServer(), data: make([]byte, 64),
		wrap: func(conn net.Conn) net.Conn { return &halvingConn{Conn: conn, half: half, hold: hold} }}}
	r.net.Register("gw.fzj", be)
	flaky := NewFlaky(r.net, 0, 1)
	c := NewClient(flaky, r.user, r.ca, r.reg)
	defer c.Close()

	poll := func(ctx context.Context, job string) error {
		var reply PollReply
		err := Do(ctx, c, "FZJ", OpPoll, PollRequest{Job: core.JobID(job)}, &reply)
		if err == nil && reply.Summary.Job != job {
			t.Errorf("poll of %s answered for %q", job, reply.Summary.Job)
		}
		return err
	}
	var wg sync.WaitGroup
	var ok, cancelled atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 200; i++ {
				ctx, cancel := context.Background(), context.CancelFunc(func() {})
				if rng.Intn(3) == 0 {
					ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Int63n(int64(2*time.Millisecond))))
				}
				err := poll(ctx, fmt.Sprintf("FZJ-%d-%03d", g, i))
				cancel()
				switch {
				case err == nil:
					ok.Add(1)
				case ctx.Err() != nil:
					cancelled.Add(1)
				default:
					t.Errorf("poll: %v", err)
				}
			}
		}(g)
	}
	wg.Wait()
	if ok.Load() == 0 || cancelled.Load() == 0 {
		t.Fatalf("%d polls answered, %d cancelled: want both", ok.Load(), cancelled.Load())
	}

	c.Retries = 0 // the killed fetch fails rather than replaying
	fetch := make(chan error, 1)
	go func() {
		fetch <- Do(context.Background(), c, "FZJ", OpFetch, fetchReq, &TransferReply{Data: make([]byte, 0, 128)})
	}()
	select {
	case <-half:
	case err := <-fetch:
		t.Fatalf("fetch returned before its reply was half read: %v", err)
	}
	flaky.KillStreams()
	if err := <-fetch; err == nil {
		t.Fatal("a fetch killed mid-payload succeeded")
	}
	for i := 0; i < 20; i++ {
		if err := poll(context.Background(), fmt.Sprintf("FZJ-after-%02d", i)); err != nil {
			t.Fatalf("poll %d after the killed stream: %v", i, err)
		}
	}
}
