package protocol

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"unicore/internal/core"
	"unicore/internal/pki"
)

// testRig bundles a CA, credentials, and an in-proc network with a minimal
// envelope server.
type testRig struct {
	ca     *pki.Authority
	user   *pki.Credential
	server *pki.Credential
	net    *InProc
	reg    *Registry
}

func newRig(t *testing.T) *testRig {
	t.Helper()
	ca, err := pki.NewAuthority("Test-PCA")
	if err != nil {
		t.Fatal(err)
	}
	user, err := ca.IssueUser("Alice", "FZJ")
	if err != nil {
		t.Fatal(err)
	}
	server, err := ca.IssueServer("gw.fzj")
	if err != nil {
		t.Fatal(err)
	}
	rig := &testRig{ca: ca, user: user, server: server, net: NewInProc(), reg: NewRegistry()}
	rig.reg.Add("FZJ", "http://gw.fzj")
	return rig
}

// echoServer is a minimal gateway: over the frame stream it answers a poll
// with a fixed PollReply and a list with an error; hellos are verified like a
// real gateway's, and answered under cred.
type echoServer struct {
	rig  *testRig
	cred *pki.Credential
}

func (r *testRig) echoServer() *echoServer { return &echoServer{rig: r, cred: r.server} }

func (e *echoServer) ServeStream(ctx context.Context, conn net.Conn) {
	ServeStreamConn(ctx, conn, e, e.handlers(), StreamServerOpts{Cred: e.cred, Usite: "FZJ"})
}

// handlers is the echo server's table — a poll and a list, and no other op —
// which the fakes built on it add their own ops to.
func (*echoServer) handlers() Handlers {
	h := Handlers{}
	Handle(h, OpPoll, func(context.Context, core.DN, bool, PollRequest) (PollReply, error) {
		return PollReply{Found: true}, nil
	})
	Handle(h, OpList, func(context.Context, core.DN, bool, ListRequest) (ListReply, error) {
		return ListReply{}, errors.New("unsupported")
	})
	return h
}

func (e *echoServer) StreamHello(hello []byte) (Opened, []byte) {
	o, err := OpenTraced(e.rig.ca, hello)
	if err != nil || o.From != e.rig.user.DN() || o.Role != pki.RoleUser {
		refusal, _ := Seal(e.cred, MsgError, ErrorReply{Code: "authentication", Message: "wrong identity"})
		return o, refusal
	}
	return o, nil
}

func TestSealOpenRoundTrip(t *testing.T) {
	r := newRig(t)
	body, err := Seal(r.user, MsgPoll, PollRequest{Job: "FZJ-000001"})
	if err != nil {
		t.Fatal(err)
	}
	mt, raw, dn, role, err := Open(r.ca, body)
	if err != nil {
		t.Fatal(err)
	}
	if mt != MsgPoll || role != pki.RoleUser || dn != r.user.DN() {
		t.Fatalf("mt=%s role=%s dn=%s", mt, role, dn)
	}
	var pr PollRequest
	if err := json.Unmarshal(raw, &pr); err != nil || pr.Job != "FZJ-000001" {
		t.Fatalf("payload = %+v, %v", pr, err)
	}
}

func TestOpenRejectsTampering(t *testing.T) {
	r := newRig(t)
	body, _ := Seal(r.user, MsgPoll, PollRequest{Job: "J"})
	var env Envelope
	_ = json.Unmarshal(body, &env)
	env.Payload = json.RawMessage(`{"job":"EVIL"}`)
	tampered, _ := json.Marshal(env)
	if _, _, _, _, err := Open(r.ca, tampered); !errors.Is(err, pki.ErrBadSignature) {
		t.Fatalf("tampered envelope: %v", err)
	}
}

func TestOpenRejectsForeignCA(t *testing.T) {
	r := newRig(t)
	other, _ := pki.NewAuthority("Other-CA")
	mallory, _ := other.IssueUser("Mallory", "X")
	body, _ := Seal(mallory, MsgPoll, PollRequest{Job: "J"})
	if _, _, _, _, err := Open(r.ca, body); !errors.Is(err, pki.ErrUntrusted) {
		t.Fatalf("foreign envelope: %v", err)
	}
}

func TestOpenRejectsBadVersionAndGarbage(t *testing.T) {
	r := newRig(t)
	body, _ := Seal(r.user, MsgPoll, PollRequest{})
	var env Envelope
	_ = json.Unmarshal(body, &env)
	env.Version = 99
	bad, _ := json.Marshal(env)
	if _, _, _, _, err := Open(r.ca, bad); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("version 99: %v", err)
	}
	if _, _, _, _, err := Open(r.ca, []byte("junk")); !errors.Is(err, ErrBadEnvelope) {
		t.Fatalf("garbage: %v", err)
	}
}

func TestRegistry(t *testing.T) {
	reg := NewRegistry()
	reg.Add("FZJ", "http://a")
	reg.Add("LRZ", "http://b")
	reg.Add("FZJ", "http://a2")
	if url, ok := reg.Lookup("FZJ"); !ok || url != "http://a2" {
		t.Fatalf("Lookup = %q, %v", url, ok)
	}
	if _, ok := reg.Lookup("ZIB"); ok {
		t.Fatal("phantom site found")
	}
	if len(reg.Sites()) != 2 {
		t.Fatalf("Sites = %v", reg.Sites())
	}
}

// streamFunc serves a stream with a plain function.
type streamFunc func(net.Conn)

func (f streamFunc) ServeStream(_ context.Context, conn net.Conn) { f(conn) }

// TestInProcRouting: a stream dialled at a host reaches the server
// registered under that host, and a host nobody registered is no route.
func TestInProcRouting(t *testing.T) {
	p := NewInProc()
	p.Register("a.example", streamFunc(func(conn net.Conn) {
		defer conn.Close()
		_, _ = conn.Write([]byte("from-a"))
	}))
	conn, err := p.OpenStream(context.Background(), "http://a.example")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(conn)
	if string(data) != "from-a" {
		t.Fatalf("stream read %q", data)
	}
	if _, err := p.OpenStream(context.Background(), "http://ghost.example"); err == nil {
		t.Fatal("a stream to an unregistered host was dialled")
	}
}

func TestClientCall(t *testing.T) {
	r := newRig(t)
	r.net.Register("gw.fzj", r.echoServer())
	c := NewClient(r.net, r.user, r.ca, r.reg)
	var reply PollReply
	if err := Do(context.Background(), c, "FZJ", OpPoll, PollRequest{Job: "J"}, &reply); err != nil {
		t.Fatal(err)
	}
	if !reply.Found {
		t.Fatalf("reply = %+v", reply)
	}
}

// TestClientDNAllocatesNothing: a client renders its certificate's DN once,
// not on every submit that stamps it on an AJO.
func TestClientDNAllocatesNothing(t *testing.T) {
	r := newRig(t)
	c := NewClient(r.net, r.user, r.ca, r.reg)
	if c.DN() != r.user.DN() {
		t.Fatalf("DN() = %q, want %q", c.DN(), r.user.DN())
	}
	if raceEnabled {
		return
	}
	if n := testing.AllocsPerRun(20, func() { _ = c.DN() }); n != 0 {
		t.Errorf("Client.DN allocates %.0f times, want 0", n)
	}
}

func TestClientCallErrorReply(t *testing.T) {
	r := newRig(t)
	r.net.Register("gw.fzj", r.echoServer())
	c := NewClient(r.net, r.user, r.ca, r.reg)
	err := Do(context.Background(), c, "FZJ", OpList, ListRequest{}, nil)
	var er *ErrorReply
	if !errors.As(err, &er) || er.Message != "unsupported" {
		t.Fatalf("err = %v", err)
	}
}

func TestClientRejectsUserSignedReply(t *testing.T) {
	r := newRig(t)
	// A malicious "gateway" answering the hello under a user certificate.
	mallory := r.echoServer()
	mallory.cred = r.user
	r.net.Register("gw.fzj", mallory)
	c := NewClient(r.net, r.user, r.ca, r.reg)
	var reply PollReply
	err := Do(context.Background(), c, "FZJ", OpPoll, PollRequest{Job: "J"}, &reply)
	if err == nil || !strings.Contains(err.Error(), "want server") {
		t.Fatalf("err = %v", err)
	}
}

func TestClientUnknownUsite(t *testing.T) {
	r := newRig(t)
	c := NewClient(r.net, r.user, r.ca, r.reg)
	if err := Do(context.Background(), c, "ZIB", OpPoll, PollRequest{}, nil); err == nil {
		t.Fatal("unknown usite accepted")
	}
}

func TestClientRetriesOverFlakyLink(t *testing.T) {
	r := newRig(t)
	r.net.Register("gw.fzj", r.echoServer())
	flaky := NewFlaky(r.net, 0.5, 42)
	c := NewClient(flaky, r.user, r.ca, r.reg)
	c.Retries = 20
	ok := 0
	for i := 0; i < 20; i++ {
		var reply PollReply
		if err := Do(context.Background(), c, "FZJ", OpPoll, PollRequest{Job: "J"}, &reply); err == nil {
			ok++
		}
	}
	if ok != 20 {
		t.Fatalf("only %d/20 calls survived a 50%% lossy link with retries", ok)
	}
	reqs, lost := flaky.Stats()
	if lost == 0 || reqs <= 20 {
		t.Fatalf("fault injection inactive: reqs=%d lost=%d", reqs, lost)
	}
}

func TestFlakyZeroDropPassesThrough(t *testing.T) {
	r := newRig(t)
	r.net.Register("gw.fzj", r.echoServer())
	flaky := NewFlaky(r.net, 0, 1)
	c := NewClient(flaky, r.user, r.ca, r.reg)
	c.Retries = 0
	var reply PollReply
	if err := Do(context.Background(), c, "FZJ", OpPoll, PollRequest{Job: "J"}, &reply); err != nil {
		t.Fatal(err)
	}
}

// TestOpenStreamHonoursItsContext dials a peer that accepts the connection
// and then says nothing: cancelling the dial must abort the upgrade handshake
// at once, not after DialTimeout.
func TestOpenStreamHonoursItsContext(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback listener available: %v", err)
	}
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // held open, never answered
		}
	}()
	ctx, cancel := context.WithCancel(context.Background())
	cancelled := make(chan time.Time, 1)
	time.AfterFunc(50*time.Millisecond, func() {
		cancelled <- time.Now()
		cancel()
	})
	conn, err := NewHTTPTransport(&http.Transport{}).OpenStream(ctx, "http://"+l.Addr().String())
	if err == nil {
		conn.Close()
		t.Fatal("OpenStream succeeded against a silent peer")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want the context's", err)
	}
	if late := time.Since(<-cancelled); late > 100*time.Millisecond {
		t.Fatalf("OpenStream returned %v after the cancel", late)
	}
}

// --- E6: the §5.3 robustness claim ---

func TestAsyncVsSyncRobustness(t *testing.T) {
	cfg := RobustnessConfig{
		Link:         LinkModel{FailureRate: 0.01, MsgTime: 200 * time.Millisecond},
		JobDuration:  10 * time.Minute,
		PollInterval: time.Minute,
		Trials:       200,
		MaxRetries:   25,
		Seed:         7,
	}
	res := SimulateRobustness(cfg)
	if res.Async.CompletionRate() < 0.99 {
		t.Fatalf("async completion = %.2f, want ~1 (short interactions shrug off failures)",
			res.Async.CompletionRate())
	}
	if res.Sync.CompletionRate() >= res.Async.CompletionRate() {
		t.Fatalf("sync (%.2f) not worse than async (%.2f) at λ=0.01/s",
			res.Sync.CompletionRate(), res.Async.CompletionRate())
	}
	// The sync protocol wastes work: every broken connection reruns the job.
	if res.Sync.Completed > 0 && res.Sync.JobExecutions <= res.Sync.Completed {
		t.Fatalf("sync executions %d <= completions %d; rerun accounting broken",
			res.Sync.JobExecutions, res.Sync.Completed)
	}
	// The async protocol never reruns jobs.
	if res.Async.JobExecutions != res.Async.Completed {
		t.Fatalf("async executed %d jobs for %d completions",
			res.Async.JobExecutions, res.Async.Completed)
	}
}

func TestRobustnessPerfectLink(t *testing.T) {
	res := SimulateRobustness(RobustnessConfig{
		Link:        LinkModel{FailureRate: 0, MsgTime: 100 * time.Millisecond},
		JobDuration: time.Minute,
		Trials:      50,
		Seed:        1,
	})
	if res.Async.CompletionRate() != 1 || res.Sync.CompletionRate() != 1 {
		t.Fatalf("perfect link: async=%.2f sync=%.2f",
			res.Async.CompletionRate(), res.Sync.CompletionRate())
	}
	if res.Async.MessagesLost != 0 || res.Sync.MessagesLost != 0 {
		t.Fatal("losses on a perfect link")
	}
}

func TestRobustnessDegradesWithJobLength(t *testing.T) {
	// The gap must widen as jobs get longer: that is the whole argument for
	// the asynchronous protocol.
	gap := func(dur time.Duration) float64 {
		res := SimulateRobustness(RobustnessConfig{
			Link:        LinkModel{FailureRate: 0.005, MsgTime: 100 * time.Millisecond},
			JobDuration: dur,
			Trials:      300,
			MaxRetries:  10,
			Seed:        3,
		})
		return res.Async.CompletionRate() - res.Sync.CompletionRate()
	}
	short := gap(30 * time.Second)
	long := gap(30 * time.Minute)
	if long <= short {
		t.Fatalf("robustness gap did not grow with job length: short=%.3f long=%.3f", short, long)
	}
}
