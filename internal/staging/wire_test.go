package staging_test

import (
	"bytes"
	"context"
	"encoding/json"
	"hash/crc64"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"testing"
	"time"

	"unicore/internal/ajo"
	"unicore/internal/client"
	"unicore/internal/core"
	"unicore/internal/gateway"
	"unicore/internal/pki"
	"unicore/internal/protocol"
	"unicore/internal/resources"
	"unicore/internal/staging"
	"unicore/internal/testbed"
)

// These tests drive the upload/download engines against a real gateway + NJS
// + spool, through both of the gateway's doors and over every transport the
// repository has — the ownership rule is a contract between tiers, so it is
// checked where the tiers meet.

const (
	wireUsite = core.Usite("OWN")
	wireVsite = core.Vsite("CLUSTER")
)

// raceEnabled is set by race_test.go under -race, where sync.Pool drops a
// quarter of all Puts on purpose and allocation totals mean nothing.
var raceEnabled bool

func wirePayload(n int, salt byte) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(i*31+i/509) ^ salt
	}
	return out
}

type wireSite struct {
	d    *testbed.Deployment
	user *pki.Credential
}

func newWireSite(t *testing.T) *wireSite {
	t.Helper()
	d, err := testbed.SingleSite(wireUsite, wireVsite, 16)
	if err != nil {
		t.Fatalf("SingleSite: %v", err)
	}
	t.Cleanup(d.Close)
	user, err := d.NewUser("Wire User", "Test", "wire")
	if err != nil {
		t.Fatalf("NewUser: %v", err)
	}
	return &wireSite{d: d, user: user}
}

// spool is the server-side truth the tests compare against.
func (s *wireSite) spool(t *testing.T) *staging.Spool {
	t.Helper()
	sp, ok := s.d.Sites[wireUsite].NJS.StagingSpool(wireVsite)
	if !ok {
		t.Fatal("site has no spool")
	}
	return sp
}

// envelopeDoor is the upload surface over the gateway's signed-envelope door:
// each call is sealed under the user's credential, handed to HandleContext,
// and its server-signed reply opened — what a POSTing client did.
type envelopeDoor struct{ s *wireSite }

func (d envelopeDoor) call(ctx context.Context, t protocol.MsgType, req, reply any) error {
	env, err := protocol.Seal(d.s.user, t, req)
	if err != nil {
		return err
	}
	rt, raw, _, _, err := protocol.Open(d.s.d.CA, d.s.d.Sites[wireUsite].Gateway.HandleContext(ctx, env))
	if err != nil {
		return err
	}
	if rt == protocol.MsgError {
		var er protocol.ErrorReply
		if err := json.Unmarshal(raw, &er); err != nil {
			return err
		}
		return &er
	}
	return json.Unmarshal(raw, reply)
}

func (d envelopeDoor) PutOpen(ctx context.Context, req protocol.PutOpenRequest) (reply protocol.PutOpenReply, err error) {
	return reply, d.call(ctx, protocol.MsgPutOpen, req, &reply)
}

func (d envelopeDoor) PutChunk(ctx context.Context, req protocol.PutChunkRequest) (reply protocol.PutChunkReply, err error) {
	return reply, d.call(ctx, protocol.MsgPutChunk, req, &reply)
}

func (d envelopeDoor) PutCommit(ctx context.Context, req protocol.PutCommitRequest) (reply protocol.PutCommitReply, err error) {
	return reply, d.call(ctx, protocol.MsgPutCommit, req, &reply)
}

// putters returns one upload surface per way in: signed envelopes sealed into
// HandleContext, v3 frames over InProc's net.Pipe, and v3 frames over mutual
// TLS on loopback TCP.
func (s *wireSite) putters(t *testing.T) map[string]staging.Putter {
	t.Helper()

	srvCred, err := s.d.CA.IssueServer("wire-test-listener", "localhost")
	if err != nil {
		t.Fatalf("IssueServer: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	served := make(chan error, 1)
	go func() { served <- gateway.ServeTLS(ln, s.d.Sites[wireUsite].Gateway, srvCred, s.d.CA) }()
	cfg := pki.ClientTLS(s.user, s.d.CA)
	cfg.ServerName = "localhost"
	httpTr := &http.Transport{TLSClientConfig: cfg}
	reg := protocol.NewRegistry()
	reg.Add(wireUsite, "https://"+ln.Addr().String())
	tlsClient := protocol.NewClient(protocol.NewHTTPTransport(httpTr), s.user, s.d.CA, reg)
	t.Cleanup(func() {
		tlsClient.Close()
		httpTr.CloseIdleConnections()
		ln.Close()
		<-served
	})

	pipe := s.d.UserClient(s.user)
	t.Cleanup(pipe.Close)
	return map[string]staging.Putter{
		"inproc-envelopes": envelopeDoor{s},
		"net-pipe-frames":  client.NewSession(pipe, wireUsite),
		"loopback-tls":     client.NewSession(tlsClient, wireUsite),
	}
}

// TestPutChunkNeverRetainsCallerBuffer is the client half of the ownership
// rule: once PutChunk returns the caller may scribble over req.Data — and the
// upload engine does, reusing pooled buffers across batches and uploads —
// without the spooled content ever changing.
func TestPutChunkNeverRetainsCallerBuffer(t *testing.T) {
	site := newWireSite(t)
	ctx := context.Background()
	for name, sess := range site.putters(t) {
		t.Run(name, func(t *testing.T) {
			const chunk = 32 << 10
			want := wirePayload(3*chunk+100, 0)
			open, err := sess.PutOpen(ctx, protocol.PutOpenRequest{Vsite: wireVsite, Name: "a.dat", ChunkSize: chunk, Window: 4})
			if err != nil {
				t.Fatalf("PutOpen: %v", err)
			}
			buf := make([]byte, chunk)
			for i := 0; i*chunk < len(want); i++ {
				n := copy(buf, want[i*chunk:])
				if _, err := sess.PutChunk(ctx, protocol.PutChunkRequest{
					Handle: open.Handle, Index: int64(i), Data: buf[:n], CRC: staging.Checksum(buf[:n]),
				}); err != nil {
					t.Fatalf("PutChunk(%d): %v", i, err)
				}
				for j := range buf {
					buf[j] = 0xEE // the caller's buffer is the caller's again
				}
			}
			if _, err := sess.PutCommit(ctx, protocol.PutCommitRequest{Handle: open.Handle, CRC: staging.Checksum(want)}); err != nil {
				t.Fatalf("PutCommit: %v", err)
			}

			// Two engine uploads back to back: the second runs on the pooled
			// buffers the first one filled.
			opts := staging.Options{ChunkSize: chunk, Window: 2}
			first, second := wirePayload(7*chunk+5, 1), wirePayload(7*chunk+5, 2)
			h1, _, err := staging.Upload(ctx, sess, wireVsite, "first.dat", bytes.NewReader(first), opts)
			if err != nil {
				t.Fatalf("Upload(first): %v", err)
			}
			h2, _, err := staging.Upload(ctx, sess, wireVsite, "second.dat", bytes.NewReader(second), opts)
			if err != nil {
				t.Fatalf("Upload(second): %v", err)
			}
			for handle, content := range map[string][]byte{open.Handle: want, h1: first, h2: second} {
				got, info, err := site.spool(t).Consume(site.user.DN(), handle)
				if err != nil {
					t.Fatalf("Consume(%s): %v", handle, err)
				}
				if !bytes.Equal(got, content) || info.CRC != staging.Checksum(content) {
					t.Fatalf("spooled %s differs from what was sent", handle)
				}
			}
		})
	}
}

// crcSink checksums what it is handed and keeps nothing.
type crcSink struct {
	crc uint64
	n   int64
}

var wireCRC = crc64.MakeTable(crc64.ECMA)

func (s *crcSink) Write(p []byte) (int, error) {
	s.crc = crc64.Update(s.crc, wireCRC, p)
	s.n += int64(len(p))
	return len(p), nil
}

// TestStagedTransferAllocationBudget is the gate on the data plane's one
// machine-independent cost: a staged byte is allocated once per tier it comes
// to rest in, and in no other. An upload comes to rest in the spool, so
// uploading allocates the payload once: the put frame's payload becomes the
// stored chunk. A download comes to rest in no tier — the server hands out
// views of the stored file, and the client reads each reply straight into a
// pooled chunk buffer that it hands the writer and then reuses — so
// downloading allocates almost nothing. Upload and download share one pool of
// chunk buffers: the first download after the uploads, with no warm-up of its
// own, already runs on theirs. The budgets are 1.3× payload up and 0.2× down;
// the pre-ownership engine spent 4.1× up and 2.0× down, and downloads spent
// 1.0× until their receive buffers came from the pool.
func TestStagedTransferAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool deliberately drops buffers under -race")
	}
	const (
		fileSize   = 8 << 20
		rounds     = 6
		upBudget   = 1.3
		downBudget = 0.2
	)
	// With the collector off nothing empties the buffer pools mid-transfer, so
	// the figures are what the code path allocates, not how often a small test
	// heap happens to be collected (~150 MiB is allocated in all). With one P,
	// no buffer sits in another P's private pool slot, out of the next
	// transfer's reach.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	site := newWireSite(t)
	ctx := context.Background()
	sess := site.d.Session(site.user, wireUsite) // v3 frames over InProc
	payload := wirePayload(fileSize, 3)
	want := staging.Checksum(payload)

	// allocated is what n runs of fn allocate per payload byte.
	allocated := func(n int, fn func()) float64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < n; i++ {
			fn()
		}
		runtime.ReadMemStats(&m1)
		return float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n*fileSize)
	}
	check := func(what string, got, budget float64) {
		t.Helper()
		if got > budget {
			t.Errorf("%s allocated %.2f× its payload, budget %.1f×", what, got, budget)
		} else {
			t.Logf("%s allocated %.2f× its payload", what, got)
		}
	}
	var handle string
	upload := func() {
		h, commit, err := staging.Upload(ctx, sess, wireVsite, "in.dat", bytes.NewReader(payload), sess.Transfer)
		if err != nil {
			t.Fatalf("Upload: %v", err)
		}
		if commit.Size != fileSize || commit.CRC != want {
			t.Fatalf("commit sealed %d/%#x, want %d/%#x", commit.Size, commit.CRC, fileSize, want)
		}
		handle = h
	}

	upload() // warm-up: fills the buffer pools, as a client's first transfer does
	check("upload", allocated(rounds, upload), upBudget)

	// Land the upload in a job's Uspace so there is something to download.
	b := client.NewJob("alloc-budget", core.Target{Usite: wireUsite, Vsite: wireVsite})
	imp := b.ImportStaged("stage", handle, "in.dat")
	run := b.Script("noop", "echo ok\n", resources.Request{Processors: 1, RunTime: time.Minute})
	b.After(imp, run)
	job, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	id, err := sess.Submit(ctx, job)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	site.d.Run(1_000_000)
	if sum, err := sess.Status(ctx, id); err != nil || sum.Status != ajo.StatusSuccessful {
		t.Fatalf("staging job: %+v, %v", sum, err)
	}

	download := func() {
		var sink crcSink
		if _, err := sess.Download(ctx, id, "in.dat", &sink); err != nil {
			t.Fatalf("Download: %v", err)
		}
		if sink.n != fileSize || sink.crc != want {
			t.Fatalf("downloaded %d bytes crc %#x, want %d/%#x", sink.n, sink.crc, fileSize, want)
		}
	}
	check("the first download after the uploads", allocated(1, download), downBudget)
	check("download", allocated(rounds, download), downBudget)
}

// TestDownloadAllocatesOnlyItsWindow runs downloads where a benchmark runs
// them — two Ps, the collector on — and empties every pool before each, so
// no buffer an earlier transfer left behind can hide an allocation. What a
// download then allocates in large objects (above 32 KiB) is its own chunk
// ring, at most Window buffers on the client: the server writes each chunk
// from the vfs view it rests in, and no frame buffer on either side is
// built to hold one.
func TestDownloadAllocatesOnlyItsWindow(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool deliberately drops buffers under -race")
	}
	const (
		chunks    = 8
		downloads = 4
	)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	site := newWireSite(t)
	ctx := context.Background()
	sess := site.d.Session(site.user, wireUsite) // v3 frames over InProc
	if sess.Transfer != (staging.Options{}) {
		t.Fatalf("session transfer options %+v, want the engine defaults", sess.Transfer)
	}
	payload := wirePayload(chunks*staging.DefaultChunkSize, 4)
	want := staging.Checksum(payload)

	handle, _, err := staging.Upload(ctx, sess, wireVsite, "in.dat", bytes.NewReader(payload), sess.Transfer)
	if err != nil {
		t.Fatalf("Upload: %v", err)
	}
	b := client.NewJob("window", core.Target{Usite: wireUsite, Vsite: wireVsite})
	imp := b.ImportStaged("stage", handle, "in.dat")
	run := b.Script("noop", "echo ok\n", resources.Request{Processors: 1, RunTime: time.Minute})
	b.After(imp, run)
	job, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	id, err := sess.Submit(ctx, job)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	site.d.Run(1_000_000)
	if sum, err := sess.Status(ctx, id); err != nil || sum.Status != ajo.StatusSuccessful {
		t.Fatalf("staging job: %+v, %v", sum, err)
	}

	// largeObjects counts the heap objects above 32 KiB allocated so far: the
	// last bucket of the allocation-size histogram.
	sample := []metrics.Sample{{Name: "/gc/heap/allocs-by-size:bytes"}}
	largeObjects := func() uint64 {
		metrics.Read(sample)
		h := sample[0].Value.Float64Histogram()
		if lo := h.Buckets[len(h.Buckets)-2]; lo < 32<<10 {
			t.Fatalf("the histogram's last bucket starts at %v bytes, not above 32 KiB", lo)
		}
		return h.Counts[len(h.Counts)-1]
	}
	for i := 0; i < downloads; i++ {
		runtime.GC() // twice: a pool's victim cache survives one collection
		runtime.GC()
		before := largeObjects()
		var sink crcSink
		if _, err := sess.Download(ctx, id, "in.dat", &sink); err != nil {
			t.Fatalf("Download: %v", err)
		}
		if sink.n != int64(len(payload)) || sink.crc != want {
			t.Fatalf("downloaded %d bytes crc %#x, want %d/%#x", sink.n, sink.crc, len(payload), want)
		}
		if got := largeObjects() - before; got > staging.DefaultWindow {
			t.Errorf("download %d allocated %d objects above 32 KiB, want at most its window of %d", i, got, staging.DefaultWindow)
		}
	}
}
