package staging

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"unicore/internal/core"
	"unicore/internal/protocol"
	"unicore/internal/sim"
	"unicore/internal/vfs"
)

// fileSource serves ranged reads over an in-memory file, like the NJS
// transfer endpoint does: every reply carries the file's current size and
// whole-file CRC, and its bytes land in the engine's buffer, as a wire reads
// them. mutate (optional) swaps the content after a given number of reads;
// failAt injects one transient failure per listed offset.
type fileSource struct {
	mu      sync.Mutex
	data    []byte
	reads   int
	mutateN int    // after this many reads...
	mutate  []byte // ...the file becomes this (nil = never)
	failAt  map[int64]int
}

func (f *fileSource) src(_ context.Context, offset, limit int64, buf []byte) (Chunk, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.reads++
	if f.mutate != nil && f.reads > f.mutateN {
		f.data, f.mutate = f.mutate, nil
	}
	if n := f.failAt[offset]; n > 0 {
		f.failAt[offset] = n - 1
		return Chunk{}, fmt.Errorf("transient: reply for offset %d lost", offset)
	}
	size := int64(len(f.data))
	if offset > size {
		offset = size
	}
	end := offset + limit
	if end > size {
		end = size
	}
	return Chunk{
		Data: append(buf[:0], f.data[offset:end]...),
		Size: size,
		CRC:  Checksum(f.data),
	}, nil
}

// pattern returns n deterministic, position-dependent bytes.
func pattern(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(i*7 + i/251)
	}
	return out
}

func TestDownloadStreamsInOrder(t *testing.T) {
	payload := pattern(100_000)
	f := &fileSource{data: payload}
	var got bytes.Buffer
	p, err := Download(context.Background(), f.src, &got, Options{ChunkSize: 4096, Window: 6})
	if err != nil {
		t.Fatalf("Download: %v", err)
	}
	if !bytes.Equal(got.Bytes(), payload) {
		t.Fatal("downloaded bytes differ from source")
	}
	if p.Offset != int64(len(payload)) || p.CRC != Checksum(payload) {
		t.Fatalf("progress %+v, want offset %d crc %#x", p, len(payload), Checksum(payload))
	}
}

func TestDownloadZeroByteFile(t *testing.T) {
	f := &fileSource{data: nil}
	var got bytes.Buffer
	if _, err := Download(context.Background(), f.src, &got, Options{ChunkSize: 4096, Window: 4}); err != nil {
		t.Fatalf("Download(empty): %v", err)
	}
	if got.Len() != 0 {
		t.Fatalf("empty file downloaded as %d bytes", got.Len())
	}
}

func TestDownloadSingleChunkFile(t *testing.T) {
	payload := pattern(100)
	f := &fileSource{data: payload}
	var got bytes.Buffer
	if _, err := Download(context.Background(), f.src, &got, Options{ChunkSize: 4096, Window: 4}); err != nil {
		t.Fatalf("Download: %v", err)
	}
	if !bytes.Equal(got.Bytes(), payload) {
		t.Fatal("single-chunk download differs from source")
	}
}

// TestDownloadHoldsAtMostWindowChunks stalls the second chunk of a 256-chunk
// file. The chunks behind it arrive but cannot be written yet, and the engine
// must stop fetching once Window of them are in flight or parked: one inline
// first read plus Window readahead reads, not the whole file pulled into the
// reorder buffer while the head is stuck.
func TestDownloadHoldsAtMostWindowChunks(t *testing.T) {
	const chunk, window = 1024, 4
	payload := pattern(256 * chunk)
	f := &fileSource{data: payload}
	var calls atomic.Int32
	release := make(chan struct{})
	src := func(ctx context.Context, off, limit int64, buf []byte) (Chunk, error) {
		calls.Add(1)
		if int64(cap(buf)) < limit+protocol.TransferReplyOverhead {
			t.Errorf("a %d-byte read was lent a %d-byte buffer, too small for its reply", limit, cap(buf))
		}
		if off == chunk {
			<-release
		}
		return f.src(ctx, off, limit, buf)
	}
	var got bytes.Buffer
	done := make(chan error, 1)
	go func() {
		_, err := Download(context.Background(), src, &got, Options{ChunkSize: chunk, Window: window})
		done <- err
	}()
	time.Sleep(300 * time.Millisecond)
	stalled := calls.Load()
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("Download: %v", err)
	}
	if stalled != window+1 {
		t.Errorf("%d Source calls while the head chunk stalled, want Window+1 = %d", stalled, window+1)
	}
	if !bytes.Equal(got.Bytes(), payload) {
		t.Fatal("downloaded bytes differ from source")
	}
}

// TestDownloadSurfacesMidTransferMutation is the regression test for the seed
// fetch loop: a file that changes between chunks must abort the transfer with
// a checksum/mutation error — never loop, and never hand back a silent
// mixture of old and new bytes.
func TestDownloadSurfacesMidTransferMutation(t *testing.T) {
	payload := pattern(64_000)
	changed := append(pattern(64_000), []byte("GREW")...)
	f := &fileSource{data: payload, mutateN: 1, mutate: changed}
	var got bytes.Buffer
	_, err := Download(context.Background(), f.src, &got, Options{ChunkSize: 4096, Window: 1, Retries: -1})
	if !errors.Is(err, ErrMutated) {
		t.Fatalf("mid-transfer mutation: err = %v, want ErrMutated", err)
	}
}

// TestDownloadShrinkingFileDoesNotLoop covers the nastier mutation: the file
// shrinks below the current offset, which in a naive loop re-reads EOF
// forever.
func TestDownloadShrinkingFileDoesNotLoop(t *testing.T) {
	payload := pattern(64_000)
	f := &fileSource{data: payload, mutateN: 2, mutate: pattern(100)}
	var got bytes.Buffer
	_, err := Download(context.Background(), f.src, &got, Options{ChunkSize: 4096, Window: 1, Retries: -1})
	if !errors.Is(err, ErrMutated) {
		t.Fatalf("shrinking file: err = %v, want ErrMutated", err)
	}
}

func TestDownloadRetriesTransientFailures(t *testing.T) {
	payload := pattern(50_000)
	f := &fileSource{data: payload, failAt: map[int64]int{4096: 2, 12288: 1}}
	var got bytes.Buffer
	_, err := Download(context.Background(), f.src, &got, Options{
		ChunkSize: 4096, Window: 4, Retries: 3, Backoff: 1,
	})
	if err != nil {
		t.Fatalf("Download with transient failures: %v", err)
	}
	if !bytes.Equal(got.Bytes(), payload) {
		t.Fatal("retried download differs from source")
	}
}

func TestDownloadFailsFastOnMissingFile(t *testing.T) {
	calls := 0
	src := func(context.Context, int64, int64, []byte) (Chunk, error) {
		calls++
		return Chunk{}, fmt.Errorf("%w: no such job file", ErrNotFound)
	}
	if _, err := Download(context.Background(), src, &bytes.Buffer{}, Options{Retries: 5, Backoff: 1}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing file: err = %v, want ErrNotFound", err)
	}
	if calls != 1 {
		t.Fatalf("missing file was retried %d times; permanent errors must fail fast", calls)
	}
}

// TestDownloadResumeAfterDroppedReply drives the resume contract: a download
// that dies mid-file (retries exhausted on a dropped reply) reports its
// progress, and Resume continues from that exact offset — no byte refetched,
// no byte missing, whole-file CRC still verified.
func TestDownloadResumeAfterDroppedReply(t *testing.T) {
	payload := pattern(80_000)
	f := &fileSource{data: payload, failAt: map[int64]int{40960: 1}}
	var got bytes.Buffer
	p, err := Download(context.Background(), f.src, &got, Options{
		ChunkSize: 4096, Window: 1, Retries: -1, // no retries: the dropped reply kills the transfer
	})
	if err == nil {
		t.Fatal("Download succeeded despite the dropped reply")
	}
	if p.Offset != 40960 {
		t.Fatalf("progress offset %d, want 40960 (the contiguous prefix)", p.Offset)
	}
	resumed, err := Resume(context.Background(), f.src, &got, p, Options{ChunkSize: 4096, Window: 4})
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if !bytes.Equal(got.Bytes(), payload) {
		t.Fatal("resumed download differs from source")
	}
	if resumed.Offset != int64(len(payload)) {
		t.Fatalf("resumed progress %d, want %d", resumed.Offset, len(payload))
	}
}

// hookWriter runs hook once, on the first write, then behaves like a buffer.
type hookWriter struct {
	bytes.Buffer
	hook func()
}

func (w *hookWriter) Write(p []byte) (int, error) {
	if w.hook != nil {
		w.hook()
		w.hook = nil
	}
	return w.Buffer.Write(p)
}

// TestDownloadDuringOverwriteIsMutatedNotTorn serves a download straight from
// vfs ranged reads — read-only views of the stored bytes, no copies — while
// the file is overwritten with readahead chunks in flight. The views already
// handed out must keep the old bytes, and the transfer must end in
// ErrMutated with an untorn prefix of the old version delivered.
func TestDownloadDuringOverwriteIsMutatedNotTorn(t *testing.T) {
	fs := vfs.New(sim.NewVirtualClock())
	before, after := pattern(256<<10), bytes.Repeat([]byte{0xAB}, 256<<10)
	if err := fs.WriteFile("/f", before); err != nil {
		t.Fatal(err)
	}
	src := func(_ context.Context, off, limit int64, _ []byte) (Chunk, error) {
		data, size, crc, err := fs.ReadFileRange("/f", off, limit)
		return Chunk{Data: data, Size: size, CRC: crc}, err
	}
	w := &hookWriter{hook: func() {
		if err := fs.WriteFile("/f", after); err != nil {
			t.Error(err)
		}
	}}
	p, err := Download(context.Background(), src, w, Options{ChunkSize: 4096, Window: 4, Retries: -1})
	if !errors.Is(err, ErrMutated) {
		t.Fatalf("download across an overwrite: err = %v, want ErrMutated", err)
	}
	if p.Offset != int64(w.Len()) || !bytes.Equal(w.Bytes(), before[:w.Len()]) {
		t.Fatalf("delivered %d bytes (progress %d) that are not a prefix of the old version", w.Len(), p.Offset)
	}
}

// --- upload engine over a real spool -------------------------------------

// spoolPutter adapts a Spool directly to the Putter interface — the upload
// engine against the real server half, minus the wire. Like a wire, it hands
// the spool its own copy of each chunk: the engine reuses req.Data after
// PutChunk returns, and Spool.Chunk keeps what it is given.
type spoolPutter struct {
	s     *Spool
	owner core.DN
	// dropChunkReplies drops the reply of the first send of each listed
	// index: the spool processes the chunk but the "client" sees an error.
	mu               sync.Mutex
	dropChunkReplies map[int64]int
	dropCommits      int
}

func (p *spoolPutter) PutOpen(_ context.Context, req protocol.PutOpenRequest) (protocol.PutOpenReply, error) {
	info, err := p.s.Open(p.owner, req.Name, req.ChunkSize, req.Window)
	if err != nil {
		return protocol.PutOpenReply{}, err
	}
	return protocol.PutOpenReply{Handle: info.Handle, ChunkSize: info.ChunkSize, Window: info.Window}, nil
}

func (p *spoolPutter) PutChunk(_ context.Context, req protocol.PutChunkRequest) (protocol.PutChunkReply, error) {
	w, err := p.s.Chunk(p.owner, req.Handle, req.Index, append([]byte(nil), req.Data...), req.CRC)
	if err != nil {
		return protocol.PutChunkReply{}, err
	}
	p.mu.Lock()
	drop := p.dropChunkReplies[req.Index] > 0
	if drop {
		p.dropChunkReplies[req.Index]--
	}
	p.mu.Unlock()
	if drop {
		return protocol.PutChunkReply{}, fmt.Errorf("transient: chunk %d reply lost", req.Index)
	}
	return protocol.PutChunkReply{Received: w}, nil
}

func (p *spoolPutter) PutCommit(_ context.Context, req protocol.PutCommitRequest) (protocol.PutCommitReply, error) {
	info, err := p.s.Commit(p.owner, req.Handle, req.CRC)
	if err != nil {
		return protocol.PutCommitReply{}, err
	}
	p.mu.Lock()
	drop := p.dropCommits > 0
	if drop {
		p.dropCommits--
	}
	p.mu.Unlock()
	if drop {
		return protocol.PutCommitReply{}, fmt.Errorf("transient: commit reply lost")
	}
	return protocol.PutCommitReply{Size: info.Size, CRC: info.CRC, Chunks: info.Chunks}, nil
}

func newSpoolPutter(t *testing.T) (*spoolPutter, *Spool) {
	t.Helper()
	clock := sim.NewVirtualClock()
	s, err := NewSpool(vfs.New(clock), "/spool", "", clock)
	if err != nil {
		t.Fatalf("NewSpool: %v", err)
	}
	return &spoolPutter{s: s, owner: "u", dropChunkReplies: map[int64]int{}}, s
}

func uploadRoundTrip(t *testing.T, p *spoolPutter, payload []byte, opt Options) {
	t.Helper()
	handle, commit, err := Upload(context.Background(), p, "CLUSTER", "in.dat", bytes.NewReader(payload), opt)
	if err != nil {
		t.Fatalf("Upload: %v", err)
	}
	if commit.Size != int64(len(payload)) || commit.CRC != Checksum(payload) {
		t.Fatalf("commit %d/%#x, want %d/%#x", commit.Size, commit.CRC, len(payload), Checksum(payload))
	}
	data, _, err := p.s.Consume("u", handle)
	if err != nil {
		t.Fatalf("Consume: %v", err)
	}
	if !bytes.Equal(data, payload) {
		t.Fatal("spooled bytes differ from upload")
	}
}

func TestUploadRoundTrip(t *testing.T) {
	p, _ := newSpoolPutter(t)
	uploadRoundTrip(t, p, pattern(100_000), Options{ChunkSize: 4096, Window: 4, Backoff: 1})
}

func TestUploadZeroByteAndOneChunk(t *testing.T) {
	p, _ := newSpoolPutter(t)
	uploadRoundTrip(t, p, nil, Options{ChunkSize: 4096, Window: 4, Backoff: 1})
	p2, _ := newSpoolPutter(t)
	uploadRoundTrip(t, p2, pattern(100), Options{ChunkSize: 4096, Window: 4, Backoff: 1})
}

// TestUploadResendsAfterDroppedReplies proves chunk re-send idempotency end
// to end: replies are dropped after the spool applied the chunk, the engine
// re-sends, and the sealed content is still byte-exact.
func TestUploadResendsAfterDroppedReplies(t *testing.T) {
	p, _ := newSpoolPutter(t)
	p.dropChunkReplies = map[int64]int{0: 1, 3: 2}
	p.dropCommits = 1
	uploadRoundTrip(t, p, pattern(40_000), Options{ChunkSize: 4096, Window: 4, Retries: 4, Backoff: 1})
}
