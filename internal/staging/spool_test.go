package staging

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"unicore/internal/core"
	"unicore/internal/sim"
	"unicore/internal/vfs"
)

// newTestSpool builds a spool on a fresh virtual-clock FS.
func newTestSpool(t *testing.T) (*Spool, *vfs.FS, *sim.VirtualClock) {
	t.Helper()
	clock := sim.NewVirtualClock()
	fs := vfs.New(clock)
	s, err := NewSpool(fs, "/spool", "", clock)
	if err != nil {
		t.Fatalf("NewSpool: %v", err)
	}
	return s, fs, clock
}

// sendChunks delivers data to an open upload on the entry's grid.
func sendChunks(t *testing.T, s *Spool, owner, handle string, chunkSize int64, data []byte) {
	t.Helper()
	for i := int64(0); i*chunkSize < int64(len(data)); i++ {
		lo, hi := i*chunkSize, (i+1)*chunkSize
		if hi > int64(len(data)) {
			hi = int64(len(data))
		}
		piece := data[lo:hi]
		if _, err := s.Chunk(core.DN(owner), handle, i, piece, Checksum(piece)); err != nil {
			t.Fatalf("Chunk(%d): %v", i, err)
		}
	}
}

func TestSpoolRoundTrip(t *testing.T) {
	s, _, _ := newTestSpool(t)
	payload := bytes.Repeat([]byte("spool round trip "), 1000) // ~17 KB, 3 chunks at 8 KiB
	info, err := s.Open("u", "in.dat", 8<<10, 4)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	sendChunks(t, s, "u", info.Handle, info.ChunkSize, payload)
	sealed, err := s.Commit("u", info.Handle, Checksum(payload))
	if err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if sealed.Size != int64(len(payload)) || sealed.CRC != Checksum(payload) {
		t.Fatalf("sealed %d/%#x, want %d/%#x", sealed.Size, sealed.CRC, len(payload), Checksum(payload))
	}
	data, _, err := s.Consume("u", info.Handle)
	if err != nil {
		t.Fatalf("Consume: %v", err)
	}
	if !bytes.Equal(data, payload) {
		t.Fatal("consumed bytes differ from upload")
	}
}

func TestSpoolChunkResendIsIdempotent(t *testing.T) {
	s, fs, _ := newTestSpool(t)
	info, err := s.Open("u", "f", 8, 4)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	chunk := []byte("12345678")
	if _, err := s.Chunk("u", info.Handle, 0, chunk, Checksum(chunk)); err != nil {
		t.Fatalf("Chunk: %v", err)
	}
	// A re-send — the reply was lost — is acknowledged without rewriting,
	// even when the (buggy or racing) sender presents different bytes.
	w, err := s.Chunk("u", info.Handle, 0, []byte("DIFFERNT"), Checksum([]byte("DIFFERNT")))
	if err != nil {
		t.Fatalf("re-send: %v", err)
	}
	if w != 1 {
		t.Fatalf("watermark after re-send = %d, want 1", w)
	}
	got, err := fs.ReadFile("/spool/" + info.Handle + "/c00000000")
	if err != nil || !bytes.Equal(got, chunk) {
		t.Fatalf("chunk content changed on re-send: %q, %v", got, err)
	}
}

func TestSpoolRejectsOutOfOrderChunks(t *testing.T) {
	s, _, _ := newTestSpool(t)
	info, err := s.Open("u", "f", 8, 2)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	chunk := []byte("abcdefgh")
	// Window 2, watermark 0: indices 0 and 1 are in the window, 2 is not.
	if _, err := s.Chunk("u", info.Handle, 1, chunk, Checksum(chunk)); err != nil {
		t.Fatalf("in-window out-of-order chunk refused: %v", err)
	}
	if _, err := s.Chunk("u", info.Handle, 2, chunk, Checksum(chunk)); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("chunk beyond window: err = %v, want ErrOutOfOrder", err)
	}
	if _, err := s.Chunk("u", info.Handle, -1, chunk, Checksum(chunk)); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("negative index: err = %v, want ErrOutOfOrder", err)
	}
	// Filling the hole advances the watermark over the buffered chunk.
	w, err := s.Chunk("u", info.Handle, 0, chunk, Checksum(chunk))
	if err != nil || w != 2 {
		t.Fatalf("filling the hole: watermark %d, err %v; want 2, nil", w, err)
	}
}

func TestSpoolCommitRefusesHoles(t *testing.T) {
	s, _, _ := newTestSpool(t)
	info, err := s.Open("u", "f", 8, 4)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	chunk := []byte("abcdefgh")
	if _, err := s.Chunk("u", info.Handle, 1, chunk, Checksum(chunk)); err != nil {
		t.Fatalf("Chunk(1): %v", err)
	}
	if _, err := s.Commit("u", info.Handle, Checksum(chunk)); !errors.Is(err, ErrMissingChunk) {
		t.Fatalf("commit with chunk 0 missing: err = %v, want ErrMissingChunk", err)
	}
}

func TestSpoolChunkChecksumVerified(t *testing.T) {
	s, _, _ := newTestSpool(t)
	info, err := s.Open("u", "f", 8, 4)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := s.Chunk("u", info.Handle, 0, []byte("abcdefgh"), 0xbad); !errors.Is(err, ErrChecksum) {
		t.Fatalf("bad chunk CRC: err = %v, want ErrChecksum", err)
	}
}

func TestSpoolCommitChecksumVerified(t *testing.T) {
	s, _, _ := newTestSpool(t)
	info, err := s.Open("u", "f", 8, 4)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	chunk := []byte("abcdefgh")
	if _, err := s.Chunk("u", info.Handle, 0, chunk, Checksum(chunk)); err != nil {
		t.Fatalf("Chunk: %v", err)
	}
	if _, err := s.Commit("u", info.Handle, Checksum(chunk)+1); !errors.Is(err, ErrChecksum) {
		t.Fatalf("bad whole-file CRC: err = %v, want ErrChecksum", err)
	}
	// The correct CRC still commits — a failed commit poisons nothing.
	if _, err := s.Commit("u", info.Handle, Checksum(chunk)); err != nil {
		t.Fatalf("Commit after failed commit: %v", err)
	}
}

func TestSpoolOwnerEnforced(t *testing.T) {
	s, _, _ := newTestSpool(t)
	info, err := s.Open("alice", "f", 8, 4)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	chunk := []byte("abcdefgh")
	if _, err := s.Chunk("mallory", info.Handle, 0, chunk, Checksum(chunk)); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("foreign chunk: err = %v, want ErrNotOwner", err)
	}
	if _, err := s.Commit("mallory", info.Handle, Checksum(chunk)); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("foreign commit: err = %v, want ErrNotOwner", err)
	}
	if _, _, err := s.Consume("mallory", info.Handle); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("foreign consume: err = %v, want ErrNotOwner", err)
	}
}

func TestSpoolZeroByteAndOneChunkFiles(t *testing.T) {
	s, _, _ := newTestSpool(t)

	// Zero-byte upload: no chunks at all, sealed by the commit alone.
	empty, err := s.Open("u", "empty", 8, 4)
	if err != nil {
		t.Fatalf("Open(empty): %v", err)
	}
	sealed, err := s.Commit("u", empty.Handle, Checksum(nil))
	if err != nil {
		t.Fatalf("Commit(empty): %v", err)
	}
	if sealed.Size != 0 {
		t.Fatalf("empty upload sealed at %d bytes", sealed.Size)
	}
	data, _, err := s.Consume("u", empty.Handle)
	if err != nil || len(data) != 0 {
		t.Fatalf("Consume(empty) = %d bytes, %v", len(data), err)
	}

	// Exactly-one-chunk upload (short final chunk is also the first).
	one, err := s.Open("u", "one", 8, 4)
	if err != nil {
		t.Fatalf("Open(one): %v", err)
	}
	payload := []byte("abc")
	if _, err := s.Chunk("u", one.Handle, 0, payload, Checksum(payload)); err != nil {
		t.Fatalf("Chunk: %v", err)
	}
	if _, err := s.Commit("u", one.Handle, Checksum(payload)); err != nil {
		t.Fatalf("Commit(one): %v", err)
	}
	data, _, err = s.Consume("u", one.Handle)
	if err != nil || !bytes.Equal(data, payload) {
		t.Fatalf("Consume(one) = %q, %v", data, err)
	}
}

func TestSpoolSweepCollectsAbandonedAndConsumed(t *testing.T) {
	s, fs, clock := newTestSpool(t)
	const ttl = time.Hour

	abandoned, err := s.Open("u", "abandoned", 8, 4)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	chunk := []byte("abcdefgh")
	if _, err := s.Chunk("u", abandoned.Handle, 0, chunk, Checksum(chunk)); err != nil {
		t.Fatalf("Chunk: %v", err)
	}

	// A consumed upload is collected immediately.
	done, err := s.Open("u", "done", 8, 4)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := s.Commit("u", done.Handle, Checksum(nil)); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if _, _, err := s.Consume("u", done.Handle); err != nil {
		t.Fatalf("Consume: %v", err)
	}
	if n := s.Sweep(ttl); n != 1 {
		t.Fatalf("first sweep removed %d entries, want 1 (the consumed one)", n)
	}
	if _, ok := s.Stat(done.Handle); ok {
		t.Fatal("consumed upload survived the sweep")
	}
	if _, ok := s.Stat(abandoned.Handle); !ok {
		t.Fatal("young abandoned upload was swept early")
	}

	// Past the TTL the abandoned upload goes too, chunks and all.
	clock.Advance(ttl + time.Minute)
	if n := s.Sweep(ttl); n != 1 {
		t.Fatalf("second sweep removed %d entries, want 1 (the abandoned one)", n)
	}
	if fs.Exists("/spool/" + abandoned.Handle) {
		t.Fatal("abandoned upload's spool directory survived the sweep")
	}
	if _, err := s.Chunk("u", abandoned.Handle, 1, chunk, Checksum(chunk)); !errors.Is(err, ErrUnknownHandle) {
		t.Fatalf("chunk after sweep: err = %v, want ErrUnknownHandle", err)
	}
}

// TestSpoolTagsKeepHandlesDisjoint: every spool of a deployment mints under
// its own tag (a pool replica's instance), so handles never collide across
// the replicas of a pool and HandleTag reads the tag back — and the tag
// survives a rescan, counter included.
func TestSpoolTagsKeepHandlesDisjoint(t *testing.T) {
	clock := sim.NewVirtualClock()
	fs := vfs.New(clock)
	a, err := NewSpool(fs, "/spoolA", "T3E.r1", clock)
	if err != nil {
		t.Fatalf("NewSpool: %v", err)
	}
	b, err := NewSpool(fs, "/spoolB", "T3E.r2", clock)
	if err != nil {
		t.Fatalf("NewSpool: %v", err)
	}
	ia, err := a.Open("u", "f", 8, 4)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	ib, err := b.Open("u", "f", 8, 4)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if ia.Handle == ib.Handle {
		t.Fatalf("two spools minted the same handle %q", ia.Handle)
	}
	if want := "stg-T3E.r1-"; !strings.HasPrefix(ia.Handle, want) {
		t.Fatalf("handle %q does not carry its spool tag %q", ia.Handle, want)
	}
	if got := HandleTag(ib.Handle); got != "T3E.r2" {
		t.Fatalf("HandleTag(%q) = %q, want its spool's tag", ib.Handle, got)
	}
	for _, h := range []string{"stg-00000001", "T3E.r1-00000001", "stg-"} {
		if got := HandleTag(h); got != "" {
			t.Fatalf("HandleTag(%q) = %q, want no tag", h, got)
		}
	}
	// A rescan restores the counter under the tag: no re-minted collision.
	re, err := NewSpool(fs, "/spoolA", "T3E.r1", clock)
	if err != nil {
		t.Fatalf("NewSpool: %v", err)
	}
	if err := re.Rescan(); err != nil {
		t.Fatalf("Rescan: %v", err)
	}
	next, err := re.Open("u", "f2", 8, 4)
	if err != nil {
		t.Fatalf("Open after rescan: %v", err)
	}
	if next.Handle == ia.Handle {
		t.Fatalf("rescanned spool re-minted handle %q", next.Handle)
	}
}

func TestSpoolRescanRestoresEntries(t *testing.T) {
	s, fs, clock := newTestSpool(t)
	payload := bytes.Repeat([]byte("x"), 20) // 2.5 chunks at 8 bytes
	open, err := s.Open("u", "partial", 8, 4)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	sendChunks(t, s, "u", open.Handle, 8, payload[:16]) // two full chunks, not committed

	sealed, err := s.Open("u", "sealed", 8, 4)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	sendChunks(t, s, "u", sealed.Handle, 8, payload)
	if _, err := s.Commit("u", sealed.Handle, Checksum(payload)); err != nil {
		t.Fatalf("Commit: %v", err)
	}

	// An orphan directory without metadata (the open never became durable)
	// is discarded by the rescan.
	if err := fs.MkdirAll("/spool/stg-junk"); err != nil {
		t.Fatalf("MkdirAll: %v", err)
	}

	// A recovered NJS builds a fresh Spool over the replayed file tree.
	recovered, err := NewSpool(fs, "/spool", "", clock)
	if err != nil {
		t.Fatalf("NewSpool: %v", err)
	}
	if err := recovered.Rescan(); err != nil {
		t.Fatalf("Rescan: %v", err)
	}
	if fs.Exists("/spool/stg-junk") {
		t.Fatal("orphan spool directory survived the rescan")
	}
	info, ok := recovered.Stat(open.Handle)
	if !ok || info.Chunks != 2 || info.Committed {
		t.Fatalf("partial upload after rescan: %+v, ok %v; want 2 chunks, uncommitted", info, ok)
	}
	// The partial upload resumes exactly where the acked chunks left off.
	last := payload[16:]
	if _, err := recovered.Chunk("u", open.Handle, 2, last, Checksum(last)); err != nil {
		t.Fatalf("resuming after rescan: %v", err)
	}
	if _, err := recovered.Commit("u", open.Handle, Checksum(payload)); err != nil {
		t.Fatalf("Commit after rescan: %v", err)
	}
	data, _, err := recovered.Consume("u", open.Handle)
	if err != nil || !bytes.Equal(data, payload) {
		t.Fatalf("Consume after rescan: %q, %v", data, err)
	}
	// Fresh handles never collide with recovered ones.
	next, err := recovered.Open("u", "fresh", 8, 4)
	if err != nil {
		t.Fatalf("Open after rescan: %v", err)
	}
	if next.Handle == open.Handle || next.Handle == sealed.Handle {
		t.Fatalf("recovered spool re-minted handle %s", next.Handle)
	}
}

// mirrorFS replays every mutation of src into a fresh FS the way journal
// recovery does — through plain WriteFile, so the replica holds the same
// bytes with a cold checksum cache.
func mirrorFS(t *testing.T, src *vfs.FS, clock sim.Clock) *vfs.FS {
	t.Helper()
	replica := vfs.New(clock)
	src.Observe(func(m vfs.Mutation) {
		var err error
		switch m.Op {
		case vfs.OpWrite:
			err = replica.WriteFile(m.Path, m.Data)
		case vfs.OpMkdir:
			err = replica.MkdirAll(m.Path)
		case vfs.OpRemove:
			err = replica.RemoveAll(m.Path)
		case vfs.OpRename:
			err = replica.Rename(m.Path, m.To)
		}
		if err != nil {
			t.Errorf("replaying %+v: %v", m.Op, err)
		}
	})
	return replica
}

// TestRecoveredSpoolCommitsToSameSeal: Commit seals from the chunk files'
// recorded checksums, which a crash loses. A Rescan-recovered spool must
// recompute them from the recovered bytes and arrive at the same Size/CRC as
// the live one — and must still refuse a wrong announcement.
func TestRecoveredSpoolCommitsToSameSeal(t *testing.T) {
	clock := sim.NewVirtualClock()
	fs := vfs.New(clock)
	replica := mirrorFS(t, fs, clock)
	live, err := NewSpool(fs, "/spool", "", clock)
	if err != nil {
		t.Fatalf("NewSpool: %v", err)
	}
	payload := pattern(5*4096 + 123) // five grid chunks and a short last one
	open, err := live.Open("u", "in.dat", 4096, 4)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	sendChunks(t, live, "u", open.Handle, 4096, payload)

	recovered, err := NewSpool(replica, "/spool", "", clock)
	if err != nil {
		t.Fatalf("NewSpool(replica): %v", err)
	}
	if err := recovered.Rescan(); err != nil {
		t.Fatalf("Rescan: %v", err)
	}
	if _, err := recovered.Commit("u", open.Handle, Checksum(payload)^1); !errors.Is(err, ErrChecksum) {
		t.Fatalf("recovered spool, wrong announced CRC: err = %v, want ErrChecksum", err)
	}
	fs.Observe(nil) // the two commits below are compared, not mirrored
	want, err := live.Commit("u", open.Handle, Checksum(payload))
	if err != nil {
		t.Fatalf("live Commit: %v", err)
	}
	got, err := recovered.Commit("u", open.Handle, Checksum(payload))
	if err != nil {
		t.Fatalf("recovered Commit: %v", err)
	}
	if got.Size != want.Size || got.CRC != want.CRC || got.Chunks != want.Chunks {
		t.Fatalf("recovered seal %d/%#x/%d, live seal %d/%#x/%d", got.Size, got.CRC, got.Chunks, want.Size, want.CRC, want.Chunks)
	}
	if got.Size != int64(len(payload)) || got.CRC != Checksum(payload) {
		t.Fatalf("seal %d/%#x is not the size and crc64 of the content", got.Size, got.CRC)
	}
	data, _, err := recovered.Consume("u", open.Handle)
	if err != nil || !bytes.Equal(data, payload) {
		t.Fatalf("Consume on the recovered spool: %v", err)
	}
}

// TestCommitReadsNoBytes pins the O(chunks) seal: committing 4 MiB must not
// allocate (let alone copy) anything near the payload.
func TestCommitReadsNoBytes(t *testing.T) {
	s, _, _ := newTestSpool(t)
	const chunk = 256 << 10
	payload := pattern(16 * chunk)
	open, err := s.Open("u", "in.dat", chunk, 4)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	sendChunks(t, s, "u", open.Handle, chunk, payload)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if _, err := s.Commit("u", open.Handle, Checksum(payload)); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	runtime.ReadMemStats(&m1)
	if n := m1.TotalAlloc - m0.TotalAlloc; n > 64<<10 {
		t.Fatalf("Commit of %d bytes allocated %d bytes", len(payload), n)
	}
}

// TestRescanKeepsOutOfOrderChunks: a chunk acked above a hole survives
// recovery as held. The recovered spool acknowledges its re-send without
// rewriting it, moves the watermark over it once the hole is filled, and
// seals what the live spool seals.
func TestRescanKeepsOutOfOrderChunks(t *testing.T) {
	clock := sim.NewVirtualClock()
	fs := vfs.New(clock)
	replica := mirrorFS(t, fs, clock)
	live, err := NewSpool(fs, "/spool", "", clock)
	if err != nil {
		t.Fatalf("NewSpool: %v", err)
	}
	payload := pattern(3*8 + 5) // chunks 0..3 on an 8-byte grid, the last short
	piece := func(i int64) []byte { return payload[i*8 : min(i*8+8, int64(len(payload)))] }
	send := func(s *Spool, i int64) int64 {
		t.Helper()
		w, err := s.Chunk("u", handleOf(t, s), i, piece(i), Checksum(piece(i)))
		if err != nil {
			t.Fatalf("Chunk(%d): %v", i, err)
		}
		return w
	}
	if _, err := live.Open("u", "in.dat", 8, 4); err != nil {
		t.Fatalf("Open: %v", err)
	}
	send(live, 0)
	send(live, 2)
	fs.Observe(nil) // the replica holds chunks 0 and 2: the crash point

	recovered, err := NewSpool(replica, "/spool", "", clock)
	if err != nil {
		t.Fatalf("NewSpool(replica): %v", err)
	}
	if err := recovered.Rescan(); err != nil {
		t.Fatalf("Rescan: %v", err)
	}
	writes := 0
	replica.Observe(func(m vfs.Mutation) {
		if m.Op == vfs.OpWrite {
			writes++
		}
	})
	if w := send(recovered, 2); w != 1 || writes != 0 {
		t.Fatalf("re-send of held chunk 2: watermark %d, %d writes; want 1, 0", w, writes)
	}
	if w := send(recovered, 1); w != 3 {
		t.Fatalf("filling the hole: watermark %d, want 3", w)
	}
	send(recovered, 3)
	for _, i := range []int64{1, 3} {
		send(live, i)
	}
	want, err := live.Commit("u", handleOf(t, live), Checksum(payload))
	if err != nil {
		t.Fatalf("live Commit: %v", err)
	}
	got, err := recovered.Commit("u", handleOf(t, recovered), Checksum(payload))
	if err != nil {
		t.Fatalf("recovered Commit: %v", err)
	}
	if got.Size != want.Size || got.CRC != want.CRC || got.Chunks != want.Chunks {
		t.Fatalf("recovered seal %d/%#x/%d, live seal %d/%#x/%d", got.Size, got.CRC, got.Chunks, want.Size, want.CRC, want.Chunks)
	}
}

// handleOf returns the one upload a spool holds.
func handleOf(t *testing.T, s *Spool) string {
	t.Helper()
	hs := s.Handles()
	if len(hs) != 1 {
		t.Fatalf("spool holds %d uploads, want 1", len(hs))
	}
	return hs[0]
}
