package staging_test

import (
	"testing"

	"unicore/internal/sim"
	"unicore/internal/staging"
	"unicore/internal/vfs"
)

// TestSpoolChunkAllocatesOnlyItsPath gates the per-chunk bookkeeping of the
// spool: storing an in-window chunk allocates its path and its file node
// (the payload is the caller's buffer), and a re-send allocates nothing.
func TestSpoolChunkAllocatesOnlyItsPath(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include the race detector's own")
	}
	clock := sim.NewVirtualClock()
	s, err := staging.NewSpool(vfs.New(clock), "/spool", "T3E", clock)
	if err != nil {
		t.Fatal(err)
	}
	open, err := s.Open("u", "in.dat", 8, staging.MaxWindow)
	if err != nil {
		t.Fatal(err)
	}
	chunk := []byte("12345678")
	crc := staging.Checksum(chunk)
	send := func(index int64) {
		if _, err := s.Chunk("u", open.Handle, index, chunk, crc); err != nil {
			t.Fatalf("Chunk(%d): %v", index, err)
		}
	}
	// In order: each run stores the next chunk and moves the watermark.
	next := int64(0)
	if n := testing.AllocsPerRun(100, func() { send(next); next++ }); n > 2 {
		t.Errorf("an in-order chunk allocates %.0f times, want at most 2", n)
	}
	// Out of order: one chunk ahead of the watermark, then the hole, so the
	// watermark moves two chunks per pair of runs.
	ahead := true
	if n := testing.AllocsPerRun(100, func() {
		if ahead {
			send(next + 1)
		} else {
			send(next)
			next += 2
		}
		ahead = !ahead
	}); n > 2 {
		t.Errorf("an out-of-order chunk allocates %.0f times, want at most 2", n)
	}
	send(next + 1) // held in the window, above the watermark
	for _, c := range []struct {
		what  string
		index int64
	}{{"a re-send below the watermark", 0}, {"a re-send inside the window", next + 1}} {
		if n := testing.AllocsPerRun(100, func() { send(c.index) }); n != 0 {
			t.Errorf("%s allocates %.0f times, want 0", c.what, n)
		}
	}
}
