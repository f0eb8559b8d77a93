package journal

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Store manages one state directory of journal generations and snapshots.
//
// Concurrency: Append is safe from any goroutine and never blocks on a
// running compaction — Compact swaps the live writer under a small mutex
// first and only then captures the snapshot. Compactions themselves are
// serialized.
type Store struct {
	dir string

	// wmu guards only the live-writer pointers and generation number; it is
	// held for pointer swaps, never across I/O or state capture.
	wmu sync.Mutex
	w   *writer
	// prev is the rotated-out writer while Compact is still draining it
	// (nil otherwise). Sync must cover it: an entry appended just before
	// the rotation lives there, and Sync's durability promise includes it.
	prev *writer
	// cerr is the first failure to drain/close a rotated-out generation, or
	// errAppendAfterClose. Entries handed to the store may not be on disk,
	// so once set, Sync fails forever — the store can no longer promise
	// durability.
	cerr error
	gen  uint64

	// compactMu serializes compactions.
	compactMu sync.Mutex

	closed  atomic.Bool
	appends atomic.Int64 // entries since the last compaction (snapshot cadence)
}

// errAppendAfterClose is the sticky error of a store that was handed an
// entry after Close: the entry is lost.
var errAppendAfterClose = errors.New("journal: append after close")

func journalName(gen uint64) string  { return fmt.Sprintf("journal-%08d.wal", gen) }
func snapshotName(gen uint64) string { return fmt.Sprintf("snapshot-%08d.snap", gen) }

// scan lists the generation numbers present in dir.
func scan(dir string) (journals, snapshots []uint64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	for _, ent := range entries {
		var gen uint64
		switch {
		case matchGen(ent.Name(), "journal-%08d.wal", &gen):
			journals = append(journals, gen)
		case matchGen(ent.Name(), "snapshot-%08d.snap", &gen):
			snapshots = append(snapshots, gen)
		}
	}
	sort.Slice(journals, func(i, j int) bool { return journals[i] < journals[j] })
	sort.Slice(snapshots, func(i, j int) bool { return snapshots[i] < snapshots[j] })
	return journals, snapshots, nil
}

// matchGen reports whether name is exactly format rendered with some
// generation number. Sscanf alone is too lax: it ignores trailing input, so
// a leftover snapshot temp file ("snapshot-00000002.snap.tmp") would match
// the snapshot format — the parsed generation is rendered back and compared
// against the whole name to reject such near-misses.
func matchGen(name, format string, gen *uint64) bool {
	var g uint64
	if n, err := fmt.Sscanf(name, format, &g); n != 1 || err != nil {
		return false
	}
	if fmt.Sprintf(format, g) != name {
		return false
	}
	*gen = g
	return true
}

// Open creates (if needed) and opens a state directory. Appends continue in
// the newest journal generation; Replay starts from the newest snapshot.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	if err := removeStaleTemps(dir); err != nil {
		return nil, err
	}
	journals, snapshots, err := scan(dir)
	if err != nil {
		return nil, err
	}
	gen := uint64(0)
	if len(snapshots) > 0 {
		gen = snapshots[len(snapshots)-1]
	}
	if len(journals) > 0 && journals[len(journals)-1] > gen {
		gen = journals[len(journals)-1]
	}
	// A crash may have left a torn frame at the journal tail. Appending
	// after it would strand everything written from here on behind garbage
	// the next replay stops at — truncate the file to its valid prefix
	// before reopening it for append.
	path := filepath.Join(dir, journalName(gen))
	if err := truncateTornTail(path); err != nil {
		return nil, err
	}
	w, err := newWriter(path)
	if err != nil {
		return nil, err
	}
	return &Store{dir: dir, w: w, gen: gen}, nil
}

// removeStaleTemps deletes *.tmp files left behind by a compaction that
// crashed between creating the temp snapshot and renaming it into place.
func removeStaleTemps(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	for _, ent := range entries {
		if !ent.IsDir() && strings.HasSuffix(ent.Name(), ".tmp") {
			if err := os.Remove(filepath.Join(dir, ent.Name())); err != nil {
				return fmt.Errorf("journal: removing stale %s: %w", ent.Name(), err)
			}
		}
	}
	return nil
}

// truncateTornTail cuts a journal file back to its longest prefix of valid
// frames. A missing file is fine (fresh directory).
func truncateTornTail(path string) error {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	valid, err := validPrefix(f)
	_ = f.Close() // read-only scan; the truncation below is path-based
	if err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if valid < fi.Size() {
		if err := os.Truncate(path, valid); err != nil {
			return fmt.Errorf("journal: truncating torn tail of %s: %w", filepath.Base(path), err)
		}
	}
	return nil
}

// Dir returns the state directory path.
func (s *Store) Dir() string { return s.dir }

// Append enqueues one entry on the live journal. It is cheap, and waits only
// when the writer's queue is at its bound (see writer.Append); durability is
// deferred to the batched flusher (call Sync to force it). The enqueue
// happens under wmu so it cannot race Compact's writer swap: an entry lands
// either in the old generation (whose Close drains it) or the new one — never
// in a writer that Compact closed. An entry appended after Close reaches no
// file: it is dropped and fails every later Sync.
func (s *Store) Append(e Entry) {
	s.wmu.Lock()
	if s.closed.Load() {
		if s.cerr == nil {
			s.cerr = errAppendAfterClose
		}
		s.wmu.Unlock()
		return
	}
	s.w.Append(e)
	s.wmu.Unlock()
	s.appends.Add(1)
}

// AppendsSinceCompact reports entries appended since the last compaction —
// the input to the snapshot cadence decision.
func (s *Store) AppendsSinceCompact() int64 { return s.appends.Load() }

// Sync flushes and fsyncs everything appended so far — including entries in
// a journal generation that Compact has rotated out but not finished
// draining.
func (s *Store) Sync() error {
	s.wmu.Lock()
	cerr := s.cerr
	prev := s.prev
	w := s.w
	s.wmu.Unlock()
	if cerr != nil {
		return cerr
	}
	if prev != nil {
		if err := prev.Sync(); err != nil {
			return err
		}
	}
	return w.Sync()
}

// Replay streams the newest snapshot (if any) and then every journal of that
// generation or later, in order, through fn. A torn tail on a journal is
// silently dropped; corruption elsewhere is an error. Replay reads committed
// files only, so it may run before traffic starts (recovery) without racing
// the live writer.
func (s *Store) Replay(fn func(Entry) error) error {
	journals, snapshots, err := scan(s.dir)
	if err != nil {
		return err
	}
	snapGen := uint64(0)
	if len(snapshots) > 0 {
		snapGen = snapshots[len(snapshots)-1]
		if err := replayFile(filepath.Join(s.dir, snapshotName(snapGen)), false, fn); err != nil {
			return err
		}
	}
	for _, g := range journals {
		if g < snapGen {
			continue
		}
		if err := replayFile(filepath.Join(s.dir, journalName(g)), true, fn); err != nil {
			return err
		}
	}
	return nil
}

func replayFile(path string, tolerateTail bool, fn func(Entry) error) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	defer func() { _ = f.Close() }() // read-only replay
	if err := readAll(f, tolerateTail, fn); err != nil {
		return fmt.Errorf("journal: replaying %s: %w", filepath.Base(path), err)
	}
	return nil
}

// Compact takes a snapshot and retires older generations. emit is called with
// an append function and must write the entry stream that reconstructs all
// live state; it runs while appends continue on the next journal generation,
// so the snapshot may be fuzzy — replay idempotency (see the package comment)
// makes that safe.
//
// Sequence: rotate the journal to generation g+1, capture the snapshot to a
// temp file, fsync, rename to snapshot-(g+1), then delete generations <= g.
// A crash at any point leaves a recoverable directory: Replay always starts
// from the newest complete snapshot.
func (s *Store) Compact(emit func(append func(Entry) error) error) error {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	if s.closed.Load() {
		return fmt.Errorf("journal: store closed")
	}

	// Rotate: new generation's journal takes appends from here on. The file
	// open happens before taking wmu — producers calling Append (possibly
	// under NJS job locks or the vfs lock) must never wait on a syscall.
	// s.gen is stable here: only Compact mutates it, under compactMu.
	oldGen := s.gen
	newGen := oldGen + 1
	neww, err := newWriter(filepath.Join(s.dir, journalName(newGen)))
	if err != nil {
		return err
	}
	s.wmu.Lock()
	oldw := s.w
	s.w = neww
	s.prev = oldw
	s.gen = newGen
	s.appends.Store(0)
	s.wmu.Unlock()
	err = oldw.Close()
	s.wmu.Lock()
	s.prev = nil
	if err != nil && s.cerr == nil {
		s.cerr = err // the retiring generation may be incomplete on disk
	}
	s.wmu.Unlock()
	if err != nil {
		return err
	}

	// Capture: write the snapshot to a temp file, then publish atomically.
	tmp := filepath.Join(s.dir, snapshotName(newGen)+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o600)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	werr := func() error {
		bw := bufio.NewWriterSize(f, 1<<16)
		var frame []byte
		appendFn := func(e Entry) (err error) {
			if frame, err = appendFrame(frame[:0], e); err != nil {
				return err
			}
			_, err = bw.Write(frame)
			return err
		}
		if err := emit(appendFn); err != nil {
			return err
		}
		return bw.Flush()
	}()
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp)
		return fmt.Errorf("journal: writing snapshot: %w", werr)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, snapshotName(newGen))); err != nil {
		return fmt.Errorf("journal: %w", err)
	}

	// Retire: everything before the new generation is now redundant.
	journals, snapshots, err := scan(s.dir)
	if err != nil {
		return err
	}
	for _, g := range journals {
		if g <= oldGen {
			os.Remove(filepath.Join(s.dir, journalName(g)))
		}
	}
	for _, g := range snapshots {
		if g <= oldGen {
			os.Remove(filepath.Join(s.dir, snapshotName(g)))
		}
	}
	return nil
}

// Close flushes, fsyncs, and closes the live journal. A further append is
// dropped and fails every later Sync. Close takes compactMu so it cannot
// interleave with Compact: without it, Close could capture the pre-rotation
// writer while Compact swaps in a fresh one that would then never be closed —
// leaking its flusher goroutine and losing whatever was batched into it.
func (s *Store) Close() error {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	if s.closed.Swap(true) {
		return nil
	}
	s.wmu.Lock()
	w := s.w
	cerr := s.cerr
	s.wmu.Unlock()
	err := w.Close()
	if err == nil {
		err = cerr
	}
	return err
}
