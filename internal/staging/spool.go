package staging

import (
	"encoding/json"
	"fmt"
	"path"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"unicore/internal/core"
	"unicore/internal/sim"
	"unicore/internal/vfs"
)

// Spool is the server half of staged uploads: one per Vsite, rooted in the
// Vsite's data space next to the Xspace and Uspace trees. Every upload lives
// entirely in the file system — chunk files plus a metadata document — so a
// journaled NJS persists acknowledged chunks through the ordinary vfs
// mutation observer, and Rescan rebuilds the in-memory index byte-exactly
// from a crash-recovered file tree.
//
// Layout under the root:
//
//	<root>/<handle>/meta.json   upload metadata (owner, grid, state)
//	<root>/<handle>/c00000042   chunk 42 (fixed grid; only the last is short)
//
// A Spool is safe for concurrent use.
type Spool struct {
	mu      sync.Mutex
	fs      *vfs.FS
	root    string
	tag     string
	clock   sim.Clock
	seq     int64
	entries map[string]*spoolEntry
}

// spoolEntry mirrors one meta.json plus the derived contiguous watermark.
type spoolEntry struct {
	meta      spoolMeta
	watermark int64 // contiguous chunks received from index 0
}

// spoolMeta is the persisted metadata document of one upload.
type spoolMeta struct {
	Handle    string    `json:"handle"`
	Owner     core.DN   `json:"owner"`
	Name      string    `json:"name,omitempty"`
	ChunkSize int64     `json:"chunkSize"`
	Window    int       `json:"window"`
	Created   time.Time `json:"created"`
	Committed bool      `json:"committed,omitempty"`
	Consumed  bool      `json:"consumed,omitempty"`
	Size      int64     `json:"size,omitempty"` // sealed at commit
	CRC       uint64    `json:"crc,omitempty"`  // sealed at commit
}

// Info is the externally visible state of one spooled upload.
type Info struct {
	Handle    string
	Owner     core.DN
	Name      string
	ChunkSize int64
	Window    int
	Created   time.Time
	Committed bool
	Consumed  bool
	// Chunks is the contiguous watermark (== total chunks once committed).
	Chunks int64
	Size   int64
	CRC    uint64
}

// NewSpool creates (or reopens) a spool rooted at root on fs. tag is minted
// into every handle ("stg-<tag>-00000001") and MUST be distinct per spool
// across a whole deployment — the NJS tags each Vsite's spool with the Vsite
// name, and a pool replica's one spool with its instance, so handles resolve
// unambiguously within a multi-Vsite NJS and name their replica in a pool
// (HandleTag reads it back). Call Rescan to
// adopt entries already present in a recovered file tree.
func NewSpool(fs *vfs.FS, root, tag string, clock sim.Clock) (*Spool, error) {
	if fs == nil {
		return nil, fmt.Errorf("staging: nil fs")
	}
	if clock == nil {
		clock = sim.RealClock{}
	}
	if err := fs.MkdirAll(root); err != nil {
		return nil, fmt.Errorf("staging: creating spool root: %w", err)
	}
	return &Spool{fs: fs, root: root, tag: tag, clock: clock, entries: make(map[string]*spoolEntry)}, nil
}

// mintLocked forms the next handle under this spool's tag.
func (s *Spool) mintLocked() string {
	s.seq++
	if s.tag == "" {
		return fmt.Sprintf("stg-%08d", s.seq)
	}
	return fmt.Sprintf("stg-%s-%08d", s.tag, s.seq)
}

// HandleTag inverts mintLocked: the tag of the spool that minted a handle —
// "" for an untagged spool's handles and for strings no spool minted.
func HandleTag(handle string) string {
	rest, ok := strings.CutPrefix(handle, "stg-")
	i := strings.LastIndexByte(rest, '-')
	if !ok || i < 0 {
		return ""
	}
	return rest[:i]
}

// dir returns an upload's directory.
func (s *Spool) dir(handle string) string { return path.Join(s.root, handle) }

// chunkPath returns the file of chunk index.
func (s *Spool) chunkPath(handle string, index int64) string {
	return path.Join(s.dir(handle), fmt.Sprintf("c%08d", index))
}

// persistMetaLocked writes an entry's meta.json (journaled via the FS
// observer like every other mutation).
func (s *Spool) persistMetaLocked(e *spoolEntry) error {
	raw, err := json.Marshal(e.meta)
	if err != nil {
		return err
	}
	return s.fs.WriteFile(path.Join(s.dir(e.meta.Handle), "meta.json"), raw)
}

// Open begins an upload for owner and returns its handle. The requested
// chunk size and window are clamped to [1, MaxChunkSize] / [1, MaxWindow].
func (s *Spool) Open(owner core.DN, name string, chunkSize int64, window int) (Info, error) {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	if chunkSize > MaxChunkSize {
		chunkSize = MaxChunkSize
	}
	if window <= 0 {
		window = DefaultWindow
	}
	if window > MaxWindow {
		window = MaxWindow
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e := &spoolEntry{meta: spoolMeta{
		Handle:    s.mintLocked(),
		Owner:     owner,
		Name:      name,
		ChunkSize: chunkSize,
		Window:    window,
		Created:   s.clock.Now(),
	}}
	if err := s.fs.MkdirAll(s.dir(e.meta.Handle)); err != nil {
		return Info{}, err
	}
	if err := s.persistMetaLocked(e); err != nil {
		return Info{}, err
	}
	s.entries[e.meta.Handle] = e
	return e.info(), nil
}

// lookupLocked resolves a handle with its owner check. An empty owner skips
// the check (server-internal access).
func (s *Spool) lookupLocked(owner core.DN, handle string) (*spoolEntry, error) {
	e, ok := s.entries[handle]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownHandle, handle)
	}
	if owner != "" && e.meta.Owner != owner {
		return nil, fmt.Errorf("%w: %q", ErrNotOwner, handle)
	}
	return e, nil
}

// Chunk stores chunk index of an upload. The grid is strict: every chunk
// except the last must be exactly ChunkSize bytes (verified at Commit), the
// per-chunk CRC must match, and an index more than Window beyond the
// contiguous watermark is rejected as out of order. Delivery is idempotent:
// re-sending an index below the watermark (or one already buffered in the
// window) is acknowledged without rewriting, which is what makes client
// retries after lost replies safe. Returns the new contiguous watermark.
//
// Chunk takes ownership of data: the stored chunk is the caller's buffer (the
// frame payload the wire allocated), not a copy, so the caller must not
// modify it afterwards. The CRC verified here is recorded with the chunk.
func (s *Spool) Chunk(owner core.DN, handle string, index int64, data []byte, crc uint64) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, err := s.lookupLocked(owner, handle)
	if err != nil {
		return 0, err
	}
	if e.meta.Committed {
		if index < e.watermark {
			return e.watermark, nil // late re-send of a received chunk
		}
		return 0, fmt.Errorf("%w: %q", ErrCommitted, handle)
	}
	if index < 0 {
		return 0, fmt.Errorf("%w: negative index %d", ErrOutOfOrder, index)
	}
	if int64(len(data)) > e.meta.ChunkSize || len(data) == 0 {
		return 0, fmt.Errorf("staging: chunk %d of %q has %d bytes, grid is %d",
			index, handle, len(data), e.meta.ChunkSize)
	}
	if Checksum(data) != crc {
		return 0, fmt.Errorf("%w: chunk %d of %q", ErrChecksum, index, handle)
	}
	if index >= e.watermark+int64(e.meta.Window) {
		return 0, fmt.Errorf("%w: chunk %d of %q is beyond watermark %d + window %d",
			ErrOutOfOrder, index, handle, e.watermark, e.meta.Window)
	}
	p := s.chunkPath(handle, index)
	if !s.fs.Exists(p) {
		if err := s.fs.AdoptFile(p, data, crc); err != nil {
			return 0, err
		}
	}
	// Advance the watermark over every contiguously present chunk.
	for s.fs.Exists(s.chunkPath(handle, e.watermark)) {
		e.watermark++
	}
	return e.watermark, nil
}

// Commit seals an upload: the chunk sequence must be hole-free, every chunk
// except the last exactly on the grid, and the content must checksum to crc.
// Committing an already-sealed upload with the same CRC is acknowledged
// idempotently. Returns the sealed size and CRC. The seal costs O(chunks),
// not O(bytes): every byte was CRC-verified when its chunk arrived, so the
// whole-file checksum is combined from the chunk files' (size, crc) as the
// file system reports them — recomputed from the bytes after crash recovery.
func (s *Spool) Commit(owner core.DN, handle string, crc uint64) (Info, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, err := s.lookupLocked(owner, handle)
	if err != nil {
		return Info{}, err
	}
	if e.meta.Committed {
		if e.meta.CRC != crc {
			return Info{}, fmt.Errorf("%w: commit of %q announces %#x, sealed %#x",
				ErrChecksum, handle, crc, e.meta.CRC)
		}
		return e.info(), nil
	}
	files, err := s.fs.List(s.dir(handle))
	if err != nil {
		return Info{}, err
	}
	chunks := make([]*vfs.FileInfo, e.watermark)
	for i := range files {
		name := files[i].Name // "c00000042", or meta.json
		idx, err := strconv.ParseInt(strings.TrimPrefix(name, "c"), 10, 64)
		if err != nil || !strings.HasPrefix(name, "c") {
			continue
		}
		// A chunk file beyond the watermark means a hole below it.
		if idx >= e.watermark {
			return Info{}, fmt.Errorf("%w: %q has chunk %d but watermark %d",
				ErrMissingChunk, handle, idx, e.watermark)
		}
		chunks[idx] = &files[i]
	}
	var size int64
	var running uint64
	for i, fi := range chunks {
		if fi == nil {
			return Info{}, fmt.Errorf("%w: chunk %d of %q", ErrMissingChunk, i, handle)
		}
		if int64(i) < e.watermark-1 && fi.Size != e.meta.ChunkSize {
			return Info{}, fmt.Errorf("staging: chunk %d of %q is short (%d of %d bytes) but not last",
				i, handle, fi.Size, e.meta.ChunkSize)
		}
		running = crcCombine(running, fi.CRC, fi.Size)
		size += fi.Size
	}
	if running != crc {
		return Info{}, fmt.Errorf("%w: %q assembled to %#x, commit announces %#x",
			ErrChecksum, handle, running, crc)
	}
	e.meta.Committed, e.meta.Size, e.meta.CRC = true, size, running
	if err := s.persistMetaLocked(e); err != nil {
		return Info{}, err
	}
	return e.info(), nil
}

// Consume assembles a committed upload's content for staging into a job's
// Uspace. The entry is marked consumed (and persisted so) but kept until the
// next Sweep, which makes a crash-recovery re-dispatch of the consuming
// ImportTask idempotent.
func (s *Spool) Consume(owner core.DN, handle string) ([]byte, Info, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, err := s.lookupLocked(owner, handle)
	if err != nil {
		return nil, Info{}, err
	}
	if !e.meta.Committed {
		return nil, Info{}, fmt.Errorf("%w: %q", ErrNotCommitted, handle)
	}
	// One assembly buffer, filled from read-only views of the chunk files.
	data := make([]byte, 0, e.meta.Size)
	for i := int64(0); i < e.watermark; i++ {
		chunk, _, _, err := s.fs.ReadFileRange(s.chunkPath(handle, i), 0, 0)
		if err != nil {
			return nil, Info{}, fmt.Errorf("%w: chunk %d of %q: %v", ErrMissingChunk, i, handle, err)
		}
		data = append(data, chunk...)
	}
	if Checksum(data) != e.meta.CRC {
		return nil, Info{}, fmt.Errorf("%w: %q no longer matches its sealed checksum", ErrChecksum, handle)
	}
	if !e.meta.Consumed {
		e.meta.Consumed = true
		if err := s.persistMetaLocked(e); err != nil {
			return nil, Info{}, err
		}
	}
	return data, e.info(), nil
}

// Stat returns an upload's state.
func (s *Spool) Stat(handle string) (Info, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[handle]
	if !ok {
		return Info{}, false
	}
	return e.info(), true
}

// Handles lists the spooled uploads, sorted.
func (s *Spool) Handles() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.entries))
	for h := range s.entries {
		out = append(out, h)
	}
	sort.Strings(out)
	return out
}

// Sweep garbage-collects the spool: consumed uploads go immediately, and
// uploads never consumed (abandoned half-sent, or committed but never
// consigned) go once older than ttl. Returns how many entries were removed.
func (s *Spool) Sweep(ttl time.Duration) int {
	now := s.clock.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	removed := 0
	for h, e := range s.entries {
		if !e.meta.Consumed && now.Sub(e.meta.Created) <= ttl {
			continue
		}
		if err := s.fs.RemoveAll(s.dir(h)); err != nil {
			continue // keep the index entry; the next sweep retries
		}
		delete(s.entries, h)
		removed++
	}
	return removed
}

// Rescan rebuilds the in-memory index from the file tree — the recovery path:
// a journal-replayed file system carries every acknowledged chunk and
// metadata document, so a recovered NJS adopts its spool exactly as the dead
// one left it (same handles, same watermarks, no re-minted handle can
// collide).
func (s *Spool) Rescan() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	entries, err := s.fs.List(s.root)
	if err != nil {
		return err
	}
	s.entries = make(map[string]*spoolEntry, len(entries))
	for _, fi := range entries {
		if !fi.IsDir {
			continue
		}
		raw, err := s.fs.ReadFile(path.Join(fi.Path, "meta.json"))
		if err != nil {
			// An upload whose open never reached the journal: remove the
			// orphan directory.
			_ = s.fs.RemoveAll(fi.Path)
			continue
		}
		var m spoolMeta
		if err := json.Unmarshal(raw, &m); err != nil || m.Handle != fi.Name {
			_ = s.fs.RemoveAll(fi.Path)
			continue
		}
		e := &spoolEntry{meta: m}
		for s.fs.Exists(s.chunkPath(m.Handle, e.watermark)) {
			e.watermark++
		}
		s.entries[m.Handle] = e
		if n := handleSeq(m.Handle); n > s.seq {
			s.seq = n
		}
	}
	return nil
}

// handleSeq extracts the numeric suffix of a minted handle.
func handleSeq(handle string) int64 {
	i := strings.LastIndexByte(handle, '-')
	if i < 0 {
		return 0
	}
	n, err := strconv.ParseInt(handle[i+1:], 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// info snapshots an entry.
func (e *spoolEntry) info() Info {
	return Info{
		Handle:    e.meta.Handle,
		Owner:     e.meta.Owner,
		Name:      e.meta.Name,
		ChunkSize: e.meta.ChunkSize,
		Window:    e.meta.Window,
		Created:   e.meta.Created,
		Committed: e.meta.Committed,
		Consumed:  e.meta.Consumed,
		Chunks:    e.watermark,
		Size:      e.meta.Size,
		CRC:       e.meta.CRC,
	}
}
