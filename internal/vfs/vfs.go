// Package vfs implements the file-space substrate underneath UNICORE's data
// model. Each Vsite owns one FS (the systems of a Vsite "share the same data
// space", paper §4); the Xspace and the Uspace job directories are subtrees
// of it. An in-memory implementation keeps the whole reproduction hermetic
// and lets tests assert byte-exact data flow and quota behaviour.
//
// Paths are slash-separated and absolute ("/home/alice/in.dat"). The API is
// deliberately close to the os package so the shell interpreter and staging
// code read naturally.
package vfs

import (
	"errors"
	"fmt"
	"hash/crc64"
	"path"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"unicore/internal/sim"
)

// Error values mirror the os package where sensible.
var (
	ErrNotExist = errors.New("vfs: file does not exist")
	ErrExist    = errors.New("vfs: file already exists")
	ErrIsDir    = errors.New("vfs: is a directory")
	ErrNotDir   = errors.New("vfs: not a directory")
	ErrQuota    = errors.New("vfs: quota exceeded")
	ErrNotEmpty = errors.New("vfs: directory not empty")
	ErrBadPath  = errors.New("vfs: malformed path")
	ErrBadRange = errors.New("vfs: bad read range")
)

var crcTable = crc64.MakeTable(crc64.ECMA)

// FileInfo describes a file or directory.
type FileInfo struct {
	Name    string // base name
	Path    string // full cleaned path
	Size    int64
	IsDir   bool
	ModTime time.Time
	CRC     uint64 // crc64 of contents; 0 for directories
}

// MutationOp classifies a change reported to an FS observer.
type MutationOp uint8

const (
	// OpWrite materialised a file with the contents in Mutation.Data. Appends
	// are reported as writes carrying the full resulting contents, so an
	// observer replaying mutations elsewhere stays idempotent.
	OpWrite MutationOp = iota + 1
	// OpMkdir created a directory (and possibly missing parents).
	OpMkdir
	// OpRemove deleted the path (file or whole subtree).
	OpRemove
	// OpRename moved Path to To.
	OpRename
)

// Mutation describes one successful change to the file system. Data is the
// stored contents themselves — immutable (see FS), so the observer may retain
// it but must never write through it.
type Mutation struct {
	Op   MutationOp
	Path string
	To   string // rename destination
	Data []byte
}

// FS is a thread-safe in-memory file system with an optional byte quota.
//
// File contents are immutable once written: WriteFile replaces the node and
// AppendFile only writes past the bytes already stored. So ReadFileRange, the
// mutation observer and Copy hand out the stored bytes themselves, as
// cap-limited slices that nobody may write through, instead of copies.
//
// An observer installed with Observe is invoked after every successful
// mutation, while the FS write lock is still held — that keeps the
// notification order identical to the apply order, which is what a
// write-ahead journal needs. Observers must be fast and must not call back
// into the FS.
type FS struct {
	mu       sync.RWMutex
	root     *node
	clock    sim.Clock
	quota    int64 // 0 = unlimited
	used     int64
	observer func(Mutation)
	crcMu    sync.Mutex // serialises checksum-cache fills under the read lock
}

type node struct {
	name     string
	dir      bool
	data     []byte
	modTime  time.Time
	children map[string]*node
	// crc caches the whole-file checksum so ReadFileRange/Stat/List do not
	// rescan the contents per call: filled by sumLocked, invalidated on
	// append; a WriteFile replaces the node, so its zero value starts invalid.
	crc   uint64
	crcOK atomic.Bool
}

// New returns an empty FS whose timestamps come from clock. A nil clock uses
// the real clock.
func New(clock sim.Clock) *FS {
	if clock == nil {
		clock = sim.RealClock{}
	}
	return &FS{
		root:  &node{name: "/", dir: true, children: map[string]*node{}},
		clock: clock,
	}
}

// Observe installs fn as the FS's mutation observer (nil uninstalls). See
// the FS doc comment for the calling contract.
func (fs *FS) Observe(fn func(Mutation)) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.observer = fn
}

// notifyLocked reports a successful mutation. Caller holds the write lock.
func (fs *FS) notifyLocked(m Mutation) {
	if fs.observer != nil {
		fs.observer(m)
	}
}

// view returns n's contents cap-limited, so that neither the holder's appends
// nor a later AppendFile to n can reach the other's bytes.
func (n *node) view() []byte { return n.data[:len(n.data):len(n.data)] }

// sumLocked returns n's whole-file checksum, filling the cache on first use.
// Caller holds at least a read lock, under which n.data cannot change.
func (fs *FS) sumLocked(n *node) uint64 {
	if !n.crcOK.Load() {
		fs.crcMu.Lock()
		if !n.crcOK.Load() {
			n.crc = crc64.Checksum(n.data, crcTable)
			n.crcOK.Store(true)
		}
		fs.crcMu.Unlock()
	}
	return n.crc
}

// SetQuota sets the total byte quota (0 disables). Lowering the quota below
// current usage is allowed; subsequent growth fails until usage shrinks.
func (fs *FS) SetQuota(bytes int64) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.quota = bytes
}

// Used returns the bytes currently stored in file contents.
func (fs *FS) Used() int64 {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return fs.used
}

// Quota returns the configured quota (0 = unlimited).
func (fs *FS) Quota() int64 {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return fs.quota
}

// clean validates and normalises a path.
func clean(p string) (string, error) {
	if p == "" || !strings.HasPrefix(p, "/") {
		return "", fmt.Errorf("%w: %q (must be absolute)", ErrBadPath, p)
	}
	cp := path.Clean(p)
	return cp, nil
}

// split returns the cleaned components of a path ("/a/b" -> ["a","b"]).
func split(p string) []string {
	p = strings.Trim(p, "/")
	if p == "" {
		return nil
	}
	return strings.Split(p, "/")
}

// lookup walks to the node for p. Caller holds at least a read lock.
func (fs *FS) lookup(p string) (*node, error) {
	cp, err := clean(p)
	if err != nil {
		return nil, err
	}
	n := fs.root
	for _, part := range split(cp) {
		if !n.dir {
			return nil, fmt.Errorf("%w: %q", ErrNotDir, p)
		}
		child, ok := n.children[part]
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrNotExist, p)
		}
		n = child
	}
	return n, nil
}

// parent walks to the parent directory of p and returns it plus the base
// name. Caller holds the write lock.
func (fs *FS) parent(p string) (*node, string, error) {
	cp, err := clean(p)
	if err != nil {
		return nil, "", err
	}
	parts := split(cp)
	if len(parts) == 0 {
		return nil, "", fmt.Errorf("%w: cannot address root", ErrBadPath)
	}
	n := fs.root
	for _, part := range parts[:len(parts)-1] {
		child, ok := n.children[part]
		if !ok {
			return nil, "", fmt.Errorf("%w: %q", ErrNotExist, path.Dir(cp))
		}
		if !child.dir {
			return nil, "", fmt.Errorf("%w: %q", ErrNotDir, part)
		}
		n = child
	}
	return n, parts[len(parts)-1], nil
}

// MkdirAll creates the directory p and any missing parents.
func (fs *FS) MkdirAll(p string) error {
	cp, err := clean(p)
	if err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n := fs.root
	for _, part := range split(cp) {
		child, ok := n.children[part]
		if !ok {
			child = &node{name: part, dir: true, children: map[string]*node{}, modTime: fs.clock.Now()}
			n.children[part] = child
		} else if !child.dir {
			return fmt.Errorf("%w: %q", ErrNotDir, part)
		}
		n = child
	}
	fs.notifyLocked(Mutation{Op: OpMkdir, Path: cp})
	return nil
}

// Mkdir creates a single directory whose parent must exist.
func (fs *FS) Mkdir(p string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	par, base, err := fs.parent(p)
	if err != nil {
		return err
	}
	if _, ok := par.children[base]; ok {
		return fmt.Errorf("%w: %q", ErrExist, p)
	}
	par.children[base] = &node{name: base, dir: true, children: map[string]*node{}, modTime: fs.clock.Now()}
	cp, _ := clean(p)
	fs.notifyLocked(Mutation{Op: OpMkdir, Path: cp})
	return nil
}

// WriteFile creates or replaces the file at p with a copy of data. The
// parent directory must exist.
func (fs *FS) WriteFile(p string, data []byte) error {
	buf := make([]byte, len(data))
	copy(buf, data)
	return fs.put(p, buf, 0, false)
}

// AdoptFile is WriteFile without the copy: the FS takes ownership of data,
// which the caller must never modify again, and records crc — which the
// caller has just verified to be data's crc64 — as the file's checksum.
func (fs *FS) AdoptFile(p string, data []byte, crc uint64) error {
	return fs.put(p, data, crc, true)
}

// put creates or replaces the file at p with data, which the FS now owns —
// cap-limited, so that an AppendFile reallocates instead of growing into
// memory the previous owner may still hold beyond data.
func (fs *FS) put(p string, data []byte, crc uint64, crcOK bool) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	par, base, err := fs.parent(p)
	if err != nil {
		return err
	}
	existing, ok := par.children[base]
	var old int64
	if ok {
		if existing.dir {
			return fmt.Errorf("%w: %q", ErrIsDir, p)
		}
		old = int64(len(existing.data))
	}
	if err := fs.chargeLocked(int64(len(data)) - old); err != nil {
		return err
	}
	n := &node{name: base, data: data[:len(data):len(data)], modTime: fs.clock.Now(), crc: crc}
	n.crcOK.Store(crcOK)
	par.children[base] = n
	cp, _ := clean(p)
	fs.notifyLocked(Mutation{Op: OpWrite, Path: cp, Data: n.data})
	return nil
}

// AppendFile appends data to the file at p, creating it if absent.
func (fs *FS) AppendFile(p string, data []byte) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	par, base, err := fs.parent(p)
	if err != nil {
		return err
	}
	n, ok := par.children[base]
	if ok && n.dir {
		return fmt.Errorf("%w: %q", ErrIsDir, p)
	}
	if err := fs.chargeLocked(int64(len(data))); err != nil {
		return err
	}
	if !ok {
		n = &node{name: base}
		par.children[base] = n
	}
	n.data = append(n.data, data...)
	n.modTime = fs.clock.Now()
	n.crcOK.Store(false)
	// Appends are observed as full-content writes (see MutationOp).
	cp, _ := clean(p)
	fs.notifyLocked(Mutation{Op: OpWrite, Path: cp, Data: n.view()})
	return nil
}

// ReadFile returns a copy of the contents of p.
func (fs *FS) ReadFile(p string) ([]byte, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n, err := fs.lookup(p)
	if err != nil {
		return nil, err
	}
	if n.dir {
		return nil, fmt.Errorf("%w: %q", ErrIsDir, p)
	}
	out := make([]byte, len(n.data))
	copy(out, n.data)
	return out, nil
}

// ReadFileRange returns up to limit bytes of the file at p starting at
// offset, together with the file's total size and whole-file CRC. limit <= 0
// means "to end of file"; a range reaching past EOF is truncated; an offset
// at or past EOF returns no data with the metadata intact (how chunked
// readers detect the end of a transfer). Negative offsets are an error.
//
// The returned slice is a read-only view of the stored bytes (len == cap),
// not a copy: it keeps its contents whatever later happens to p, and the
// caller must not write through it. The whole-file CRC is cached on the
// node, so serving an N-chunk file costs one checksum pass and no copies.
func (fs *FS) ReadFileRange(p string, offset, limit int64) ([]byte, int64, uint64, error) {
	if offset < 0 {
		return nil, 0, 0, fmt.Errorf("%w: negative offset %d", ErrBadRange, offset)
	}
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n, err := fs.lookup(p)
	if err != nil {
		return nil, 0, 0, err
	}
	if n.dir {
		return nil, 0, 0, fmt.Errorf("%w: %q", ErrIsDir, p)
	}
	crc := fs.sumLocked(n)
	size := int64(len(n.data))
	if offset >= size {
		return nil, size, crc, nil
	}
	end := size
	// Compare limit against the remaining bytes rather than computing
	// offset+limit, which overflows for wire-supplied limits near MaxInt64.
	if limit > 0 && limit < size-offset {
		end = offset + limit
	}
	return n.data[offset:end:end], size, crc, nil
}

// Stat describes the file or directory at p.
func (fs *FS) Stat(p string) (FileInfo, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n, err := fs.lookup(p)
	if err != nil {
		return FileInfo{}, err
	}
	cp, _ := clean(p)
	return fs.infoLocked(n, cp), nil
}

func (fs *FS) infoLocked(n *node, fullPath string) FileInfo {
	fi := FileInfo{Name: n.name, Path: fullPath, IsDir: n.dir, ModTime: n.modTime}
	if fullPath == "/" {
		fi.Name = "/"
	}
	if !n.dir {
		fi.Size = int64(len(n.data))
		fi.CRC = fs.sumLocked(n)
	}
	return fi
}

// Exists reports whether p names a file or directory.
func (fs *FS) Exists(p string) bool {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	_, err := fs.lookup(p)
	return err == nil
}

// List returns the entries of directory p sorted by name.
func (fs *FS) List(p string) ([]FileInfo, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n, err := fs.lookup(p)
	if err != nil {
		return nil, err
	}
	if !n.dir {
		return nil, fmt.Errorf("%w: %q", ErrNotDir, p)
	}
	cp, _ := clean(p)
	names := make([]string, 0, len(n.children))
	for name := range n.children {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]FileInfo, 0, len(names))
	for _, name := range names {
		out = append(out, fs.infoLocked(n.children[name], path.Join(cp, name)))
	}
	return out, nil
}

// Walk visits every file (not directories) under root in sorted path order.
func (fs *FS) Walk(root string, visit func(FileInfo) error) error {
	fs.mu.RLock()
	n, err := fs.lookup(root)
	if err != nil {
		fs.mu.RUnlock()
		return err
	}
	cp, _ := clean(root)
	var infos []FileInfo
	var rec func(n *node, p string)
	rec = func(n *node, p string) {
		if !n.dir {
			infos = append(infos, fs.infoLocked(n, p))
			return
		}
		names := make([]string, 0, len(n.children))
		for name := range n.children {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			rec(n.children[name], path.Join(p, name))
		}
	}
	rec(n, cp)
	fs.mu.RUnlock()
	for _, fi := range infos {
		if err := visit(fi); err != nil {
			return err
		}
	}
	return nil
}

// Remove deletes a file or an empty directory.
func (fs *FS) Remove(p string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	par, base, err := fs.parent(p)
	if err != nil {
		return err
	}
	n, ok := par.children[base]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotExist, p)
	}
	if n.dir && len(n.children) > 0 {
		return fmt.Errorf("%w: %q", ErrNotEmpty, p)
	}
	fs.used -= subtreeSize(n)
	delete(par.children, base)
	cp, _ := clean(p)
	fs.notifyLocked(Mutation{Op: OpRemove, Path: cp})
	return nil
}

// RemoveAll deletes p and everything under it. Removing a missing path is a
// no-op, as with os.RemoveAll.
func (fs *FS) RemoveAll(p string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	par, base, err := fs.parent(p)
	if err != nil {
		if errors.Is(err, ErrNotExist) {
			return nil
		}
		return err
	}
	n, ok := par.children[base]
	if !ok {
		return nil
	}
	fs.used -= subtreeSize(n)
	delete(par.children, base)
	cp, _ := clean(p)
	fs.notifyLocked(Mutation{Op: OpRemove, Path: cp})
	return nil
}

// Rename moves a file or directory. The destination parent must exist and
// the destination name must be free.
func (fs *FS) Rename(oldp, newp string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	opar, obase, err := fs.parent(oldp)
	if err != nil {
		return err
	}
	n, ok := opar.children[obase]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotExist, oldp)
	}
	npar, nbase, err := fs.parent(newp)
	if err != nil {
		return err
	}
	if _, exists := npar.children[nbase]; exists {
		return fmt.Errorf("%w: %q", ErrExist, newp)
	}
	delete(opar.children, obase)
	n.name = nbase
	n.modTime = fs.clock.Now()
	npar.children[nbase] = n
	ocp, _ := clean(oldp)
	ncp, _ := clean(newp)
	fs.notifyLocked(Mutation{Op: OpRename, Path: ocp, To: ncp})
	return nil
}

// Copy duplicates the file at src to dst within this FS (see CopyBetween).
func (fs *FS) Copy(dst, src string) error { return CopyBetween(fs, dst, fs, src) }

// CopyTree recursively copies the directory (or file) at src to dst.
func (fs *FS) CopyTree(dst, src string) error {
	info, err := fs.Stat(src)
	if err != nil {
		return err
	}
	if !info.IsDir {
		return fs.Copy(dst, src)
	}
	if err := fs.MkdirAll(dst); err != nil {
		return err
	}
	entries, err := fs.List(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if err := fs.CopyTree(path.Join(dst, e.Name), e.Path); err != nil {
			return err
		}
	}
	return nil
}

// CopyBetween copies a single file across file systems (e.g. a transfer
// between the Uspaces of two Vsites). The copy shares the source's immutable
// buffer and its checksum; the destination's quota is charged in full.
func CopyBetween(dst *FS, dstPath string, src *FS, srcPath string) error {
	data, _, crc, err := src.ReadFileRange(srcPath, 0, 0)
	if err != nil {
		return err
	}
	return dst.put(dstPath, data, crc, true)
}

// TreeSize returns the total content bytes under p.
func (fs *FS) TreeSize(p string) (int64, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n, err := fs.lookup(p)
	if err != nil {
		return 0, err
	}
	return subtreeSize(n), nil
}

func subtreeSize(n *node) int64 {
	if !n.dir {
		return int64(len(n.data))
	}
	var total int64
	for _, c := range n.children {
		total += subtreeSize(c)
	}
	return total
}

// chargeLocked applies a usage delta, enforcing the quota for growth.
func (fs *FS) chargeLocked(delta int64) error {
	if delta > 0 && fs.quota > 0 && fs.used+delta > fs.quota {
		return fmt.Errorf("%w: need %d bytes, %d of %d used", ErrQuota, delta, fs.used, fs.quota)
	}
	fs.used += delta
	return nil
}
