package vfs

import (
	"errors"
	"path"
	"strings"
	"testing"
)

// raceEnabled is set by race_test.go under -race, where allocation counts
// include the race detector's own.
var raceEnabled bool

// refSplit is the resolver resolve replaced: the cleaned path cut into a
// slice of components, kept here as the reference the walker must agree with.
func refSplit(cp string) []string {
	cp = strings.Trim(cp, "/")
	if cp == "" {
		return nil
	}
	return strings.Split(cp, "/")
}

// refLookup resolves p the reference way and returns the bare sentinel.
func refLookup(fs *FS, p string) error {
	cp, err := clean(p)
	if err != nil {
		return ErrBadPath
	}
	n := fs.root
	for _, part := range refSplit(cp) {
		if !n.dir {
			return ErrNotDir
		}
		child, ok := n.children[part]
		if !ok {
			return ErrNotExist
		}
		n = child
	}
	return nil
}

// refMkdirAll predicts MkdirAll's outcome the reference way, without
// creating anything.
func refMkdirAll(fs *FS, p string) error {
	cp, err := clean(p)
	if err != nil {
		return ErrBadPath
	}
	n := fs.root
	for _, part := range refSplit(cp) {
		child, ok := n.children[part]
		if !ok {
			return nil // the rest is created
		}
		if !child.dir {
			return ErrNotDir
		}
		n = child
	}
	return nil
}

// refWriteFile predicts WriteFile's outcome (the parent walk) the reference
// way, without writing anything.
func refWriteFile(fs *FS, p string) error {
	cp, err := clean(p)
	if err != nil {
		return ErrBadPath
	}
	parts := refSplit(cp)
	if len(parts) == 0 {
		return ErrBadPath
	}
	n := fs.root
	for _, part := range parts[:len(parts)-1] {
		child, ok := n.children[part]
		if !ok {
			return ErrNotExist
		}
		if !child.dir {
			return ErrNotDir
		}
		n = child
	}
	if c, ok := n.children[parts[len(parts)-1]]; ok && c.dir {
		return ErrIsDir
	}
	return nil
}

// sentinels are the errors the agreement checks compare by.
var sentinels = []error{ErrBadPath, ErrNotExist, ErrNotDir, ErrIsDir}

// sentinel reduces err to the sentinel it wraps (nil for nil).
func sentinel(err error) error {
	for _, s := range sentinels {
		if errors.Is(err, s) {
			return s
		}
	}
	return err
}

// shapeTree builds a small tree from shape: each byte names a path of one to
// three components over {a, b, c, d}, created as a directory on even
// positions and as a file on odd ones (conflicts are simply skipped).
func shapeTree(shape []byte) *FS {
	fs := newFS()
	names := [...]string{"a", "b", "c", "d"}
	for i, b := range shape {
		if i == 16 {
			break
		}
		p := ""
		for d := 0; d <= int(b%3); d++ {
			p += "/" + names[(b>>(2+2*d))&3]
		}
		if i%2 == 0 {
			_ = fs.MkdirAll(p)
		} else {
			_ = fs.MkdirAll(path.Dir(p))
			_ = fs.WriteFile(p, []byte{b})
		}
	}
	return fs
}

// FuzzResolveAgreesWithSplit holds the in-place walker to the strings.Split
// resolver it replaced: over arbitrary path strings and a small random tree,
// Exists, Stat's error, WriteFile's parent walk and MkdirAll (and Exists
// after it) come out as the reference says.
func FuzzResolveAgreesWithSplit(f *testing.F) {
	shape := []byte{0x00, 0x05, 0x12, 0x29, 0x3a, 0x47}
	for _, p := range []string{
		"/", "", "a", "a/b", "/a", "/a/b", "//a//b/", "/a/./b/..", "/..", "/a/../../b",
		"/a/b/c/d", "/b/a", "/a/b/", ".", "/./", "/a/b/c/../../d",
	} {
		f.Add(shape, p)
	}
	f.Fuzz(func(t *testing.T, shape []byte, p string) {
		fs := shapeTree(shape)
		want := refLookup(fs, p)
		if got := fs.Exists(p); got != (want == nil) {
			t.Fatalf("Exists(%q) = %v, reference says %v", p, got, want)
		}
		if _, err := fs.Stat(p); sentinel(err) != want {
			t.Fatalf("Stat(%q) err = %v, reference says %v", p, err, want)
		}
		want = refWriteFile(fs, p)
		// Write under a fresh copy of the tree so MkdirAll below still sees
		// the original shape.
		if err := shapeTree(shape).WriteFile(p, nil); sentinel(err) != want {
			t.Fatalf("WriteFile(%q) err = %v, reference says %v", p, err, want)
		}
		want = refMkdirAll(fs, p)
		if err := fs.MkdirAll(p); sentinel(err) != want {
			t.Fatalf("MkdirAll(%q) err = %v, reference says %v", p, err, want)
		}
		if want == nil {
			if !fs.Exists(p) || refLookup(fs, p) != nil {
				t.Fatalf("after MkdirAll(%q): Exists %v, reference %v", p, fs.Exists(p), refLookup(fs, p))
			}
			if fi, err := fs.Stat(p); err != nil || !fi.IsDir {
				t.Fatalf("after MkdirAll(%q): Stat = %+v, %v", p, fi, err)
			}
		}
	})
}

// TestLookupAllocatesNothing gates the read paths every chunk, fetch and
// Uspace file walks: Exists on a hit or a miss and a ranged read allocate
// nothing.
func TestLookupAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include the race detector's own")
	}
	fs := newFS()
	const dir = "/spool/stg-T3E-00000001"
	if err := fs.MkdirAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile(dir+"/c00000000", make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what string
		fn   func()
	}{
		{"Exists hit", func() { fs.Exists(dir + "/c00000000") }},
		{"Exists miss", func() { fs.Exists(dir + "/c00000001") }},
		{"Exists below a file", func() { fs.Exists(dir + "/c00000000/x") }},
		{"ReadFileRange", func() { _, _, _, _ = fs.ReadFileRange(dir+"/c00000000", 1024, 1024) }},
	} {
		c.fn()
		if n := testing.AllocsPerRun(100, c.fn); n != 0 {
			t.Errorf("%s allocates %.0f times, want 0", c.what, n)
		}
	}
}

// TestRenameIntoOwnSubtreeRefused: as with os.Rename, a directory cannot
// move onto itself or under itself. Allowing it detached the subtree as a
// cycle whose bytes Used() kept charging. The refusal reaches no observer.
func TestRenameIntoOwnSubtreeRefused(t *testing.T) {
	fs := newFS()
	_ = fs.MkdirAll("/a/x")
	_ = fs.WriteFile("/a/x/f", []byte("hello"))
	calls := 0
	fs.Observe(func(Mutation) { calls++ })
	for _, c := range [][2]string{
		{"/a", "/a/x/b"},
		{"/a", "/a/b"},
		{"/a", "/a"},
		{"/a/", "//a/./x/../y"},
		{"/a/x/f", "/a/x/f"},
	} {
		if err := fs.Rename(c[0], c[1]); !errors.Is(err, ErrBadPath) {
			t.Errorf("Rename(%q, %q) err = %v, want ErrBadPath", c[0], c[1], err)
		}
	}
	if calls != 0 {
		t.Fatalf("observer called %d times for refused renames", calls)
	}
	if got, err := fs.ReadFile("/a/x/f"); err != nil || string(got) != "hello" {
		t.Fatalf("tree after refused renames: %q, %v", got, err)
	}
	if fs.Used() != 5 {
		t.Fatalf("Used() = %d, want 5", fs.Used())
	}
	// A sibling that merely shares the prefix is not a subtree.
	if err := fs.Rename("/a", "/ab"); err != nil {
		t.Fatalf("Rename to a prefix-sharing sibling: %v", err)
	}
	if !fs.Exists("/ab/x/f") || fs.Exists("/a") {
		t.Fatal("prefix-sharing rename did not move the tree")
	}
}
