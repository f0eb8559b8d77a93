package vfs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"unicore/internal/sim"
)

func newFS() *FS { return New(sim.NewVirtualClock()) }

func TestWriteReadRoundTrip(t *testing.T) {
	fs := newFS()
	if err := fs.MkdirAll("/home/alice"); err != nil {
		t.Fatal(err)
	}
	want := []byte("program data\n")
	if err := fs.WriteFile("/home/alice/in.dat", want); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/home/alice/in.dat")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("read %q, want %q", got, want)
	}
}

func TestReadFileReturnsCopy(t *testing.T) {
	fs := newFS()
	_ = fs.MkdirAll("/d")
	_ = fs.WriteFile("/d/f", []byte("abc"))
	got, _ := fs.ReadFile("/d/f")
	got[0] = 'X'
	again, _ := fs.ReadFile("/d/f")
	if string(again) != "abc" {
		t.Fatalf("mutation of returned slice leaked into FS: %q", again)
	}
}

func TestWriteFileCopiesInput(t *testing.T) {
	fs := newFS()
	_ = fs.MkdirAll("/d")
	data := []byte("abc")
	_ = fs.WriteFile("/d/f", data)
	data[0] = 'X'
	got, _ := fs.ReadFile("/d/f")
	if string(got) != "abc" {
		t.Fatalf("caller mutation leaked into FS: %q", got)
	}
}

func TestErrors(t *testing.T) {
	fs := newFS()
	_ = fs.MkdirAll("/d/sub")
	_ = fs.WriteFile("/d/f", []byte("x"))

	if _, err := fs.ReadFile("/nope"); !errors.Is(err, ErrNotExist) {
		t.Errorf("read missing: %v", err)
	}
	if _, err := fs.ReadFile("/d"); !errors.Is(err, ErrIsDir) {
		t.Errorf("read dir: %v", err)
	}
	if err := fs.WriteFile("/d/sub", []byte("y")); !errors.Is(err, ErrIsDir) {
		t.Errorf("write over dir: %v", err)
	}
	if err := fs.WriteFile("/missing/f", nil); !errors.Is(err, ErrNotExist) {
		t.Errorf("write without parent: %v", err)
	}
	if err := fs.WriteFile("relative", nil); !errors.Is(err, ErrBadPath) {
		t.Errorf("relative path: %v", err)
	}
	if err := fs.Mkdir("/d"); !errors.Is(err, ErrExist) {
		t.Errorf("mkdir existing: %v", err)
	}
	if err := fs.Remove("/d"); !errors.Is(err, ErrNotEmpty) {
		t.Errorf("remove non-empty dir: %v", err)
	}
	if _, err := fs.List("/d/f"); !errors.Is(err, ErrNotDir) {
		t.Errorf("list file: %v", err)
	}
}

func TestAppendFile(t *testing.T) {
	fs := newFS()
	_ = fs.MkdirAll("/log")
	if err := fs.AppendFile("/log/out", []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := fs.AppendFile("/log/out", []byte("b")); err != nil {
		t.Fatal(err)
	}
	got, _ := fs.ReadFile("/log/out")
	if string(got) != "ab" {
		t.Fatalf("append result %q", got)
	}
}

func TestRemoveAndRemoveAll(t *testing.T) {
	fs := newFS()
	_ = fs.MkdirAll("/a/b")
	_ = fs.WriteFile("/a/b/f1", []byte("12345"))
	_ = fs.WriteFile("/a/f2", []byte("678"))

	if err := fs.Remove("/a/b/f1"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("/a/b/f1") {
		t.Fatal("file still exists after Remove")
	}
	if err := fs.RemoveAll("/a"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("/a") {
		t.Fatal("tree still exists after RemoveAll")
	}
	if got := fs.Used(); got != 0 {
		t.Fatalf("Used() = %d after removing everything", got)
	}
	if err := fs.RemoveAll("/a"); err != nil {
		t.Fatalf("RemoveAll on missing path: %v", err)
	}
}

func TestRename(t *testing.T) {
	fs := newFS()
	_ = fs.MkdirAll("/src")
	_ = fs.MkdirAll("/dst")
	_ = fs.WriteFile("/src/f", []byte("data"))
	if err := fs.Rename("/src/f", "/dst/g"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("/src/f") {
		t.Fatal("source still present")
	}
	got, err := fs.ReadFile("/dst/g")
	if err != nil || string(got) != "data" {
		t.Fatalf("dest read: %q, %v", got, err)
	}
	if err := fs.Rename("/dst/g", "/dst/g2"); err != nil {
		t.Fatal(err)
	}
	_ = fs.WriteFile("/dst/h", []byte("x"))
	if err := fs.Rename("/dst/h", "/dst/g2"); !errors.Is(err, ErrExist) {
		t.Fatalf("rename over existing: %v", err)
	}
}

func TestQuota(t *testing.T) {
	fs := newFS()
	_ = fs.MkdirAll("/d")
	fs.SetQuota(10)
	if err := fs.WriteFile("/d/a", bytes.Repeat([]byte("x"), 8)); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/d/b", []byte("yyy")); !errors.Is(err, ErrQuota) {
		t.Fatalf("over-quota write: %v", err)
	}
	// Replacing a file only charges the delta.
	if err := fs.WriteFile("/d/a", bytes.Repeat([]byte("x"), 10)); err != nil {
		t.Fatalf("replace within quota: %v", err)
	}
	if err := fs.AppendFile("/d/a", []byte("z")); !errors.Is(err, ErrQuota) {
		t.Fatalf("append over quota: %v", err)
	}
	_ = fs.Remove("/d/a")
	if err := fs.WriteFile("/d/b", []byte("yyy")); err != nil {
		t.Fatalf("write after freeing space: %v", err)
	}
}

func TestStatAndCRC(t *testing.T) {
	fs := newFS()
	_ = fs.MkdirAll("/d")
	_ = fs.WriteFile("/d/f", []byte("hello"))
	fi, err := fs.Stat("/d/f")
	if err != nil {
		t.Fatal(err)
	}
	if fi.Name != "f" || fi.Size != 5 || fi.IsDir || fi.CRC == 0 {
		t.Fatalf("Stat = %+v", fi)
	}
	_ = fs.WriteFile("/d/g", []byte("hello"))
	gi, _ := fs.Stat("/d/g")
	if gi.CRC != fi.CRC {
		t.Fatal("same contents produced different CRCs")
	}
	di, err := fs.Stat("/d")
	if err != nil || !di.IsDir {
		t.Fatalf("Stat dir = %+v, %v", di, err)
	}
	ri, err := fs.Stat("/")
	if err != nil || !ri.IsDir || ri.Name != "/" {
		t.Fatalf("Stat root = %+v, %v", ri, err)
	}
}

func TestListSorted(t *testing.T) {
	fs := newFS()
	_ = fs.MkdirAll("/d")
	for _, name := range []string{"c", "a", "b"} {
		_ = fs.WriteFile("/d/"+name, []byte(name))
	}
	entries, err := fs.List("/d")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name)
	}
	if fmt.Sprint(names) != "[a b c]" {
		t.Fatalf("List order = %v", names)
	}
}

func TestCopy(t *testing.T) {
	fs := newFS()
	_ = fs.MkdirAll("/src")
	_ = fs.MkdirAll("/dst")
	_ = fs.WriteFile("/src/g", []byte("gg"))
	if err := fs.Copy("/dst/g", "/src/g"); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/dst/g")
	if err != nil || string(got) != "gg" {
		t.Fatalf("copied file read: %q, %v", got, err)
	}
	if fs.Used() != 4 {
		t.Fatalf("Used() = %d after a copy, want 4: the copy is charged", fs.Used())
	}
}

func TestCopyBetween(t *testing.T) {
	a, b := newFS(), newFS()
	_ = a.MkdirAll("/u")
	_ = b.MkdirAll("/u")
	_ = a.WriteFile("/u/data", []byte("payload"))
	if err := CopyBetween(b, "/u/data", a, "/u/data"); err != nil {
		t.Fatal(err)
	}
	got, _ := b.ReadFile("/u/data")
	if string(got) != "payload" {
		t.Fatalf("cross-FS copy = %q", got)
	}
	sa, _ := a.Stat("/u/data")
	sb, _ := b.Stat("/u/data")
	if sa.CRC != sb.CRC {
		t.Fatal("CRCs differ after cross-FS copy")
	}
}

func TestPathNormalisation(t *testing.T) {
	fs := newFS()
	_ = fs.MkdirAll("/a/b")
	_ = fs.WriteFile("/a/b/f", []byte("x"))
	if _, err := fs.ReadFile("/a//b/./f"); err != nil {
		t.Fatalf("normalised read failed: %v", err)
	}
	if _, err := fs.ReadFile("/a/b/../b/f"); err != nil {
		t.Fatalf("dot-dot read failed: %v", err)
	}
}

// Property: Used() always equals the byte sum of all files, through any
// sequence of writes, appends, and removals.
func TestQuickUsedInvariant(t *testing.T) {
	type op struct {
		Kind byte
		File uint8
		Size uint8
	}
	f := func(ops []op) bool {
		fs := newFS()
		_ = fs.MkdirAll("/d")
		for _, o := range ops {
			p := fmt.Sprintf("/d/f%d", o.File%8)
			switch o.Kind % 3 {
			case 0:
				_ = fs.WriteFile(p, bytes.Repeat([]byte("x"), int(o.Size)))
			case 1:
				_ = fs.AppendFile(p, bytes.Repeat([]byte("y"), int(o.Size)))
			case 2:
				_ = fs.Remove(p)
			}
		}
		return fs.Used() == subtreeSize(fs.root)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: quota is never exceeded no matter the operation sequence.
func TestQuickQuotaNeverExceeded(t *testing.T) {
	f := func(seed int64, quota uint16) bool {
		r := rand.New(rand.NewSource(seed))
		q := int64(quota%512) + 16
		fs := newFS()
		_ = fs.MkdirAll("/d")
		fs.SetQuota(q)
		for i := 0; i < 100; i++ {
			p := fmt.Sprintf("/d/f%d", r.Intn(5))
			switch r.Intn(3) {
			case 0:
				_ = fs.WriteFile(p, bytes.Repeat([]byte("x"), r.Intn(64)))
			case 1:
				_ = fs.AppendFile(p, bytes.Repeat([]byte("y"), r.Intn(64)))
			case 2:
				_ = fs.Remove(p)
			}
			if fs.Used() > q {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Rename preserves contents and total usage.
func TestQuickRenamePreserves(t *testing.T) {
	f := func(data []byte) bool {
		fs := newFS()
		_ = fs.MkdirAll("/d")
		if err := fs.WriteFile("/d/a", data); err != nil {
			return false
		}
		before := fs.Used()
		if err := fs.Rename("/d/a", "/d/b"); err != nil {
			return false
		}
		got, err := fs.ReadFile("/d/b")
		return err == nil && bytes.Equal(got, data) && fs.Used() == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
