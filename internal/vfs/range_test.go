package vfs

import (
	"bytes"
	"errors"
	"hash/crc64"
	"math"
	"testing"
)

func TestReadFileRange(t *testing.T) {
	fs := New(nil)
	if err := fs.MkdirAll("/d"); err != nil {
		t.Fatal(err)
	}
	content := make([]byte, 500)
	for i := range content {
		content[i] = byte(i)
	}
	if err := fs.WriteFile("/d/f", content); err != nil {
		t.Fatal(err)
	}
	wantCRC := crc64.Checksum(content, crcTable)

	cases := []struct {
		name          string
		offset, limit int64
		want          []byte
	}{
		{"whole file via zero limit", 0, 0, content},
		{"interior window", 100, 100, content[100:200]},
		{"window truncated at EOF", 450, 100, content[450:]},
		{"offset at EOF", 500, 10, nil},
		{"offset past EOF", 600, 10, nil},
		{"huge limit must not overflow", 1, math.MaxInt64, content[1:]},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data, size, crc, err := fs.ReadFileRange("/d/f", tc.offset, tc.limit)
			if err != nil {
				t.Fatalf("ReadFileRange: %v", err)
			}
			if !bytes.Equal(data, tc.want) {
				t.Fatalf("data = %d bytes, want %d", len(data), len(tc.want))
			}
			if size != 500 || crc != wantCRC {
				t.Fatalf("size=%d crc-ok=%v", size, crc == wantCRC)
			}
		})
	}

	t.Run("negative offset", func(t *testing.T) {
		_, _, _, err := fs.ReadFileRange("/d/f", -1, 10)
		if !errors.Is(err, ErrBadRange) {
			t.Fatalf("err = %v, want ErrBadRange", err)
		}
	})
	t.Run("directory", func(t *testing.T) {
		if _, _, _, err := fs.ReadFileRange("/d", 0, 10); !errors.Is(err, ErrIsDir) {
			t.Fatalf("err = %v, want ErrIsDir", err)
		}
	})
	t.Run("missing file", func(t *testing.T) {
		if _, _, _, err := fs.ReadFileRange("/d/none", 0, 10); !errors.Is(err, ErrNotExist) {
			t.Fatalf("err = %v, want ErrNotExist", err)
		}
	})
}

// TestReadFileRangeCRCInvalidation checks the cached whole-file CRC tracks
// mutations: appends invalidate it and rewrites replace it.
func TestReadFileRangeCRCInvalidation(t *testing.T) {
	fs := New(nil)
	if err := fs.MkdirAll("/d"); err != nil {
		t.Fatal(err)
	}
	crcOf := func(b []byte) uint64 { return crc64.Checksum(b, crcTable) }
	read := func() uint64 {
		t.Helper()
		_, _, crc, err := fs.ReadFileRange("/d/f", 0, 4)
		if err != nil {
			t.Fatal(err)
		}
		return crc
	}

	if err := fs.WriteFile("/d/f", []byte("one")); err != nil {
		t.Fatal(err)
	}
	if got := read(); got != crcOf([]byte("one")) {
		t.Fatal("initial CRC wrong")
	}
	if err := fs.AppendFile("/d/f", []byte("+two")); err != nil {
		t.Fatal(err)
	}
	if got := read(); got != crcOf([]byte("one+two")) {
		t.Fatal("CRC stale after append")
	}
	if err := fs.WriteFile("/d/f", []byte("three")); err != nil {
		t.Fatal(err)
	}
	if got := read(); got != crcOf([]byte("three")) {
		t.Fatal("CRC stale after rewrite")
	}
	// Stat must agree with the cache.
	fi, err := fs.Stat("/d/f")
	if err != nil {
		t.Fatal(err)
	}
	if fi.CRC != crcOf([]byte("three")) {
		t.Fatal("Stat CRC disagrees with ReadFileRange CRC")
	}
}

// TestReadFileRangeViewIsImmutable is the read half of the ownership rule:
// a ranged read hands out the stored bytes themselves, so they must keep
// their contents whatever later happens to the path, and must not give the
// holder room to grow into the file's buffer.
func TestReadFileRangeViewIsImmutable(t *testing.T) {
	fs := New(nil)
	if err := fs.MkdirAll("/d"); err != nil {
		t.Fatal(err)
	}
	content := []byte("0123456789abcdef")
	mutations := map[string]func() error{
		"WriteFile":  func() error { return fs.WriteFile("/d/f", []byte("REPLACEDREPLACED")) },
		"AppendFile": func() error { return fs.AppendFile("/d/f", []byte("-tail")) },
		"AppendTwice": func() error {
			if err := fs.AppendFile("/d/f", []byte("-one")); err != nil {
				return err
			}
			// The second append lands in the spare capacity the first made.
			return fs.AppendFile("/d/f", []byte("-two"))
		},
		"Remove": func() error { return fs.Remove("/d/f") },
		"Rename": func() error { return fs.Rename("/d/f", "/d/g") },
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			if err := fs.RemoveAll("/d/g"); err != nil {
				t.Fatal(err)
			}
			if err := fs.WriteFile("/d/f", content); err != nil {
				t.Fatal(err)
			}
			whole, _, _, err := fs.ReadFileRange("/d/f", 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			mid, _, _, err := fs.ReadFileRange("/d/f", 4, 8)
			if err != nil {
				t.Fatal(err)
			}
			if cap(whole) != len(whole) || cap(mid) != len(mid) {
				t.Fatalf("views have spare capacity: whole %d/%d, mid %d/%d", len(whole), cap(whole), len(mid), cap(mid))
			}
			if err := mutate(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(whole, content) || !bytes.Equal(mid, content[4:12]) {
				t.Fatalf("views changed under %s: %q / %q", name, whole, mid)
			}
		})
	}
}

// TestCopySharesBytesNotFate: a copy shares the source's immutable buffer
// (and its known checksum) but the two files stay independent, and the quota
// is charged for both.
func TestCopySharesBytesNotFate(t *testing.T) {
	fs := New(nil)
	other := New(nil)
	for _, f := range []*FS{fs, other} {
		if err := f.MkdirAll("/d"); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.WriteFile("/d/src", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Copy("/d/dst", "/d/src"); err != nil {
		t.Fatal(err)
	}
	if err := CopyBetween(other, "/d/far", fs, "/d/src"); err != nil {
		t.Fatal(err)
	}
	if fs.Used() != 14 || other.Used() != 7 {
		t.Fatalf("used %d / %d, want 14 / 7", fs.Used(), other.Used())
	}
	if err := fs.AppendFile("/d/src", []byte("+src")); err != nil {
		t.Fatal(err)
	}
	if err := fs.AppendFile("/d/dst", []byte("+dst")); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		fs   *FS
		path string
		want string
	}{{fs, "/d/src", "payload+src"}, {fs, "/d/dst", "payload+dst"}, {other, "/d/far", "payload"}} {
		got, err := c.fs.ReadFile(c.path)
		if err != nil || string(got) != c.want {
			t.Fatalf("%s = %q, %v; want %q", c.path, got, err, c.want)
		}
		if fi, _ := c.fs.Stat(c.path); fi.CRC != crc64.Checksum([]byte(c.want), crcTable) {
			t.Fatalf("%s: Stat CRC does not match its contents", c.path)
		}
	}
	fs.SetQuota(fs.Used() + 3)
	if err := fs.Copy("/d/over", "/d/src"); !errors.Is(err, ErrQuota) {
		t.Fatalf("copy past the quota: err = %v, want ErrQuota", err)
	}
	if err := fs.Copy("/d/x", "/d"); !errors.Is(err, ErrIsDir) {
		t.Fatalf("copy of a directory: err = %v, want ErrIsDir", err)
	}
}

// TestChecksumCacheFillsUnderReadLock hammers the lazily filled CRC cache
// from concurrent readers while a writer appends and replaces — the -race
// proof that filling under the read lock is sound, and that every reader
// sees a (size, crc) pair describing one real state of the file.
func TestChecksumCacheFillsUnderReadLock(t *testing.T) {
	fs := New(nil)
	if err := fs.MkdirAll("/d"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/d/f", []byte("seed")); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	errc := make(chan error, 4)
	for r := 0; r < 4; r++ {
		go func() {
			for {
				select {
				case <-done:
					errc <- nil
					return
				default:
				}
				data, size, crc, err := fs.ReadFileRange("/d/f", 0, 0)
				if err != nil {
					errc <- err
					return
				}
				if int64(len(data)) != size || crc64.Checksum(data, crcTable) != crc {
					errc <- errors.New("ranged read returned a crc that is not the crc of its bytes")
					return
				}
				// The file is only ever "seed" + k×"more", so Stat's size
				// determines what its crc must be.
				fi, err := fs.Stat("/d/f")
				if err != nil {
					errc <- err
					return
				}
				want := append([]byte("seed"), bytes.Repeat([]byte("more"), int(fi.Size-4)/4)...)
				if fi.CRC != crc64.Checksum(want, crcTable) {
					errc <- errors.New("stat returned a crc that is not the crc of a file of its size")
					return
				}
			}
		}()
	}
	for i := 0; i < 300; i++ {
		var err error
		if i%10 == 0 {
			err = fs.WriteFile("/d/f", []byte("seed"))
		} else {
			err = fs.AppendFile("/d/f", []byte("more"))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	for r := 0; r < 4; r++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}
