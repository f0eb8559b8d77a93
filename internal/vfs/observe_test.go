package vfs

import (
	"hash/crc64"
	"reflect"
	"testing"
)

// crcTable is hash/crc64's ECMA table, the reference the vfs file sum must match.
var crcTable = crc64.MakeTable(crc64.ECMA)

// chunkedRead walks a file the way the NJS transfer path does: fixed-size
// ReadFileRange calls until offset reaches the reported size, then verifies
// the assembled bytes against the reported whole-file CRC.
func chunkedRead(t *testing.T, fs *FS, p string, chunk int64) []byte {
	t.Helper()
	var buf []byte
	var offset int64
	for {
		data, size, crc, err := fs.ReadFileRange(p, offset, chunk)
		if err != nil {
			t.Fatalf("ReadFileRange(%s, %d): %v", p, offset, err)
		}
		buf = append(buf, data...)
		offset += int64(len(data))
		if offset >= size || len(data) == 0 {
			if got := crc64.Checksum(buf, crcTable); got != crc {
				t.Fatalf("chunked read of %s: assembled CRC %x != reported %x", p, got, crc)
			}
			return buf
		}
	}
}

// TestChunkedReadCRCAfterWrite is the regression guard for the PR-1 CRC
// cache: a write landing after a chunked ReadFileRange has populated the
// cache must yield a freshly computed whole-file CRC on the next ranged
// read, for every mutation path that replaces or extends contents.
func TestChunkedReadCRCAfterWrite(t *testing.T) {
	fs := New(nil)
	if err := fs.MkdirAll("/u/job"); err != nil {
		t.Fatal(err)
	}
	first := make([]byte, 1000)
	for i := range first {
		first[i] = byte(i)
	}
	if err := fs.WriteFile("/u/job/out.dat", first); err != nil {
		t.Fatal(err)
	}
	// Populate the CRC cache with a multi-chunk read.
	if got := chunkedRead(t, fs, "/u/job/out.dat", 256); !reflect.DeepEqual(got, first) {
		t.Fatal("first chunked read returned wrong bytes")
	}

	// WriteFile replaces the node: the next ranged read must recompute.
	second := []byte("rewritten contents, shorter than before")
	if err := fs.WriteFile("/u/job/out.dat", second); err != nil {
		t.Fatal(err)
	}
	if got := chunkedRead(t, fs, "/u/job/out.dat", 16); !reflect.DeepEqual(got, second) {
		t.Fatal("chunked read after rewrite returned stale bytes")
	}

	// AppendFile mutates in place: the cache must be invalidated.
	if err := fs.AppendFile("/u/job/out.dat", []byte(" +tail")); err != nil {
		t.Fatal(err)
	}
	want := append(append([]byte(nil), second...), []byte(" +tail")...)
	if got := chunkedRead(t, fs, "/u/job/out.dat", 16); !reflect.DeepEqual(got, want) {
		t.Fatal("chunked read after append returned stale bytes")
	}

	// Copy overwrites the destination through WriteFile: same guarantee.
	if err := fs.WriteFile("/u/job/src.dat", []byte("copied body")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Copy("/u/job/out.dat", "/u/job/src.dat"); err != nil {
		t.Fatal(err)
	}
	if got := chunkedRead(t, fs, "/u/job/out.dat", 4); string(got) != "copied body" {
		t.Fatalf("chunked read after copy = %q", got)
	}
}

func TestObserverSeesMutationsInOrder(t *testing.T) {
	fs := New(nil)
	var got []Mutation
	fs.Observe(func(m Mutation) { got = append(got, m) })

	if err := fs.MkdirAll("/u/job"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/u/job/a", []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := fs.AppendFile("/u/job/a", []byte("+two")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("/u/job/a", "/u/job/b"); err != nil {
		t.Fatal(err)
	}
	if err := fs.RemoveAll("/u/job/b"); err != nil {
		t.Fatal(err)
	}

	want := []Mutation{
		{Op: OpMkdir, Path: "/u/job"},
		{Op: OpWrite, Path: "/u/job/a", Data: []byte("one")},
		{Op: OpWrite, Path: "/u/job/a", Data: []byte("one+two")}, // append reports full contents
		{Op: OpRename, Path: "/u/job/a", To: "/u/job/b"},
		{Op: OpRemove, Path: "/u/job/b"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("mutations:\n got %+v\nwant %+v", got, want)
	}
}

func TestObserverNotCalledOnFailure(t *testing.T) {
	fs := New(nil)
	if err := fs.MkdirAll("/d"); err != nil {
		t.Fatal(err)
	}
	fs.SetQuota(4)
	calls := 0
	fs.Observe(func(Mutation) { calls++ })
	if err := fs.WriteFile("/d/big", []byte("exceeds the quota")); err == nil {
		t.Fatal("write over quota succeeded")
	}
	if err := fs.WriteFile("/missing/parent", []byte("x")); err == nil {
		t.Fatal("write without parent succeeded")
	}
	if calls != 0 {
		t.Fatalf("observer called %d times for failed mutations", calls)
	}
}

// The observer receives the stored bytes themselves, not a copy: what it
// retains is cap-limited and keeps its contents whatever later happens to
// the caller's buffer or the file.
func TestObserverDataIsStableView(t *testing.T) {
	fs := New(nil)
	if err := fs.MkdirAll("/d"); err != nil {
		t.Fatal(err)
	}
	var seen [][]byte
	fs.Observe(func(m Mutation) {
		if m.Op == OpWrite {
			seen = append(seen, m.Data)
		}
	})
	input := []byte("original")
	if err := fs.WriteFile("/d/f", input); err != nil {
		t.Fatal(err)
	}
	input[0] = 'X' // caller reuses its buffer
	for _, tail := range []string{"...", "!!!"} {
		if err := fs.AppendFile("/d/f", []byte(tail)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.WriteFile("/d/f", []byte("replaced")); err != nil {
		t.Fatal(err)
	}
	want := []string{"original", "original...", "original...!!!", "replaced"}
	if len(seen) != len(want) {
		t.Fatalf("observer saw %d writes, want %d", len(seen), len(want))
	}
	for i, w := range want {
		if string(seen[i]) != w || cap(seen[i]) != len(seen[i]) {
			t.Fatalf("write %d: observer retained %q (len %d cap %d), want %q with cap == len",
				i, seen[i], len(seen[i]), cap(seen[i]), w)
		}
	}
}
