package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"unicore/internal/bin/bintest"
)

func entryN(i int) Entry {
	return Entry{Kind: KindActionDone, Action: &ActionEvent{
		Job:      fmt.Sprintf("SITE-%06d", i),
		Action:   "run",
		Status:   4,
		Stdout:   []byte("done\n"),
		Files:    []FileStat{{Path: "result.dat", Size: 1024, CRC: 42}},
		Started:  time.Unix(100, 0).UTC(),
		Finished: time.Unix(200, 0).UTC(),
	}}
}

func collect(t *testing.T, s *Store) []Entry {
	t.Helper()
	var out []Entry
	if err := s.Replay(func(e Entry) error { out = append(out, e); return nil }); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return out
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const n = 100
	for i := 0; i < n; i++ {
		s.Append(entryN(i))
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	got := collect(t, s)
	if len(got) != n {
		t.Fatalf("replayed %d entries, want %d", len(got), n)
	}
	for i, e := range got {
		if e.Kind != KindActionDone || e.Action == nil {
			t.Fatalf("entry %d: kind %s", i, e.Kind)
		}
		if want := fmt.Sprintf("SITE-%06d", i); e.Action.Job != want {
			t.Fatalf("entry %d: job %q, want %q (order lost)", i, e.Action.Job, want)
		}
		if string(e.Action.Stdout) != "done\n" || len(e.Action.Files) != 1 || e.Action.Files[0].CRC != 42 {
			t.Fatalf("entry %d: payload mangled: %+v", i, e.Action)
		}
		if !e.Action.Started.Equal(time.Unix(100, 0).UTC()) {
			t.Fatalf("entry %d: started %v", i, e.Action.Started)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// A fresh Store over the same dir replays the same stream.
	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if got := collect(t, s2); len(got) != n {
		t.Fatalf("after reopen: %d entries, want %d", len(got), n)
	}
}

func TestAllEntryKindsRoundTrip(t *testing.T) {
	entries := []Entry{
		{Kind: KindFileWrite, File: &FileMutation{Vsite: "T3E", Path: "/uspace/J-1/in.dat", Data: []byte{1, 2, 3}}},
		{Kind: KindFileRemove, File: &FileMutation{Vsite: "T3E", Path: "/uspace/J-1/tmp"}},
		{Kind: KindMkdir, File: &FileMutation{Vsite: "T3E", Path: "/uspace/J-1/sub"}},
		{Kind: KindRename, File: &FileMutation{Vsite: "T3E", Path: "/uspace/J-1/a", To: "/uspace/J-1/b"}},
		{Kind: KindAdmit, Admit: &Admission{
			Job: "FZJ-000001", Owner: "CN=U,O=Org", UID: "u1", Groups: []string{"unicore"},
			Project: "hpc", Vsite: "T3E", AJO: []byte("ajo"), ConsignID: "c1",
			ParentJob: "FZJ-000000", ParentAction: "sub", Submitted: time.Unix(7, 0).UTC(),
		}},
		{Kind: KindActionStart, Action: &ActionEvent{Job: "FZJ-000001", Action: "run", Status: 2}},
		entryN(1),
		{Kind: KindInject, Inject: &Injection{Job: "FZJ-000001", After: "sub", Name: "dep.dat", Data: []byte("x")}},
		{Kind: KindRemote, Remote: &RemoteLink{Job: "FZJ-000001", Action: "sub", Usite: "ZIB", RemoteJob: "ZIB-000004"}},
		{Kind: KindControl, Control: &ControlEvent{Job: "FZJ-000001", Op: "hold"}},
		{Kind: KindRootDone, Root: &RootEvent{Job: "FZJ-000001", Status: 4, Finished: time.Unix(9, 0).UTC()}},
		{Kind: KindSeq, Seq: 17},
	}
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	for _, e := range entries {
		s.Append(e)
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	got := collect(t, s)
	if len(got) != len(entries) {
		t.Fatalf("replayed %d, want %d", len(got), len(entries))
	}
	for i, e := range got {
		if !reflect.DeepEqual(e, entries[i]) {
			t.Errorf("entry %d (%s) changed in the journal:\nwrote: %+v\nread:  %+v", i, entries[i].Kind, entries[i], e)
		}
	}
}

// payloadKinds maps each payload field of Entry to the kinds that carry it.
// TestEveryPayloadFieldSurvives ranges over Entry's fields by reflection, so
// a payload pointer added to Entry without a row here fails that test.
var payloadKinds = map[string][]Kind{
	"File":    {KindFileWrite, KindFileRemove, KindMkdir, KindRename},
	"Admit":   {KindAdmit},
	"Action":  {KindActionStart, KindActionDone},
	"Inject":  {KindInject},
	"Remote":  {KindRemote},
	"Control": {KindControl},
	"Root":    {KindRootDone},
}

// TestEveryPayloadFieldSurvives is the field-coverage gate for the hand
// codec: every exported field of every payload struct is set by reflection
// (bintest.Fill), framed, read back and compared — a field added to a payload
// struct and not carried by codec.go comes back zero and fails here by name.
// It also pins that every Kind has a row, so a new Kind needs a codec case.
func TestEveryPayloadFieldSurvives(t *testing.T) {
	covered := map[Kind]bool{KindSeq: true}
	et := reflect.TypeOf(Entry{})
	for i := 0; i < et.NumField(); i++ {
		f := et.Field(i)
		if f.Type.Kind() != reflect.Pointer {
			continue
		}
		kinds, ok := payloadKinds[f.Name]
		if !ok {
			t.Errorf("Entry.%s has no row in payloadKinds: which kinds carry it?", f.Name)
			continue
		}
		for _, k := range kinds {
			covered[k] = true
			payload := reflect.New(f.Type.Elem())
			bintest.Fill(t, payload.Interface())
			in := Entry{Kind: k}
			reflect.ValueOf(&in).Elem().Field(i).Set(payload)
			buf, err := appendFrame(nil, in)
			if err != nil {
				t.Fatalf("%s: %v", k, err)
			}
			out, res, err := readEntry(bytes.NewReader(buf))
			if err != nil || res != readOK {
				t.Fatalf("%s: readEntry: res=%v err=%v", k, res, err)
			}
			if !reflect.DeepEqual(in, out) {
				t.Errorf("%s: a field did not survive the round trip:\nwrote: %+v\nread:  %+v", k, payload.Elem().Interface(), reflect.ValueOf(out).Field(i).Elem().Interface())
			}
		}
	}
	seq := Entry{Kind: KindSeq, Seq: -17}
	buf, err := appendFrame(nil, seq)
	if err != nil {
		t.Fatal(err)
	}
	if out, _, err := readEntry(bytes.NewReader(buf)); err != nil || out != seq {
		t.Errorf("SEQ: read %+v, %v", out, err)
	}
	for k := KindFileWrite; int(k) < len(kindNames); k++ {
		if !covered[k] {
			t.Errorf("%s is in no row of payloadKinds", k)
		}
	}
	if _, err := appendFrame(nil, Entry{Kind: Kind(len(kindNames))}); err == nil {
		t.Error("an entry of a kind past the last one was framed")
	}
	if _, err := appendFrame(nil, Entry{Kind: KindAdmit}); err == nil {
		t.Error("an ADMIT entry without an Admission was framed")
	}
}

// TestForeignFormatIsRefusedByName: a record that checksums but leads with a
// tag this build does not write — a journal from before the binary format,
// or from a later one — stops replay with an error that names both formats.
// No reader for any other format is kept, and nothing is skipped.
func TestForeignFormatIsRefusedByName(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	s.Append(entryN(0))
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	path := filepath.Join(dir, journalName(0))
	old := frame([]byte("\x7f\x03\x01\x01\x05Entry\x01\xff\x80")) // how a gob stream began
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(old); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	n := 0
	err = s2.Replay(func(Entry) error { n++; return nil })
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "format tag 0x7f") || !strings.Contains(err.Error(), fmt.Sprintf("journal format 0x%02x", formatTag)) {
		t.Fatalf("replay over a foreign-format record: %v", err)
	}
	if n != 1 {
		t.Fatalf("replayed %d entries before the foreign record, want 1", n)
	}
}

func TestTornTailIsDropped(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 10; i++ {
		s.Append(entryN(i))
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Tear the final record: chop a few bytes off the journal file.
	path := filepath.Join(dir, journalName(0))
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatalf("Stat: %v", err)
	}
	if err := os.Truncate(path, fi.Size()-5); err != nil {
		t.Fatalf("Truncate: %v", err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	got := collect(t, s2)
	if len(got) != 9 {
		t.Fatalf("replayed %d entries after torn tail, want 9", len(got))
	}
}

// TestTornHugeHeaderCostsWhatTheFileHolds tears the journal after a whole
// header that claims a 200 MiB payload with nothing behind it. Recovery must
// still truncate it as a torn tail, and neither the scan Open runs nor a
// replay of the untruncated bytes may allocate for the claimed length: a
// frame read grows with the bytes it actually reads.
func TestTornHugeHeaderCostsWhatTheFileHolds(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 3; i++ {
		s.Append(entryN(i))
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	path := filepath.Join(dir, journalName(0))
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[:], 200<<20)
	torn := append(bytes.Clone(whole), hdr[:]...)
	if err := os.WriteFile(path, torn, 0o600); err != nil {
		t.Fatal(err)
	}

	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	replayed := 0
	if n := allocated(func() {
		err = readAll(bytes.NewReader(torn), true, func(Entry) error { replayed++; return nil })
	}); n >= 1<<20 {
		t.Errorf("replaying the torn tail allocated %d bytes, want < 1 MiB", n)
	}
	if err != nil || replayed != 3 {
		t.Fatalf("replay of the torn journal: %d entries, %v; want 3, nil", replayed, err)
	}
	var s2 *Store
	if n := allocated(func() { s2, err = Open(dir) }); n >= 1<<20 {
		t.Errorf("recovering the torn journal allocated %d bytes, want < 1 MiB", n)
	}
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if fi, err := os.Stat(path); err != nil || fi.Size() != int64(len(whole)) {
		t.Fatalf("journal after recovery: %v, %v; want the torn header truncated to %d bytes", fi.Size(), err, len(whole))
	}
	if got := collect(t, s2); len(got) != 3 {
		t.Fatalf("replayed %d entries after recovery, want 3", len(got))
	}
}

// TestReopenAfterTornTailKeepsNewEntries is the regression for appending
// behind a torn frame: Open must truncate the garbage so entries written by
// the recovered process are reachable on the NEXT replay, not stranded
// behind it.
func TestReopenAfterTornTailKeepsNewEntries(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	s.Append(entryN(0))
	s.Append(entryN(1))
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	path := filepath.Join(dir, journalName(0))
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatalf("Stat: %v", err)
	}
	if err := os.Truncate(path, fi.Size()-3); err != nil { // tear entry 1
		t.Fatalf("Truncate: %v", err)
	}

	// First restart: replays entry 0, then journals new work.
	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen 1: %v", err)
	}
	if got := collect(t, s2); len(got) != 1 {
		t.Fatalf("after tear: %d entries, want 1", len(got))
	}
	s2.Append(entryN(2))
	if err := s2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Second restart: the new entry must not be stranded behind the old
	// torn frame.
	s3, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen 2: %v", err)
	}
	defer s3.Close()
	got := collect(t, s3)
	if len(got) != 2 {
		t.Fatalf("after reopen: %d entries, want 2 (entry appended post-recovery was lost)", len(got))
	}
	if got[1].Action.Job != "SITE-000002" {
		t.Fatalf("second entry = %s, want SITE-000002", got[1].Action.Job)
	}
}

func TestCorruptMidStreamIsAnError(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 10; i++ {
		s.Append(entryN(i))
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Flip a payload byte in the middle of the file. The reader sees a CRC
	// mismatch before the tail: with tail tolerance it stops there (data
	// after the flip is unreachable), which must lose entries, not invent
	// them.
	path := filepath.Join(dir, journalName(0))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	got := collect(t, s2)
	if len(got) >= 10 {
		t.Fatalf("replayed %d entries from corrupted journal", len(got))
	}
}

func TestCompactRetiresOldGenerations(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	for i := 0; i < 50; i++ {
		s.Append(entryN(i))
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if n := s.AppendsSinceCompact(); n != 50 {
		t.Fatalf("AppendsSinceCompact = %d", n)
	}

	// Snapshot: pretend the live state compacts to 3 entries.
	err = s.Compact(func(append func(Entry) error) error {
		for i := 0; i < 3; i++ {
			if err := append(entryN(1000 + i)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if n := s.AppendsSinceCompact(); n != 0 {
		t.Fatalf("AppendsSinceCompact after compaction = %d", n)
	}

	// Tail entries after the snapshot.
	s.Append(entryN(2000))
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}

	got := collect(t, s)
	if len(got) != 4 {
		t.Fatalf("replayed %d entries, want 3 snapshot + 1 tail", len(got))
	}
	if got[0].Action.Job != "SITE-001000" || got[3].Action.Job != "SITE-002000" {
		t.Fatalf("wrong replay order: %s ... %s", got[0].Action.Job, got[3].Action.Job)
	}

	// The original 50-entry journal is gone.
	if _, err := os.Stat(filepath.Join(dir, journalName(0))); !os.IsNotExist(err) {
		t.Fatalf("journal-0 still present after compaction")
	}
}

// TestStaleSnapshotTempDoesNotBreakRecovery is the regression for a crash
// mid-compaction: a leftover snapshot-NNNNNNNN.snap.tmp must neither be
// mistaken for a real snapshot (the lax-Sscanf bug made Replay try to open
// the nonexistent renamed name) nor survive the next Open.
func TestStaleSnapshotTempDoesNotBreakRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 5; i++ {
		s.Append(entryN(i))
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Simulate a compaction that died between writing the temp snapshot and
	// renaming it into place.
	stale := filepath.Join(dir, snapshotName(2)+".tmp")
	if err := os.WriteFile(stale, []byte("half-written snapshot"), 0o600); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen with stale temp: %v", err)
	}
	defer s2.Close()
	if got := collect(t, s2); len(got) != 5 {
		t.Fatalf("replayed %d entries, want 5", len(got))
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale temp snapshot still present after Open")
	}
}

func TestScanRejectsNearMissNames(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{
		journalName(1), snapshotName(1), // the only two that must match
		snapshotName(2) + ".tmp", journalName(2) + ".bak",
		"x" + journalName(3), "journal-1.wal", "snapshot-.snap",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o600); err != nil {
			t.Fatalf("WriteFile %s: %v", name, err)
		}
	}
	journals, snapshots, err := scan(dir)
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if len(journals) != 1 || journals[0] != 1 {
		t.Fatalf("journals = %v, want [1]", journals)
	}
	if len(snapshots) != 1 || snapshots[0] != 1 {
		t.Fatalf("snapshots = %v, want [1]", snapshots)
	}
}

func TestConcurrentAppendersLoseNothing(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	const workers, each = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				s.Append(entryN(w*each + i))
			}
		}(w)
	}
	wg.Wait()
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if got := collect(t, s); len(got) != workers*each {
		t.Fatalf("replayed %d entries, want %d", len(got), workers*each)
	}
}

// TestAppendBlocksAtTheBoundAndLosesNothing drives a writer whose file cannot
// keep up — the write end of a pipe nobody reads — until the queue reaches
// maxPendingBytes: Append must then stop accepting (not queue without bound,
// not drop), resume once the reader drains the pipe, and every entry must
// come out the other end, in order.
func TestAppendBlocksAtTheBoundAndLosesNothing(t *testing.T) {
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	w := startWriter(pw)

	// 1 MiB entries: the pipe takes a few hundred KiB, the flusher holds one
	// batch in flight, the queue fills after ~maxPendingBytes of them.
	const total = 3 * maxPendingBytes >> 20
	blob := bytes.Repeat([]byte{0xab}, 1<<20)
	var accepted atomic.Int64
	producerDone := make(chan struct{})
	go func() {
		defer close(producerDone)
		for i := 0; i < total; i++ {
			w.Append(Entry{Kind: KindFileWrite, File: &FileMutation{Path: fmt.Sprintf("f%03d", i), Data: blob}})
			accepted.Add(1)
		}
	}()

	// Wait for the producer to stall: accepted stops moving short of total.
	stalledAt := int64(-1)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		n := accepted.Load()
		time.Sleep(50 * time.Millisecond)
		if n > 0 && n == accepted.Load() {
			stalledAt = n
			break
		}
	}
	if stalledAt < 0 || stalledAt >= total {
		t.Fatalf("producer never stalled (accepted %d of %d): the queue is not bounded", accepted.Load(), total)
	}
	w.mu.Lock()
	queued := w.queued
	w.mu.Unlock()
	// The bound may be overshot by the one entry that crossed it.
	if limit := maxPendingBytes + len(blob) + 256; queued > limit {
		t.Fatalf("writer holds %d bytes with the producer stalled, bound is %d", queued, maxPendingBytes)
	}
	select {
	case <-producerDone:
		t.Fatal("producer finished while the pipe was blocked")
	default:
	}

	// Drain: every entry arrives, in order, and the producer finishes.
	got := 0
	readDone := make(chan error, 1)
	go func() {
		readDone <- readAll(pr, false, func(e Entry) error {
			if want := fmt.Sprintf("f%03d", got); e.File == nil || e.File.Path != want || len(e.File.Data) != len(blob) {
				return fmt.Errorf("entry %d: got %+v, want path %s", got, e.Kind, want)
			}
			got++
			return nil
		})
	}()
	<-producerDone
	w.mu.Lock()
	for w.flushed < w.appended && w.err == nil {
		w.cond.Wait()
	}
	werr := w.err
	w.mu.Unlock()
	if werr != nil {
		t.Fatalf("writer error: %v", werr)
	}
	_ = w.Close() // fsync of a pipe fails; the entries are already written
	if err := <-readDone; err != nil {
		t.Fatalf("reading the pipe back: %v", err)
	}
	if got != total {
		t.Fatalf("read %d entries back, appended %d", got, total)
	}
}

// TestAppendAfterWriteErrorDropsInsteadOfBlocking: once the flusher has died
// on a write error nobody will drain the queue, so Append must drop — even
// with the queue over its bound — rather than wait forever.
func TestAppendAfterWriteErrorDropsInsteadOfBlocking(t *testing.T) {
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	w := startWriter(pw)
	pr.Close() // every write now fails with EPIPE
	blob := bytes.Repeat([]byte{1}, 1<<20)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2*maxPendingBytes>>20; i++ {
			w.Append(Entry{Kind: KindFileWrite, File: &FileMutation{Path: "f", Data: blob}})
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Append blocked on a writer whose flusher is dead")
	}
	if err := w.Sync(); err == nil {
		t.Fatal("Sync after a failed write reported success")
	}
	_ = w.Close()
}

// memFile is a journal file in memory whose first fsync fails, as a disk's
// writeback error does: reported once, and nil on every fsync after it.
type memFile struct {
	mu    sync.Mutex
	data  bytes.Buffer
	syncs int
}

func (f *memFile) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.data.Write(p)
}

func (f *memFile) Sync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.syncs++; f.syncs == 1 {
		return errors.New("fsync: input/output error")
	}
	return nil
}

func (f *memFile) Close() error { return nil }

// TestFailedFsyncIsSticky: once an fsync fails, the entries it covered may be
// gone, and a retried fsync that returns nil does not bring them back. So the
// Sync that saw the failure errors, every later Sync errors without trusting
// another fsync, and Append stops queueing work no fsync will cover.
func TestFailedFsyncIsSticky(t *testing.T) {
	f := &memFile{}
	w := startWriter(f)
	w.Append(entryN(1))
	if err := w.Sync(); err == nil {
		t.Fatal("the Sync whose fsync failed reported success")
	}
	for i := 1; i <= 3; i++ {
		if err := w.Sync(); err == nil {
			t.Fatalf("Sync %d after the failed fsync reported success", i)
		}
	}
	w.Append(entryN(2))
	w.mu.Lock()
	appended := w.appended
	w.mu.Unlock()
	if appended != 1 {
		t.Errorf("Append queued an entry after the failed fsync (%d appended)", appended)
	}
	if err := w.Close(); err == nil {
		t.Error("Close after the failed fsync reported success")
	}
}

// TestAppendAfterCloseFailsSync: an entry appended after Close can never
// reach the file, so the next Sync must not report it durable. Closing with
// nothing appended afterwards keeps Sync at nil.
func TestAppendAfterCloseFailsSync(t *testing.T) {
	for _, late := range []bool{false, true} {
		s, err := Open(t.TempDir())
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		s.Append(entryN(1))
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if late {
			s.Append(entryN(2))
		}
		if err := s.Sync(); (err != nil) != late {
			t.Errorf("append after close = %v: Sync = %v", late, err)
		}
	}
}

// BenchmarkJournalAppend measures the producer-side cost of an append: the
// enqueue that runs on the NJS transition path while the flusher goroutine
// does the I/O.
func BenchmarkJournalAppend(b *testing.B) {
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatalf("Open: %v", err)
	}
	defer s.Close()
	e := entryN(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Append(e)
	}
	b.StopTimer()
	if err := s.Sync(); err != nil {
		b.Fatalf("Sync: %v", err)
	}
}

// BenchmarkJournalAppendParallel is the contended shape: many NJS operations
// appending transitions at once.
func BenchmarkJournalAppendParallel(b *testing.B) {
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatalf("Open: %v", err)
	}
	defer s.Close()
	e := entryN(1)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			s.Append(e)
		}
	})
	b.StopTimer()
	if err := s.Sync(); err != nil {
		b.Fatalf("Sync: %v", err)
	}
}
