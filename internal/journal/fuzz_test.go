package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc64"
	"reflect"
	"testing"
	"time"
)

// frame wraps an arbitrary payload in a valid length+CRC64 header — what a
// record of any format, or a bit-exact corruption, looks like on disk.
func frame(payload []byte) []byte {
	b := make([]byte, headerSize, headerSize+len(payload))
	binary.LittleEndian.PutUint32(b[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint64(b[4:12], crc64.Checksum(payload, crcTable))
	return append(b, payload...)
}

// fuzzSeedFrames builds a well-formed two-frame journal image for seeding:
// an admission followed by a control event, exactly as the writer frames
// them (4-byte LE length, 8-byte LE CRC64-ECMA, tagged binary payload).
func fuzzSeedFrames(t testing.TB) []byte {
	var buf []byte
	entries := []Entry{
		{Kind: KindAdmit, Admit: &Admission{
			Job: "FZJ-1", Owner: "CN=Alice,O=FZJ", UID: "alice",
			Vsite: "T3E", AJO: []byte("payload"), Submitted: time.Unix(919814400, 0),
		}},
		{Kind: KindControl, Control: &ControlEvent{Job: "FZJ-1", Op: "abort"}},
	}
	for _, e := range entries {
		var err error
		if buf, err = appendFrame(buf, e); err != nil {
			t.Fatalf("encoding seed entry: %v", err)
		}
	}
	return buf
}

// FuzzFrameReplay hammers the CRC64 frame scanner and the replay loop with
// arbitrary byte streams — the exact inputs a crashed NJS hands them at
// recovery time. Invariants: no panic, validPrefix stays within bounds and
// never errors, a torn-tail-tolerant replay accepts any input that is not
// positively corrupt, and the declared valid prefix replays without a torn
// record — every checksummed frame in it either decodes or is ErrCorrupt,
// never a silently shortened tail.
func FuzzFrameReplay(f *testing.F) {
	valid := fuzzSeedFrames(f)
	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // torn tail mid-frame
	flipped := bytes.Clone(valid)
	flipped[headerSize+1] ^= 0xff // corrupt first payload byte: CRC mismatch
	f.Add(flipped)
	short := bytes.Clone(valid[:headerSize-2]) // torn header
	f.Add(short)
	f.Add(append(bytes.Clone(valid), frame([]byte{0x7f, byte(KindSeq), 2})...))         // foreign format tag
	f.Add(append(bytes.Clone(valid), frame([]byte{formatTag, byte(KindSeq), 2, 9})...)) // trailing byte
	f.Add(frame([]byte{formatTag, 0xee}))                                               // unknown kind

	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := validPrefix(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("validPrefix errored: %v", err)
		}
		if n < 0 || n > int64(len(data)) {
			t.Fatalf("validPrefix returned %d for %d input bytes", n, len(data))
		}

		// Tolerant replay (the journal path) must accept anything that is
		// not positively corrupt — i.e. the only acceptable error is a
		// checksummed frame whose payload does not decode.
		tolerant := 0
		err = readAll(bytes.NewReader(data), true, func(Entry) error { tolerant++; return nil })
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("tolerant replay failed with a non-corruption error: %v", err)
		}

		// The valid prefix consists of whole frames only: a strict
		// (snapshot-style) replay of it must never report a torn record,
		// and it yields exactly the entries the tolerant replay did — a
		// frame that checksums is decoded or refused, never skipped.
		strict := 0
		serr := readAll(bytes.NewReader(data[:n]), false, func(Entry) error { strict++; return nil })
		if serr != nil && !errors.Is(serr, ErrCorrupt) {
			t.Fatalf("strict replay of the valid prefix found a torn record: %v", serr)
		}
		if strict != tolerant || (serr == nil) != (err == nil) {
			t.Fatalf("strict replay of the prefix: %d entries, %v; tolerant replay: %d entries, %v", strict, serr, tolerant, err)
		}
	})
}

// entryOfKind builds a fully populated entry of one kind from fuzz inputs.
func entryOfKind(k Kind, s1, s2, s3 string, data []byte, n int64) Entry {
	if len(data) == 0 {
		data = nil // the decoder yields nil for an empty blob
	}
	at := time.Unix(0, n).UTC()
	if n == 0 {
		at = time.Time{}
	}
	e := Entry{Kind: k}
	switch k {
	case KindFileWrite, KindFileRemove, KindMkdir, KindRename:
		e.File = &FileMutation{Vsite: s1, Path: s2, To: s3, Data: data}
	case KindAdmit:
		e.Admit = &Admission{Job: s1, Owner: s2, UID: s3, Groups: []string{s1, s3}, Project: s2,
			Vsite: s3, AJO: data, ConsignID: s1, ParentJob: s2, ParentAction: s3, Submitted: at}
	case KindActionStart, KindActionDone:
		e.Action = &ActionEvent{Job: s1, Action: s2, Status: int(n), Reason: s3, ExitCode: int(-n),
			Stdout: data, Stderr: data, Files: []FileStat{{Path: s1, Size: n, CRC: uint64(n)}},
			Started: at, Finished: at, Tree: data}
	case KindInject:
		e.Inject = &Injection{Job: s1, After: s2, Name: s3, Data: data}
	case KindRemote:
		e.Remote = &RemoteLink{Job: s1, Action: s2, Usite: s3, RemoteJob: s1 + s2}
	case KindControl:
		e.Control = &ControlEvent{Job: s1, Op: s2}
	case KindRootDone:
		e.Root = &RootEvent{Job: s1, Status: int(n), Finished: at}
	case KindSeq:
		e.Seq = n
	case KindJobEvent:
		e.Event = &JobEventRecord{Owner: s1, Job: s2, Seq: uint64(n), Global: uint64(n) + 1, Origin: s3,
			Type: s1, Action: s2, Status: int(n), Reason: s3, Time: at, Terminal: n%2 == 0}
	}
	return e
}

// FuzzEncodeDecodeRoundTrip checks that any record the writer can frame, of
// any kind, comes back verbatim through the reader, and that the same frame
// with one byte appended to its payload (checksum recomputed) is ErrCorrupt
// rather than the same entry with the tail ignored.
func FuzzEncodeDecodeRoundTrip(f *testing.F) {
	for k := KindFileWrite; k <= KindJobEvent; k++ { // one seed per Kind
		f.Add(uint8(k), "FZJ-1", "CN=Alice,O=FZJ", "alice", []byte("ajo"), int64(7))
	}
	f.Add(uint8(KindAdmit), "", "", "", []byte(nil), int64(0))
	f.Fuzz(func(t *testing.T, kind uint8, s1, s2, s3 string, data []byte, n int64) {
		k := Kind(kind)
		if k < KindFileWrite || k > KindJobEvent {
			if _, err := appendFrame(nil, Entry{Kind: k}); err == nil {
				t.Fatalf("entry of unknown %s framed", k)
			}
			return
		}
		in := entryOfKind(k, s1, s2, s3, data, n)
		buf, err := appendFrame(nil, in)
		if err != nil {
			t.Fatalf("appendFrame: %v", err)
		}
		out, res, err := readEntry(bytes.NewReader(buf))
		if err != nil || res != readOK {
			t.Fatalf("readEntry: res=%v err=%v", res, err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("round trip mangled the entry:\nin:  %+v\nout: %+v", in, out)
		}
		longer := frame(append(bytes.Clone(buf[headerSize:]), 0))
		if _, _, err := readEntry(bytes.NewReader(longer)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("payload with a trailing byte: %v, want ErrCorrupt", err)
		}
	})
}
