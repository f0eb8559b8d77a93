// Package journal is the durability substrate of the NJS (the stateful heart
// of the server tier, paper §4.2, §5.5): an append-only, CRC-framed
// write-ahead journal plus a periodic snapshot/compaction scheme. The paper's
// production follow-up made the NJS keep consigned jobs across restarts; this
// package provides the log that makes that possible.
//
// # Model
//
// A Store owns one state directory holding two kinds of files:
//
//	journal-<gen>.wal    appended entries since snapshot <gen>
//	snapshot-<gen>.snap  a compacted entry stream reconstructing all state
//
// Both use the same record format, so recovery is a single replay path:
// replay the highest snapshot, then every journal file of that generation or
// later, in order. A snapshot is "just" a compacted journal — the emitter
// walks live state and writes the minimal entry sequence that rebuilds it.
//
// Snapshots are fuzzy: compaction first rotates the journal to a new
// generation and then captures state while traffic continues, so the tail
// journal may repeat mutations already reflected in the snapshot. Replay
// therefore must be idempotent — appliers skip transitions that are already
// terminal and treat file writes as last-writer-wins — and with that property
// the replayed state converges exactly to the crash-time state.
//
// # Record framing
//
// Each record is length-prefixed and checksummed:
//
//	offset 0: uint32 little-endian payload length
//	offset 4: uint64 little-endian CRC64-ECMA of the payload
//	offset 12: payload: u8 format tag, u8 Kind, the fields of that kind
//
// The fields are written with package bin's uvarint primitives — the same
// ones the stream frames and the AJO use — in the order codec.go lists them:
// no field names, no type descriptors, nothing shared between records, so
// any record decodes alone. A payload whose tag is not the current format is
// refused by name; no reader for an older format is kept.
//
// A torn tail (short frame or CRC mismatch at the end of the newest journal
// file) is truncated silently — it is the expected shape of a crash mid-write.
// Corruption anywhere else is an error.
package journal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"time"

	"unicore/internal/checksum"
)

// ErrCorrupt reports a damaged record before the journal tail.
var ErrCorrupt = errors.New("journal: corrupt record")

// headerSize is the fixed frame prefix: 4-byte length + 8-byte CRC.
const headerSize = 12

// maxRecordSize bounds a single record (a corrupted length field must not
// make the reader allocate gigabytes).
const maxRecordSize = 256 << 20

// Kind tags the payload carried by an Entry.
type Kind uint8

const (
	// KindFileWrite materialises a file with full contents (appends are
	// journaled as full-content writes so replay is idempotent).
	KindFileWrite Kind = iota + 1
	// KindFileRemove removes a file or tree.
	KindFileRemove
	// KindMkdir creates a directory chain.
	KindMkdir
	// KindRename moves a file or directory.
	KindRename
	// KindAdmit records a job admission (consign): identity, login, and the
	// full AJO as ajo.Marshal encodes it. It and the four kinds of a job's
	// later transitions carry the Stamp of the event the transition raised.
	KindAdmit
	// KindActionStart records a non-terminal action transition (queued by the
	// batch subsystem, started on the machine).
	KindActionStart
	// KindActionDone records a terminal action outcome.
	KindActionDone
	// KindInject records a dependency file staged into a not-yet-consigned
	// sub-job.
	KindInject
	// KindRemote records a sub-job consigned to a peer Usite.
	KindRemote
	// KindControl records a hold/resume/abort control transition.
	KindControl
	// KindRootDone records a job reaching its terminal aggregate status.
	KindRootDone
	// KindSeq restores the job-ID counter (snapshot bookkeeping).
	KindSeq
)

var kindNames = [...]string{
	"", "FILE_WRITE", "FILE_REMOVE", "MKDIR", "RENAME", "ADMIT",
	"ACTION_START", "ACTION_DONE", "INJECT", "REMOTE", "CONTROL",
	"ROOT_DONE", "SEQ",
}

// String renders the kind as the docs name it (ADMIT, FILE_WRITE, …).
func (k Kind) String() string {
	if int(k) < len(kindNames) && k > 0 {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// FileMutation is a journaled change to a Vsite's data space.
type FileMutation struct {
	Vsite string
	Path  string
	To    string // rename destination
	Data  []byte // full file contents for writes
}

// Stamp is where the event log (package events) placed the event a
// transition raised: the per-job and per-log sequence numbers and the time.
// The record of the transition carries it, so a transition and its event are
// journaled once and a replay restores both or neither. Seq 0 is no event: a
// snapshot's state records carry none (the ADMIT's Window holds them).
type Stamp struct {
	Seq    uint64
	Global uint64
	Time   time.Time
}

// Mark is one event of a job's retained window as a snapshot's ADMIT carries
// it: the kind of the record whose transition raised it, its stamp, and the
// event fields that record holds.
type Mark struct {
	Kind   Kind
	Stamp  Stamp
	Action string
	Status int
	Reason string
}

// Admission is a journaled job admission.
type Admission struct {
	Job          string
	Owner        string
	UID          string
	Groups       []string
	Project      string
	Vsite        string
	AJO          []byte // output of ajo.Marshal
	ConsignID    string
	ParentJob    string
	ParentAction string
	Submitted    time.Time
	Stamp        Stamp
	Window       []Mark // a snapshot's: the job's retained events, oldest first
}

// FileStat mirrors an outcome file record.
type FileStat struct {
	Path string
	Size int64
	CRC  uint64
}

// ActionEvent is a journaled per-action transition. Start events carry only
// Status; done events carry the full terminal outcome. For actions whose
// outcome holds a nested tree (sub-jobs), Tree carries the serialized
// outcome node instead of the flat fields.
type ActionEvent struct {
	Job      string
	Action   string
	Status   int
	Reason   string
	ExitCode int
	Stdout   []byte
	Stderr   []byte
	Files    []FileStat
	Started  time.Time
	Finished time.Time
	Tree     []byte
	Stamp    Stamp
}

// Injection is a dependency file staged for an unconsigned sub-job.
type Injection struct {
	Job   string
	After string
	Name  string
	Data  []byte
}

// RemoteLink records a sub-job consigned to a peer Usite.
type RemoteLink struct {
	Job       string
	Action    string
	Usite     string
	RemoteJob string
}

// ControlEvent records a hold/resume/abort transition. Status is the root
// status the control event reported.
type ControlEvent struct {
	Job    string
	Op     string
	Status int
	Stamp  Stamp
}

// RootEvent records a job's terminal aggregate status.
type RootEvent struct {
	Job      string
	Status   int
	Finished time.Time
	Stamp    Stamp
}

// Entry is one journal record. Only the payload field matching Kind is
// written: File for the four file kinds, Action for both action kinds, Seq
// for KindSeq.
type Entry struct {
	Kind    Kind
	File    *FileMutation
	Admit   *Admission
	Action  *ActionEvent
	Inject  *Injection
	Remote  *RemoteLink
	Control *ControlEvent
	Root    *RootEvent
	Seq     int64
}

// appendFrame appends one framed entry to b: the header is reserved, the
// payload encoded in place behind it, then length and checksum filled in.
func appendFrame(b []byte, e Entry) ([]byte, error) {
	start := len(b)
	var hdr [headerSize]byte
	b, err := appendPayload(append(b, hdr[:]...), e)
	if err != nil {
		return b[:start], err
	}
	payload := b[start+headerSize:]
	if len(payload) > maxRecordSize {
		return b[:start], fmt.Errorf("journal: %s entry of %d bytes exceeds the %d-byte record limit", e.Kind, len(payload), maxRecordSize)
	}
	binary.LittleEndian.PutUint32(b[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint64(b[start+4:], checksum.Checksum(payload))
	return b, nil
}

// readResult classifies what the reader found at the current offset.
type readResult int

const (
	readOK   readResult = iota
	readEOF             // clean end of stream
	readTorn            // short/garbled tail frame
)

// readStep is the most a frame read allocates ahead of the bytes it has
// actually read: a payload is read in steps that at most double what is
// already in hand, so a torn header claiming a huge length costs what the
// file holds, not what the header says.
const readStep = 64 << 10

// readFrame reads one frame from r and returns its checksummed payload. A
// clean end of input is readEOF; a short header, a length over
// maxRecordSize, a short payload or a checksum mismatch is readTorn with a
// nil error; only an I/O failure of r itself is an error.
func readFrame(r io.Reader) ([]byte, readResult, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, readEOF, nil
		}
		return nil, readTorn, tornErr(err)
	}
	length := int(binary.LittleEndian.Uint32(hdr[0:4]))
	want := binary.LittleEndian.Uint64(hdr[4:12])
	if length > maxRecordSize {
		return nil, readTorn, nil
	}
	payload := make([]byte, 0, min(length, readStep))
	for len(payload) < length {
		if len(payload) == cap(payload) {
			payload = slices.Grow(payload, min(length-len(payload), len(payload)))
		}
		n, err := io.ReadFull(r, payload[len(payload):min(cap(payload), length)])
		payload = payload[:len(payload)+n]
		if err != nil {
			return nil, readTorn, tornErr(err)
		}
	}
	if checksum.Checksum(payload) != want {
		return nil, readTorn, nil
	}
	return payload, readOK, nil
}

// tornErr maps a short read to the torn-tail verdict (nil) and passes any
// other read failure through.
func tornErr(err error) error {
	if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
		return nil
	}
	return err
}

// readEntry decodes one frame from r.
func readEntry(r io.Reader) (Entry, readResult, error) {
	payload, res, err := readFrame(r)
	if res != readOK {
		return Entry{}, res, err
	}
	// A frame that checksums correctly but does not decode is corruption
	// (decodePayload says so), not a torn tail.
	e, err := decodePayload(payload)
	return e, readOK, err
}

// validPrefix returns the byte length of the longest prefix of r that
// consists of whole, checksummed frames. Everything after it is a torn tail.
func validPrefix(r io.Reader) (int64, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var offset int64
	for {
		payload, res, err := readFrame(br)
		if res != readOK {
			return offset, err
		}
		offset += headerSize + int64(len(payload))
	}
}

// readAll replays every entry in r through fn. tolerateTail controls whether
// a torn final frame is silently dropped (journals) or an error (snapshots).
func readAll(r io.Reader, tolerateTail bool, fn func(Entry) error) error {
	br := bufio.NewReaderSize(r, 1<<16)
	for {
		e, res, err := readEntry(br)
		if err != nil {
			return err
		}
		switch res {
		case readEOF:
			return nil
		case readTorn:
			if tolerateTail {
				return nil
			}
			return fmt.Errorf("%w: torn record in snapshot", ErrCorrupt)
		}
		if err := fn(e); err != nil {
			return err
		}
	}
}
