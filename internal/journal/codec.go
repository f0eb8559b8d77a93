package journal

import (
	"fmt"

	"unicore/internal/bin"
)

// formatTag leads every record payload. It names the layout below; a change
// to the fields of any kind takes a new tag, and a reader refuses a tag it
// was not built for instead of guessing.
const formatTag byte = 0x01

// appendPayload encodes e behind b: format tag, kind, then the fields of the
// one payload struct that kind carries, in declaration order.
func appendPayload(b []byte, e Entry) ([]byte, error) {
	b = append(b, formatTag, byte(e.Kind))
	switch e.Kind {
	case KindFileWrite, KindFileRemove, KindMkdir, KindRename:
		f := e.File
		if f == nil {
			return b, errNoPayload(e.Kind)
		}
		b = bin.AppendStr(b, f.Vsite)
		b = bin.AppendStr(b, f.Path)
		b = bin.AppendStr(b, f.To)
		b = bin.AppendBytes(b, f.Data)
	case KindAdmit:
		a := e.Admit
		if a == nil {
			return b, errNoPayload(e.Kind)
		}
		b = bin.AppendStr(b, a.Job)
		b = bin.AppendStr(b, a.Owner)
		b = bin.AppendStr(b, a.UID)
		b = bin.AppendStrs(b, a.Groups)
		b = bin.AppendStr(b, a.Project)
		b = bin.AppendStr(b, a.Vsite)
		b = bin.AppendBytes(b, a.AJO)
		b = bin.AppendStr(b, a.ConsignID)
		b = bin.AppendStr(b, a.ParentJob)
		b = bin.AppendStr(b, a.ParentAction)
		b = bin.AppendTime(b, a.Submitted)
	case KindActionStart, KindActionDone:
		a := e.Action
		if a == nil {
			return b, errNoPayload(e.Kind)
		}
		b = bin.AppendStr(b, a.Job)
		b = bin.AppendStr(b, a.Action)
		b = bin.AppendVarint(b, int64(a.Status))
		b = bin.AppendStr(b, a.Reason)
		b = bin.AppendVarint(b, int64(a.ExitCode))
		b = bin.AppendBytes(b, a.Stdout)
		b = bin.AppendBytes(b, a.Stderr)
		b = bin.AppendUvarint(b, uint64(len(a.Files)))
		for _, f := range a.Files {
			b = bin.AppendStr(b, f.Path)
			b = bin.AppendVarint(b, f.Size)
			b = bin.AppendUvarint(b, f.CRC)
		}
		b = bin.AppendTime(b, a.Started)
		b = bin.AppendTime(b, a.Finished)
		b = bin.AppendBytes(b, a.Tree)
	case KindInject:
		in := e.Inject
		if in == nil {
			return b, errNoPayload(e.Kind)
		}
		b = bin.AppendStr(b, in.Job)
		b = bin.AppendStr(b, in.After)
		b = bin.AppendStr(b, in.Name)
		b = bin.AppendBytes(b, in.Data)
	case KindRemote:
		l := e.Remote
		if l == nil {
			return b, errNoPayload(e.Kind)
		}
		b = bin.AppendStr(b, l.Job)
		b = bin.AppendStr(b, l.Action)
		b = bin.AppendStr(b, l.Usite)
		b = bin.AppendStr(b, l.RemoteJob)
	case KindControl:
		c := e.Control
		if c == nil {
			return b, errNoPayload(e.Kind)
		}
		b = bin.AppendStr(b, c.Job)
		b = bin.AppendStr(b, c.Op)
	case KindRootDone:
		d := e.Root
		if d == nil {
			return b, errNoPayload(e.Kind)
		}
		b = bin.AppendStr(b, d.Job)
		b = bin.AppendVarint(b, int64(d.Status))
		b = bin.AppendTime(b, d.Finished)
	case KindSeq:
		b = bin.AppendVarint(b, e.Seq)
	case KindJobEvent:
		ev := e.Event
		if ev == nil {
			return b, errNoPayload(e.Kind)
		}
		b = bin.AppendStr(b, ev.Owner)
		b = bin.AppendStr(b, ev.Job)
		b = bin.AppendUvarint(b, ev.Seq)
		b = bin.AppendUvarint(b, ev.Global)
		b = bin.AppendStr(b, ev.Origin)
		b = bin.AppendStr(b, ev.Type)
		b = bin.AppendStr(b, ev.Action)
		b = bin.AppendVarint(b, int64(ev.Status))
		b = bin.AppendStr(b, ev.Reason)
		b = bin.AppendTime(b, ev.Time)
		b = bin.AppendBool(b, ev.Terminal)
	default:
		return b, fmt.Errorf("journal: encoding entry of unknown %s", e.Kind)
	}
	return b, nil
}

func errNoPayload(k Kind) error {
	return fmt.Errorf("journal: %s entry without its payload", k)
}

// decodePayload is appendPayload's inverse. The entry's byte fields are
// views into p, which the caller must not reuse. Any fault — a foreign
// format tag, an unknown kind, a short or over-long field list — is
// ErrCorrupt: p passed its checksum, so it is what was written.
func decodePayload(p []byte) (Entry, error) {
	if len(p) < 2 {
		return Entry{}, fmt.Errorf("%w: %d-byte payload", ErrCorrupt, len(p))
	}
	if p[0] != formatTag {
		return Entry{}, fmt.Errorf("%w: record has format tag 0x%02x, this build reads journal format 0x%02x", ErrCorrupt, p[0], formatTag)
	}
	e := Entry{Kind: Kind(p[1])}
	r := bin.NewReader(p[2:])
	switch e.Kind {
	case KindFileWrite, KindFileRemove, KindMkdir, KindRename:
		e.File = &FileMutation{Vsite: r.Str(), Path: r.Str(), To: r.Str(), Data: r.Blob()}
	case KindAdmit:
		e.Admit = &Admission{
			Job: r.Str(), Owner: r.Str(), UID: r.Str(), Groups: r.Strs(),
			Project: r.Str(), Vsite: r.Str(), AJO: r.Blob(), ConsignID: r.Str(),
			ParentJob: r.Str(), ParentAction: r.Str(), Submitted: r.Time(),
		}
	case KindActionStart, KindActionDone:
		a := &ActionEvent{
			Job: r.Str(), Action: r.Str(), Status: int(r.Varint()), Reason: r.Str(),
			ExitCode: int(r.Varint()), Stdout: r.Blob(), Stderr: r.Blob(),
		}
		if n := r.Count(); n > 0 {
			a.Files = make([]FileStat, 0, n)
			for i := 0; i < n && !r.Failed(); i++ {
				a.Files = append(a.Files, FileStat{Path: r.Str(), Size: r.Varint(), CRC: r.Uvarint()})
			}
		}
		a.Started, a.Finished, a.Tree = r.Time(), r.Time(), r.Blob()
		e.Action = a
	case KindInject:
		e.Inject = &Injection{Job: r.Str(), After: r.Str(), Name: r.Str(), Data: r.Blob()}
	case KindRemote:
		e.Remote = &RemoteLink{Job: r.Str(), Action: r.Str(), Usite: r.Str(), RemoteJob: r.Str()}
	case KindControl:
		e.Control = &ControlEvent{Job: r.Str(), Op: r.Str()}
	case KindRootDone:
		e.Root = &RootEvent{Job: r.Str(), Status: int(r.Varint()), Finished: r.Time()}
	case KindSeq:
		e.Seq = r.Varint()
	case KindJobEvent:
		e.Event = &JobEventRecord{
			Owner: r.Str(), Job: r.Str(), Seq: r.Uvarint(), Global: r.Uvarint(),
			Origin: r.Str(), Type: r.Str(), Action: r.Str(), Status: int(r.Varint()),
			Reason: r.Str(), Time: r.Time(), Terminal: r.Bool(),
		}
	default:
		return Entry{}, fmt.Errorf("%w: unknown %s", ErrCorrupt, e.Kind)
	}
	if err := r.Err(); err != nil {
		return Entry{}, fmt.Errorf("%w: %s record: %v", ErrCorrupt, e.Kind, err)
	}
	return e, nil
}

// weight is what a queued entry counts against the writer's bound: the
// blobs it pins, plus a flat allowance for the structs and short strings.
func (e *Entry) weight() int {
	const flat = 256
	switch {
	case e.File != nil:
		return flat + len(e.File.Data)
	case e.Admit != nil:
		return flat + len(e.Admit.AJO)
	case e.Action != nil:
		return flat + len(e.Action.Stdout) + len(e.Action.Stderr) + len(e.Action.Tree)
	case e.Inject != nil:
		return flat + len(e.Inject.Data)
	}
	return flat
}
