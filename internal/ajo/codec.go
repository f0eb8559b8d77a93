package ajo

import (
	"fmt"
	"sort"
	"time"

	"unicore/internal/bin"
	"unicore/internal/core"
)

// The AJO *is* the UNICORE protocol (§5.3): "the UNICORE protocol is
// implemented as a Java object called the abstract job object". Marshal and
// Unmarshal are its one wire form — what a client consigns, what a gateway
// forwards to a peer, what the NJS writes into its journal:
//
//	u8 format tag, then one action:
//	action  := u8 kind code, string id, string name, kind-specific fields
//	job     := target, user DN, project, site security, actions, dependencies
//
// in package bin's primitives (uvarint lengths and counts, zig-zag varint
// integers, strings and inline import data as raw bytes). The recursion of
// Figure 3 is the recursion of the encoding: a job's action list holds whole
// actions, among them further jobs. Map entries are written in key order, so
// equal actions encode to equal bytes.
//
// The outcome tree that answers an AJO (MarshalOutcome, at the end of this
// file) is encoded the same way behind its own format tag.
//
// The self-describing JSON form (json.go) is for people, not for the wire.

// formatTag leads every binary AJO, outcomeTag every binary outcome tree. A
// reader refuses any other value by name rather than guessing at the bytes
// behind it.
const (
	formatTag  byte = 0x01
	outcomeTag byte = 0x02
)

// maxDepth bounds job-group nesting on both sides, so a hostile document
// cannot drive the decoder's recursion arbitrarily deep.
const maxDepth = 64

// Kind codes: the one-byte discriminator in front of every encoded action.
// They are wire format — append, never renumber.
const (
	codeJob byte = iota + 1
	codeExecute
	codeCompile
	codeLink
	codeUser
	codeScript
	codeImport
	codeExport
	codeTransfer
	codeControl
	codeList
	codeQuery
)

// Marshal encodes any action (including a whole recursive AbstractJob) in
// the binary wire form.
func Marshal(a Action) ([]byte, error) {
	b := make([]byte, 0, 512)
	return appendAction(append(b, formatTag), a, 0)
}

// Unmarshal decodes the binary wire form into the concrete action type. The
// result shares no memory with data.
func Unmarshal(data []byte) (Action, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("ajo: empty document")
	}
	if data[0] != formatTag {
		return nil, fmt.Errorf("ajo: document has format tag 0x%02x, this build reads binary format 0x%02x", data[0], formatTag)
	}
	r := bin.NewReader(data[1:])
	a, err := readAction(r, 0)
	if err != nil {
		return nil, err
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("ajo: decoding %s: %w", a.Kind(), err)
	}
	return a, nil
}

func appendHeader(b []byte, code byte, h Header) []byte {
	b = append(b, code)
	b = bin.AppendStr(b, string(h.ActionID))
	return bin.AppendStr(b, h.ActionName)
}

func appendTaskBase(b []byte, code byte, t *TaskBase) []byte {
	b = appendHeader(b, code, t.Header)
	b = bin.AppendVarint(b, int64(t.Resources.Processors))
	b = bin.AppendVarint(b, int64(t.Resources.RunTime))
	b = bin.AppendVarint(b, int64(t.Resources.MemoryMB))
	b = bin.AppendVarint(b, int64(t.Resources.PermDiskMB))
	return bin.AppendVarint(b, int64(t.Resources.TempDiskMB))
}

func appendTarget(b []byte, t core.Target) []byte {
	b = bin.AppendStr(b, string(t.Usite))
	return bin.AppendStr(b, string(t.Vsite))
}

func appendStrMap(b []byte, m map[string]string) []byte {
	b = bin.AppendUvarint(b, uint64(len(m)))
	if len(m) == 0 {
		return b
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b = bin.AppendStr(b, k)
		b = bin.AppendStr(b, m[k])
	}
	return b
}

func appendAction(b []byte, a Action, depth int) ([]byte, error) {
	switch t := a.(type) {
	case *AbstractJob:
		if depth >= maxDepth {
			return nil, fmt.Errorf("ajo: job %s: nested deeper than %d job groups", t.ActionID, maxDepth)
		}
		b = appendHeader(b, codeJob, t.Header)
		b = appendTarget(b, t.Target)
		b = bin.AppendStr(b, string(t.UserDN))
		b = bin.AppendStr(b, t.Project)
		b = appendStrMap(b, t.SiteSecurity)
		b = bin.AppendUvarint(b, uint64(len(t.Actions)))
		for _, c := range t.Actions {
			var err error
			if b, err = appendAction(b, c, depth+1); err != nil {
				return nil, err
			}
		}
		b = bin.AppendUvarint(b, uint64(len(t.Dependencies)))
		for _, d := range t.Dependencies {
			b = bin.AppendStr(b, string(d.Before))
			b = bin.AppendStr(b, string(d.After))
			b = bin.AppendStrs(b, d.Files)
		}
	case *ExecuteTask:
		b = appendTaskBase(b, codeExecute, &t.TaskBase)
		b = bin.AppendStr(b, t.Executable)
		b = bin.AppendStrs(b, t.Arguments)
		b = appendStrMap(b, t.Environment)
		b = bin.AppendStr(b, t.Stdin)
	case *CompileTask:
		b = appendTaskBase(b, codeCompile, &t.TaskBase)
		b = bin.AppendStr(b, t.Language)
		b = bin.AppendStrs(b, t.Sources)
		b = bin.AppendStrs(b, t.Options)
		b = bin.AppendStr(b, t.Output)
	case *LinkTask:
		b = appendTaskBase(b, codeLink, &t.TaskBase)
		b = bin.AppendStrs(b, t.Objects)
		b = bin.AppendStrs(b, t.Libraries)
		b = bin.AppendStr(b, t.Output)
	case *UserTask:
		b = appendTaskBase(b, codeUser, &t.TaskBase)
		b = bin.AppendStr(b, t.Command)
	case *ScriptTask:
		b = appendTaskBase(b, codeScript, &t.TaskBase)
		b = bin.AppendStr(b, t.Script)
	case *ImportTask:
		b = appendHeader(b, codeImport, t.Header)
		// A non-nil empty Inline is a source in its own right (it imports an
		// empty file), so presence travels apart from length.
		b = bin.AppendBool(b, t.Source.Inline != nil)
		if t.Source.Inline != nil {
			b = bin.AppendBytes(b, t.Source.Inline)
		}
		b = bin.AppendStr(b, t.Source.XspacePath)
		b = bin.AppendStr(b, t.Source.Staged)
		b = bin.AppendStr(b, t.To)
	case *ExportTask:
		b = appendHeader(b, codeExport, t.Header)
		b = bin.AppendStr(b, t.From)
		b = bin.AppendStr(b, t.ToXspace)
	case *TransferTask:
		b = appendHeader(b, codeTransfer, t.Header)
		b = bin.AppendStr(b, string(t.FromAction))
		b = bin.AppendStrs(b, t.Files)
	case *ControlService:
		b = appendHeader(b, codeControl, t.Header)
		b = bin.AppendStr(b, string(t.Job))
		b = bin.AppendStr(b, string(t.Op))
	case *ListService:
		b = appendHeader(b, codeList, t.Header)
	case *QueryService:
		b = appendHeader(b, codeQuery, t.Header)
		b = bin.AppendStr(b, string(t.Query))
		b = bin.AppendStr(b, string(t.Job))
		b = appendTarget(b, t.Target)
	case nil:
		return nil, fmt.Errorf("ajo: marshal nil action")
	default:
		return nil, fmt.Errorf("ajo: marshal: no binary form for %T", a)
	}
	return b, nil
}

func readHeader(r *bin.Reader) Header {
	return Header{ActionID: ActionID(r.Str()), ActionName: r.Str()}
}

func readTaskBase(r *bin.Reader) TaskBase {
	t := TaskBase{Header: readHeader(r)}
	t.Resources.Processors = int(r.Varint())
	t.Resources.RunTime = time.Duration(r.Varint())
	t.Resources.MemoryMB = int(r.Varint())
	t.Resources.PermDiskMB = int(r.Varint())
	t.Resources.TempDiskMB = int(r.Varint())
	return t
}

func readTarget(r *bin.Reader) core.Target {
	return core.Target{Usite: core.Usite(r.Str()), Vsite: core.Vsite(r.Str())}
}

func readStrMap(r *bin.Reader) map[string]string {
	n := r.Count()
	if n == 0 {
		return nil
	}
	m := make(map[string]string, n)
	for i := 0; i < n && !r.Failed(); i++ {
		k := r.Str()
		m[k] = r.Str()
	}
	return m
}

// readAction decodes one action. A truncated or over-long field is left to
// the caller's single r.Err check; what has its own name — an unknown kind
// code, nesting past maxDepth — is reported here.
func readAction(r *bin.Reader, depth int) (Action, error) {
	switch code := r.Byte(); code {
	case codeJob:
		if depth >= maxDepth {
			return nil, fmt.Errorf("ajo: document nests deeper than %d job groups", maxDepth)
		}
		j := &AbstractJob{Header: readHeader(r)}
		j.Target = readTarget(r)
		j.UserDN = core.DN(r.Str())
		j.Project = r.Str()
		j.SiteSecurity = readStrMap(r)
		if n := r.Count(); n > 0 {
			j.Actions = make(ActionList, 0, n)
			for i := 0; i < n && !r.Failed(); i++ {
				c, err := readAction(r, depth+1)
				if err != nil {
					return nil, err
				}
				j.Actions = append(j.Actions, c)
			}
		}
		if n := r.Count(); n > 0 {
			j.Dependencies = make([]Dependency, 0, n)
			for i := 0; i < n && !r.Failed(); i++ {
				j.Dependencies = append(j.Dependencies, Dependency{
					Before: ActionID(r.Str()), After: ActionID(r.Str()), Files: r.Strs(),
				})
			}
		}
		return j, nil
	case codeExecute:
		return &ExecuteTask{TaskBase: readTaskBase(r), Executable: r.Str(),
			Arguments: r.Strs(), Environment: readStrMap(r), Stdin: r.Str()}, nil
	case codeCompile:
		return &CompileTask{TaskBase: readTaskBase(r), Language: r.Str(),
			Sources: r.Strs(), Options: r.Strs(), Output: r.Str()}, nil
	case codeLink:
		return &LinkTask{TaskBase: readTaskBase(r), Objects: r.Strs(), Libraries: r.Strs(), Output: r.Str()}, nil
	case codeUser:
		return &UserTask{TaskBase: readTaskBase(r), Command: r.Str()}, nil
	case codeScript:
		return &ScriptTask{TaskBase: readTaskBase(r), Script: r.Str()}, nil
	case codeImport:
		t := &ImportTask{Header: readHeader(r)}
		if r.Bool() {
			t.Source.Inline = append([]byte{}, r.Bytes()...)
		}
		t.Source.XspacePath = r.Str()
		t.Source.Staged = r.Str()
		t.To = r.Str()
		return t, nil
	case codeExport:
		return &ExportTask{Header: readHeader(r), From: r.Str(), ToXspace: r.Str()}, nil
	case codeTransfer:
		return &TransferTask{Header: readHeader(r), FromAction: ActionID(r.Str()), Files: r.Strs()}, nil
	case codeControl:
		return &ControlService{Header: readHeader(r), Job: core.JobID(r.Str()), Op: ControlOp(r.Str())}, nil
	case codeList:
		return &ListService{Header: readHeader(r)}, nil
	case codeQuery:
		return &QueryService{Header: readHeader(r), Query: QueryKind(r.Str()),
			Job: core.JobID(r.Str()), Target: readTarget(r)}, nil
	default:
		if r.Failed() {
			return nil, fmt.Errorf("ajo: decoding: %w", bin.ErrMalformed)
		}
		return nil, fmt.Errorf("ajo: unknown action kind code %d", code)
	}
}

// MarshalOutcome encodes an outcome tree in its one wire form — what a
// gateway answers a retrieve-outcome with, and what the journal keeps of a
// finished sub-job:
//
//	u8 outcomeTag, then one node:
//	node := action, name, kind, status, reason, exit code, stdout, stderr,
//	        files (path, size, crc), started, finished, child nodes
func MarshalOutcome(o *Outcome) ([]byte, error) {
	if o == nil {
		return nil, fmt.Errorf("ajo: marshal nil outcome")
	}
	b := make([]byte, 0, 512)
	return appendOutcome(append(b, outcomeTag), o, 0)
}

func appendOutcome(b []byte, o *Outcome, depth int) ([]byte, error) {
	if depth >= maxDepth {
		return nil, fmt.Errorf("ajo: outcome %s: nested deeper than %d job groups", o.Action, maxDepth)
	}
	b = bin.AppendStr(b, string(o.Action))
	b = bin.AppendStr(b, o.Name)
	b = bin.AppendStr(b, string(o.Kind))
	b = bin.AppendVarint(b, int64(o.Status))
	b = bin.AppendStr(b, o.Reason)
	b = bin.AppendVarint(b, int64(o.ExitCode))
	b = bin.AppendBytes(b, o.Stdout)
	b = bin.AppendBytes(b, o.Stderr)
	b = bin.AppendUvarint(b, uint64(len(o.Files)))
	for _, f := range o.Files {
		b = bin.AppendStr(b, f.Path)
		b = bin.AppendVarint(b, f.Size)
		b = bin.AppendUvarint(b, f.CRC)
	}
	b = bin.AppendTime(b, o.Started)
	b = bin.AppendTime(b, o.Finished)
	b = bin.AppendUvarint(b, uint64(len(o.Children)))
	for _, c := range o.Children {
		if c == nil {
			return nil, fmt.Errorf("ajo: outcome %s has a nil child", o.Action)
		}
		var err error
		if b, err = appendOutcome(b, c, depth+1); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// UnmarshalOutcome decodes MarshalOutcome's form. The result shares no
// memory with data; absent output, file and child lists decode as nil.
func UnmarshalOutcome(data []byte) (*Outcome, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("ajo: empty outcome")
	}
	if data[0] != outcomeTag {
		return nil, fmt.Errorf("ajo: outcome has format tag 0x%02x, this build reads binary outcome format 0x%02x", data[0], outcomeTag)
	}
	r := bin.NewReader(data[1:])
	o, err := readOutcome(r, 0)
	if err != nil {
		return nil, err
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("ajo: decoding outcome: %w", err)
	}
	return o, nil
}

func readOutcome(r *bin.Reader, depth int) (*Outcome, error) {
	if depth >= maxDepth {
		return nil, fmt.Errorf("ajo: outcome nests deeper than %d job groups", maxDepth)
	}
	o := &Outcome{Action: ActionID(r.Str()), Name: r.Str(), Kind: Kind(r.Str())}
	o.Status = Status(r.Varint())
	o.Reason = r.Str()
	o.ExitCode = int(r.Varint())
	o.Stdout = append([]byte(nil), r.Bytes()...) // a copy; empty stays nil
	o.Stderr = append([]byte(nil), r.Bytes()...)
	if n := r.Count(); n > 0 {
		o.Files = make([]FileRecord, 0, n)
		for i := 0; i < n && !r.Failed(); i++ {
			o.Files = append(o.Files, FileRecord{Path: r.Str(), Size: r.Varint(), CRC: r.Uvarint()})
		}
	}
	o.Started = r.Time()
	o.Finished = r.Time()
	if n := r.Count(); n > 0 {
		o.Children = make([]*Outcome, 0, n)
		for i := 0; i < n && !r.Failed(); i++ {
			c, err := readOutcome(r, depth+1)
			if err != nil {
				return nil, err
			}
			o.Children = append(o.Children, c)
		}
	}
	return o, nil
}
