package ajo

import (
	"fmt"
	"sort"

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
// equal actions encode to equal bytes. Every field is named once, in
// walkAction, which Marshal runs as the encoder and Unmarshal as the decoder.
//
// The outcome tree that answers an AJO (WalkOutcome, at the end of this
// file) is encoded the same way: inline in a frame body, or behind its own
// format tag as a document (MarshalOutcome).

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

// newAction makes the zero action of a kind code for a decoder to fill,
// charged to its budget first: nil for a code no kind has, or for one the
// budget cannot pay for (c.Err then says so).
func newAction(c *bin.Codec, code byte) Action {
	switch code {
	case codeJob:
		return charged[AbstractJob](c)
	case codeExecute:
		return charged[ExecuteTask](c)
	case codeCompile:
		return charged[CompileTask](c)
	case codeLink:
		return charged[LinkTask](c)
	case codeUser:
		return charged[UserTask](c)
	case codeScript:
		return charged[ScriptTask](c)
	case codeImport:
		return charged[ImportTask](c)
	case codeExport:
		return charged[ExportTask](c)
	case codeTransfer:
		return charged[TransferTask](c)
	case codeControl:
		return charged[ControlService](c)
	case codeList:
		return charged[ListService](c)
	case codeQuery:
		return charged[QueryService](c)
	}
	return nil
}

// charged is a new T as an Action, once the budget has paid for it.
func charged[T any, P interface {
	*T
	Action
}](c *bin.Codec) Action {
	if !bin.Charge[T](c, 1) {
		return nil
	}
	return P(new(T))
}

// Marshal encodes any action (including a whole recursive AbstractJob) in
// the binary wire form.
func Marshal(a Action) ([]byte, error) {
	c := bin.Encoder(append(make([]byte, 0, 512), formatTag))
	if err := walkAction(&c, &a, 0); err != nil {
		return nil, err
	}
	return c.Bytes(), nil
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
	c := bin.Decoder(data[1:])
	var a Action
	if err := walkAction(&c, &a, 0); err != nil {
		return nil, err
	}
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("ajo: decoding %s: %w", a.Kind(), err)
	}
	return a, nil
}

// walkAction is the one description of every action, run by Marshal as the
// encoder and by Unmarshal as the decoder. A decoder reads the kind code and
// fills the zero action of that kind; an encoder finds *a already there and
// writes its code with its header. A truncated or over-long field is left to
// Unmarshal's single c.Err check; what has its own name — a nil action, an
// unknown kind code, nesting past maxDepth — is reported here.
func walkAction(c *bin.Codec, a *Action, depth int) error {
	if c.Decoding() {
		var code byte
		c.Byte(&code)
		*a = newAction(c, code)
		switch {
		case c.Failed():
			return fmt.Errorf("ajo: decoding: %w", c.Err())
		case *a == nil:
			return fmt.Errorf("ajo: unknown action kind code %d", code)
		}
	}
	switch t := (*a).(type) {
	case *AbstractJob:
		if depth >= maxDepth {
			return fmt.Errorf("ajo: job groups nest deeper than %d", maxDepth)
		}
		walkHeader(c, codeJob, &t.Header)
		walkTarget(c, &t.Target)
		c.Str((*string)(&t.UserDN))
		c.Str(&t.Project)
		walkStrMap(c, &t.SiteSecurity)
		for i := range bin.Slice(c, &t.Actions) {
			if err := walkAction(c, &t.Actions[i], depth+1); err != nil {
				return err
			}
		}
		for i := range bin.Slice(c, &t.Dependencies) {
			d := &t.Dependencies[i]
			c.Str((*string)(&d.Before))
			c.Str((*string)(&d.After))
			c.Strs(&d.Files)
		}
	case *ExecuteTask:
		walkTaskBase(c, codeExecute, &t.TaskBase)
		c.Str(&t.Executable)
		c.Strs(&t.Arguments)
		walkStrMap(c, &t.Environment)
		c.Str(&t.Stdin)
	case *CompileTask:
		walkTaskBase(c, codeCompile, &t.TaskBase)
		c.Str(&t.Language)
		c.Strs(&t.Sources)
		c.Strs(&t.Options)
		c.Str(&t.Output)
	case *LinkTask:
		walkTaskBase(c, codeLink, &t.TaskBase)
		c.Strs(&t.Objects)
		c.Strs(&t.Libraries)
		c.Str(&t.Output)
	case *UserTask:
		walkTaskBase(c, codeUser, &t.TaskBase)
		c.Str(&t.Command)
	case *ScriptTask:
		walkTaskBase(c, codeScript, &t.TaskBase)
		c.Str(&t.Script)
	case *ImportTask:
		walkHeader(c, codeImport, &t.Header)
		// A non-nil empty Inline is a source in its own right (it imports an
		// empty file), so presence travels apart from length. The data is
		// copied out of the document.
		inline := t.Source.Inline != nil
		c.Bool(&inline)
		if inline {
			c.Blob(&t.Source.Inline)
			if t.Source.Inline == nil {
				t.Source.Inline = []byte{}
			}
		}
		c.Str(&t.Source.XspacePath)
		c.Str(&t.Source.Staged)
		c.Str(&t.To)
	case *ExportTask:
		walkHeader(c, codeExport, &t.Header)
		c.Str(&t.From)
		c.Str(&t.ToXspace)
	case *TransferTask:
		walkHeader(c, codeTransfer, &t.Header)
		c.Str((*string)(&t.FromAction))
		c.Strs(&t.Files)
	case *ControlService:
		walkHeader(c, codeControl, &t.Header)
		c.Str((*string)(&t.Job))
		c.Str((*string)(&t.Op))
	case *ListService:
		walkHeader(c, codeList, &t.Header)
	case *QueryService:
		walkHeader(c, codeQuery, &t.Header)
		c.Str((*string)(&t.Query))
		c.Str((*string)(&t.Job))
		walkTarget(c, &t.Target)
	case nil:
		return fmt.Errorf("ajo: marshal nil action")
	default:
		return fmt.Errorf("ajo: marshal: no binary form for %T", t)
	}
	return nil
}

// walkHeader leads every action: kind code, id, name. A decoder has consumed
// the code already — it chose the type being filled (walkAction).
func walkHeader(c *bin.Codec, code byte, h *Header) {
	if !c.Decoding() {
		c.Byte(&code)
	}
	c.Str((*string)(&h.ActionID))
	c.Str(&h.ActionName)
}

func walkTaskBase(c *bin.Codec, code byte, t *TaskBase) {
	walkHeader(c, code, &t.Header)
	c.Int(&t.Resources.Processors)
	c.Varint((*int64)(&t.Resources.RunTime))
	c.Int(&t.Resources.MemoryMB)
	c.Int(&t.Resources.PermDiskMB)
	c.Int(&t.Resources.TempDiskMB)
}

func walkTarget(c *bin.Codec, t *core.Target) {
	c.Str((*string)(&t.Usite))
	c.Str((*string)(&t.Vsite))
}

// walkStrMap writes entries in key order, so equal actions encode to equal
// bytes.
func walkStrMap(c *bin.Codec, m *map[string]string) {
	n := c.Len(len(*m))
	if n == 0 {
		return
	}
	if c.Decoding() {
		if !bin.Charge[bin.MapEntry[string, string]](c, n) {
			return
		}
		*m = make(map[string]string, n)
		for ; n > 0 && !c.Failed(); n-- {
			var k, v string
			c.Str(&k)
			c.Str(&v)
			(*m)[k] = v
		}
		return
	}
	keys := make([]string, 0, n)
	for k := range *m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v := (*m)[k]
		c.Str(&k)
		c.Str(&v)
	}
}

// MarshalOutcome encodes an outcome tree in its document form — what the
// journal keeps of a finished sub-job: the outcomeTag, then WalkOutcome's
// root node.
func MarshalOutcome(o *Outcome) ([]byte, error) {
	c := bin.Encoder(append(make([]byte, 0, 512), outcomeTag))
	if err := WalkOutcome(&c, o); err != nil {
		return nil, err
	}
	return c.Bytes(), nil
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
	c := bin.Decoder(data[1:])
	bin.Charge[Outcome](&c, 1) // the root always fits: it is smaller than bin.Slack
	o := new(Outcome)
	if err := WalkOutcome(&c, o); err != nil {
		return nil, err
	}
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("ajo: decoding outcome: %w", err)
	}
	return o, nil
}

// WalkOutcome is the one description of an outcome tree, in both
// directions: MarshalOutcome and UnmarshalOutcome run it behind their tag,
// and a frame body runs it inline, with no length prefix and no copy of the
// tree into a document first (protocol.OutcomeReply). A decoder fills the
// zero Outcome o points to; an encoder only reads the tree, so a shared,
// read-only tree may be walked by any number of encoders at once.
//
//	node := action, name, kind, status, reason, exit code, stdout, stderr,
//	        files (path, size, crc), started, finished, child nodes
func WalkOutcome(c *bin.Codec, o *Outcome) error {
	if o == nil {
		return fmt.Errorf("ajo: marshal nil outcome")
	}
	return walkOutcome(c, o, 0)
}

// walkOutcome walks one node of WalkOutcome's tree, depth job groups down.
func walkOutcome(c *bin.Codec, o *Outcome, depth int) error {
	if depth >= maxDepth {
		return fmt.Errorf("ajo: outcome nests deeper than %d job groups", maxDepth)
	}
	c.Str((*string)(&o.Action))
	c.Str(&o.Name)
	c.Str((*string)(&o.Kind))
	c.Int((*int)(&o.Status))
	c.Str(&o.Reason)
	c.Int(&o.ExitCode)
	c.Blob(&o.Stdout)
	c.Blob(&o.Stderr)
	for i := range bin.Slice(c, &o.Files) {
		f := &o.Files[i]
		c.Str(&f.Path)
		c.Varint(&f.Size)
		c.Uvarint(&f.CRC)
	}
	c.Time(&o.Started)
	c.Time(&o.Finished)
	for i := range bin.Slice(c, &o.Children) {
		if c.Decoding() {
			if !bin.Charge[Outcome](c, 1) {
				return nil // the caller's c.Err reports it
			}
			o.Children[i] = new(Outcome)
		} else if o.Children[i] == nil {
			return fmt.Errorf("ajo: outcome %s has a nil child", o.Action)
		}
		if err := walkOutcome(c, o.Children[i], depth+1); err != nil {
			return err
		}
	}
	return nil
}
