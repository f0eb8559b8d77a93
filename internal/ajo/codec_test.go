package ajo

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"unicore/internal/core"
	"unicore/internal/resources"
)

// allConcreteActions returns one populated instance of every concrete class
// in Figure 3.
func allConcreteActions() []Action {
	return []Action{
		sampleJob(),
		&ExecuteTask{TaskBase: TaskBase{Header: Header{ActionID: "e"}, Resources: resources.Request{Processors: 2}},
			Executable: "a.out", Arguments: []string{"-x", "1"}, Environment: map[string]string{"OMP_NUM_THREADS": "4"}, Stdin: "in.dat"},
		&CompileTask{TaskBase: TaskBase{Header: Header{ActionID: "c"}}, Language: "f90", Sources: []string{"m.f90"}, Options: []string{"-O3"}, Output: "m.o"},
		&LinkTask{TaskBase: TaskBase{Header: Header{ActionID: "l"}}, Objects: []string{"m.o"}, Libraries: []string{"MPI"}, Output: "a.out"},
		&UserTask{TaskBase: TaskBase{Header: Header{ActionID: "u"}}, Command: "echo hello"},
		&ScriptTask{TaskBase: TaskBase{Header: Header{ActionID: "s"}}, Script: "echo hi\n"},
		&ImportTask{Header: Header{ActionID: "i"}, Source: ImportSource{Inline: []byte{1, 2, 3}}, To: "f"},
		&ExportTask{Header: Header{ActionID: "x"}, From: "f", ToXspace: "/home/u/f"},
		&TransferTask{Header: Header{ActionID: "t"}, FromAction: "sub", Files: []string{"a", "b"}},
		&ControlService{Header: Header{ActionID: "ctl"}, Job: "FZJ-000001", Op: OpAbort},
		&ListService{Header: Header{ActionID: "ls"}},
		&QueryService{Header: Header{ActionID: "q"}, Query: QueryJobStatus, Job: "FZJ-000001"},
	}
}

// codecs are the forms of an AJO the round-trip tests run over: the binary
// wire form, the one form an AJO has.
var codecs = []struct {
	name      string
	marshal   func(Action) ([]byte, error)
	unmarshal func([]byte) (Action, error)
}{
	{"bin", Marshal, Unmarshal},
}

func TestBinaryRoundTripAllKinds(t *testing.T) { roundTripAllKinds(t, Marshal, Unmarshal) }

func roundTripAllKinds(t *testing.T, marshal func(Action) ([]byte, error), unmarshal func([]byte) (Action, error)) {
	for _, a := range allConcreteActions() {
		data, err := marshal(a)
		if err != nil {
			t.Fatalf("%s: marshal: %v", a.Kind(), err)
		}
		back, err := unmarshal(data)
		if err != nil {
			t.Fatalf("%s: unmarshal: %v", a.Kind(), err)
		}
		if back.Kind() != a.Kind() || back.ID() != a.ID() {
			t.Fatalf("%s: identity lost: got %s/%s", a.Kind(), back.Kind(), back.ID())
		}
		if !reflect.DeepEqual(normalise(a), normalise(back)) {
			t.Fatalf("%s: round trip mismatch:\n%#v\n%#v", a.Kind(), a, back)
		}
	}
}

// normalise re-encodes via plain JSON so nil/empty slice differences do not
// produce false mismatches.
func normalise(a Action) string {
	b, _ := json.Marshal(a)
	return string(b)
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Marshal(nil); err == nil {
		t.Fatal("nil action marshalled")
	}
	if _, err := Marshal(&AbstractJob{Header: Header{ActionID: "j"}, Actions: ActionList{nil}}); err == nil {
		t.Fatal("job holding a nil action marshalled")
	}

	good, err := Marshal(sampleJob())
	if err != nil {
		t.Fatal(err)
	}
	asJSON, err := json.Marshal(sampleJob())
	if err != nil {
		t.Fatal(err)
	}
	for name, doc := range map[string][]byte{
		"empty":             nil,
		"tag only":          good[:1],
		"unknown kind code": {formatTag, 0xee, 0, 0},
		"truncated":         good[:len(good)/2],
		"trailing byte":     append(bytes.Clone(good), 0),
	} {
		if _, err := Unmarshal(doc); err == nil {
			t.Errorf("%s document accepted", name)
		}
	}
	// A document of another format is refused by its tag, and the error says
	// which format this build reads — a JSON rendering handed to the binary
	// decoder is the likely way to get here.
	_, err = Unmarshal(asJSON)
	if err == nil || !strings.Contains(err.Error(), "format tag 0x7b") || !strings.Contains(err.Error(), "binary format 0x01") {
		t.Fatalf("JSON document fed to Unmarshal: %v", err)
	}
}

// nested builds a chain of job groups depth levels deep, one task per level
// — the recursive structure of §3.
func nested(level, depth int) *AbstractJob {
	j := &AbstractJob{
		Header: Header{ActionID: ActionID(fmt.Sprintf("lvl%d", level))},
		Target: core.Target{Usite: core.Usite(fmt.Sprintf("U%d", level)), Vsite: "V"},
		Actions: ActionList{
			&UserTask{TaskBase: TaskBase{Header: Header{ActionID: ActionID(fmt.Sprintf("t%d", level))}}, Command: "ls"},
		},
	}
	if level < depth {
		j.Actions = append(j.Actions, nested(level+1, depth))
		j.Dependencies = []Dependency{{Before: j.Actions[0].ID(), After: j.Actions[1].ID()}}
	}
	return j
}

// TestNestingDepthIsBounded: both sides refuse a job nested past maxDepth, so
// a hostile document cannot recurse the decoder without limit — and the
// encoder never writes what the decoder would refuse.
func TestNestingDepthIsBounded(t *testing.T) {
	atLimit, err := Marshal(nested(1, maxDepth))
	if err != nil {
		t.Fatalf("job nested exactly %d deep refused: %v", maxDepth, err)
	}
	if _, err := Unmarshal(atLimit); err != nil {
		t.Fatalf("job nested exactly %d deep does not decode: %v", maxDepth, err)
	}
	if _, err := Marshal(nested(1, maxDepth+1)); err == nil {
		t.Fatalf("job nested %d deep marshalled", maxDepth+1)
	}
	// Hand-build the over-deep document: maxDepth+1 job openings.
	var doc []byte
	doc = append(doc, formatTag)
	for i := 0; i <= maxDepth; i++ {
		doc = append(doc, codeJob, 1, 'j', 0) // kind, id "j", empty name
		doc = append(doc, 0, 0, 0, 0, 0)      // target, user DN, project, site security
		doc = append(doc, 1)                  // one action follows
	}
	_, err = Unmarshal(doc)
	if err == nil || !strings.Contains(err.Error(), "deeper than") {
		t.Fatalf("over-deep document: %v", err)
	}
}

// TestHostileLengthPrefixAllocatesLittle: a count or length prefix far larger
// than the document behind it is refused before anything is sized by it.
func TestHostileLengthPrefixAllocatesLittle(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<40)
	docs := map[string][]byte{
		"string length": append([]byte{formatTag, codeUser}, huge...),
		"action count":  append([]byte{formatTag, codeJob, 1, 'j', 0, 0, 0, 0, 0, 0}, huge...),
		"list count":    append([]byte{formatTag, codeTransfer, 1, 't', 0, 0}, huge...),
	}
	for name, doc := range docs {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Unmarshal(doc)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s of 2^40 accepted", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
			t.Errorf("%s of 2^40: decoder allocated %d bytes for a %d-byte document", name, grew, len(doc))
		}
	}
}

func TestDeeplyNestedJobRoundTrip(t *testing.T) {
	depth := 6
	root := nested(1, depth)
	if err := root.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, c := range codecs {
		data, err := c.marshal(root)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		back, err := c.unmarshal(data)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !reflect.DeepEqual(root, back) {
			t.Fatalf("%s: nested job changed in the round trip", c.name)
		}
		bj := back.(*AbstractJob)
		if err := bj.Validate(); err != nil {
			t.Fatalf("%s: decoded job invalid: %v", c.name, err)
		}
		if got, want := bj.CountActions(), root.CountActions(); got != want {
			t.Fatalf("%s: decoded action count %d, want %d", c.name, got, want)
		}
		// Identity must survive to the innermost level.
		cur := bj
		for i := 1; i < depth; i++ {
			var next *AbstractJob
			for _, a := range cur.Actions {
				if j, ok := a.(*AbstractJob); ok {
					next = j
				}
			}
			if next == nil {
				t.Fatalf("%s: nesting lost at level %d", c.name, i)
			}
			cur = next
		}
		if cur.ActionID != ActionID(fmt.Sprintf("lvl%d", depth)) {
			t.Fatalf("%s: innermost ID = %s", c.name, cur.ActionID)
		}
	}
}

// TestMarshalIsDeterministic: equal jobs encode to equal bytes (map entries
// go out in key order), so a journal written from a seed is byte-reproducible.
func TestMarshalIsDeterministic(t *testing.T) {
	a := exhaustiveActions()[KindExecute]
	first, err := Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		again, err := Marshal(exhaustiveActions()[KindExecute])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, again) {
			t.Fatal("two encodings of one ExecuteTask differ")
		}
	}
}

func TestOutcomeRoundTrip(t *testing.T) {
	o := &Outcome{
		Action: "job", Kind: KindJob, Status: StatusRunning,
		Children: []*Outcome{
			{Action: "cc", Kind: KindCompile, Status: StatusSuccessful, Stdout: []byte("done"), ExitCode: 0,
				Files: []FileRecord{{Path: "m.o", Size: 100, CRC: 42}}},
			{Action: "run", Kind: KindExecute, Status: StatusRunning, Started: time.Date(1999, 8, 3, 10, 0, 0, 0, time.UTC)},
		},
	}
	data, err := MarshalOutcome(o)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalOutcome(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(o, back) {
		t.Fatalf("outcome round trip mismatch:\n%+v\n%+v", o, back)
	}
}

// Property: any UserTask round-trips through the codec.
func TestQuickUserTaskRoundTrip(t *testing.T) {
	f := func(id string, cmd string, cpus uint8) bool {
		if id == "" || cmd == "" {
			return true
		}
		u := &UserTask{
			TaskBase: TaskBase{Header: Header{ActionID: ActionID(id)}, Resources: resources.Request{Processors: int(cpus)}},
			Command:  cmd,
		}
		for _, c := range codecs {
			enc, err := c.marshal(u)
			if err != nil {
				return false
			}
			back, err := c.unmarshal(enc)
			if err != nil || normalise(back) != normalise(u) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: inline import data of any content survives the codec, as
// workstation files are carried inside the AJO in the paper. The binary
// form also keeps an empty file apart from no file.
func TestQuickInlineImportDataPreserved(t *testing.T) {
	f := func(data []byte) bool {
		imp := &ImportTask{Header: Header{ActionID: "i"}, Source: ImportSource{Inline: data}, To: "f"}
		for _, c := range codecs {
			enc, err := c.marshal(imp)
			if err != nil {
				return false
			}
			back, err := c.unmarshal(enc)
			if err != nil {
				return false
			}
			bi, ok := back.(*ImportTask)
			if !ok || !bytes.Equal(bi.Source.Inline, data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	empty := &ImportTask{Header: Header{ActionID: "i"}, Source: ImportSource{Inline: []byte{}}, To: "f"}
	enc, err := Marshal(empty)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(enc)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("import of an empty inline file lost its source in the binary form: %v", err)
	}
}
