package ajo

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"unicore/internal/bin/bintest"
)

// filledOutcome is an outcome tree with every exported field of every node
// set by reflection: root, two children, four grandchildren.
func filledOutcome(t testing.TB) *Outcome {
	var o Outcome
	bintest.Fill(t, &o)
	if len(o.Children) != 2 || len(o.Children[0].Children) != 2 || o.Children[0].Children[0].Children != nil {
		t.Fatalf("bintest.Fill built an unexpected tree shape: %+v", o)
	}
	return &o
}

// TestEveryOutcomeFieldSurvives: a field added to Outcome or FileRecord and
// forgotten in the hand-written codec, or in the JSON form a CLI prints,
// fails here by name.
func TestEveryOutcomeFieldSurvives(t *testing.T) {
	o := filledOutcome(t)
	data, err := MarshalOutcome(o)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalOutcome(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(o, back) {
		t.Errorf("a field did not survive the binary round trip:\nsent: %+v\ngot:  %+v", o, back)
	}
	doc, err := MarshalOutcomeJSON(o)
	if err != nil {
		t.Fatal(err)
	}
	var fromJSON Outcome
	if err := json.Unmarshal(doc, &fromJSON); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(o, &fromJSON) {
		t.Errorf("a field did not survive the JSON form:\nsent: %+v\ngot:  %+v", o, &fromJSON)
	}
}

// TestCloneCoversEveryFieldAndSharesNothing: the clone is deeply equal to a
// tree with every field set, and overwriting every byte, file record and node
// of the original leaves the clone as it was.
func TestCloneCoversEveryFieldAndSharesNothing(t *testing.T) {
	o, want := filledOutcome(t), filledOutcome(t)
	cp := o.Clone()
	if !reflect.DeepEqual(cp, want) {
		t.Fatalf("Clone dropped a field:\norig:  %+v\nclone: %+v", want, cp)
	}
	var scribble func(n *Outcome)
	scribble = func(n *Outcome) {
		for i := range n.Stdout {
			n.Stdout[i] ^= 0xFF
		}
		for i := range n.Stderr {
			n.Stderr[i] ^= 0xFF
		}
		for i := range n.Files {
			n.Files[i] = FileRecord{Path: "scribbled"}
		}
		for i, c := range n.Children {
			scribble(c)
			n.Children[i] = &Outcome{Action: "scribbled"}
		}
		n.Status, n.Reason = StatusAborted, "scribbled"
	}
	scribble(o)
	if !reflect.DeepEqual(cp, want) {
		t.Fatalf("the clone shares memory with the original: after overwriting the original it reads\n%+v\nwant\n%+v", cp, want)
	}
	// Absent stays absent: a leaf's nil lists are not turned into empty ones.
	leaf := (&Outcome{Action: "leaf"}).Clone()
	if leaf.Stdout != nil || leaf.Files != nil || leaf.Children != nil {
		t.Fatalf("clone of a bare leaf = %+v, want nil lists", leaf)
	}
}

func TestOutcomeDecodeErrors(t *testing.T) {
	good, err := MarshalOutcome(treeOutcome())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MarshalOutcome(nil); err == nil {
		t.Error("nil outcome marshalled")
	}
	if _, err := MarshalOutcome(&Outcome{Action: "j", Children: []*Outcome{nil}}); err == nil {
		t.Error("outcome holding a nil child marshalled")
	}
	for name, doc := range map[string][]byte{
		"empty":         nil,
		"tag only":      good[:1],
		"truncated":     good[:len(good)/2],
		"trailing byte": append(bytes.Clone(good), 0),
		"child count":   append(append([]byte{outcomeTag, 1, 'j'}, make([]byte, 10)...), binary.AppendUvarint(nil, 1<<40)...),
	} {
		if _, err := UnmarshalOutcome(doc); err == nil {
			t.Errorf("%s outcome accepted", name)
		}
	}
	// Another format is refused by its tag, naming the one this build reads:
	// the JSON tree an older build journaled, or an AJO handed to the wrong
	// decoder.
	asJSON, err := MarshalOutcomeJSON(treeOutcome())
	if err != nil {
		t.Fatal(err)
	}
	anAJO, err := Marshal(sampleJob())
	if err != nil {
		t.Fatal(err)
	}
	for name, doc := range map[string][]byte{"0x7b": asJSON, "0x01": anAJO} {
		_, err := UnmarshalOutcome(doc)
		if err == nil || !strings.Contains(err.Error(), "format tag "+name) || !strings.Contains(err.Error(), "outcome format 0x02") {
			t.Errorf("document with tag %s fed to UnmarshalOutcome: %v", name, err)
		}
	}
}

// deepOutcome is a chain of sub-job outcomes depth nodes long.
func deepOutcome(depth int) *Outcome {
	o := &Outcome{Action: "leaf", Kind: KindUser}
	for i := 1; i < depth; i++ {
		o = &Outcome{Action: "job", Kind: KindJob, Children: []*Outcome{o}}
	}
	return o
}

// TestOutcomeNestingIsBounded mirrors TestNestingDepthIsBounded for the
// outcome tree: neither side recurses past maxDepth.
func TestOutcomeNestingIsBounded(t *testing.T) {
	atLimit, err := MarshalOutcome(deepOutcome(maxDepth))
	if err != nil {
		t.Fatalf("outcome nested exactly %d deep refused: %v", maxDepth, err)
	}
	if _, err := UnmarshalOutcome(atLimit); err != nil {
		t.Fatalf("outcome nested exactly %d deep does not decode: %v", maxDepth, err)
	}
	if _, err := MarshalOutcome(deepOutcome(maxDepth + 1)); err == nil {
		t.Fatalf("outcome nested %d deep marshalled", maxDepth+1)
	}
	doc := []byte{outcomeTag}
	for i := 0; i <= maxDepth; i++ {
		doc = append(doc, 1, 'j')              // action "j"
		doc = append(doc, make([]byte, 10)...) // name … finished, all empty or zero
		doc = append(doc, 1)                   // one child follows
	}
	if _, err := UnmarshalOutcome(doc); err == nil || !strings.Contains(err.Error(), "deeper than") {
		t.Fatalf("over-deep outcome: %v", err)
	}
}

// countNodes counts the nodes of an outcome tree.
func countNodes(o *Outcome) int {
	n := 1
	for _, c := range o.Children {
		n += countNodes(c)
	}
	return n
}

// FuzzOutcomeUnmarshal feeds the outcome decoder what a hostile gateway (to a
// client) or peer site (to an NJS collecting a sub-job's outcome) could send.
// Invariants: no panic; a decode allocates no more than its budget, accepted
// or not; a tree that decodes holds no more nodes than it has bytes; and
// decoding is a fixed point — dec(enc(dec(x))) == dec(x).
func FuzzOutcomeUnmarshal(f *testing.F) {
	for _, o := range []*Outcome{treeOutcome(), filledOutcome(f), deepOutcome(8), {Action: "bare"}} {
		raw, err := MarshalOutcome(o)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
		f.Add(raw[:len(raw)/2])
	}
	f.Add([]byte{})
	f.Add(append(append([]byte{outcomeTag, 1, 'j'}, make([]byte, 10)...), binary.AppendUvarint(nil, 1<<40)...))
	f.Add([]byte(`{"action":"job","kind":"AbstractJob","status":4}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		bintest.WithinBudget(t, "outcome", len(data), func() { UnmarshalOutcome(data) })
		o, err := UnmarshalOutcome(data)
		if err != nil {
			return
		}
		if n := countNodes(o); n > len(data) {
			t.Fatalf("%d-byte document decoded to %d nodes", len(data), n)
		}
		enc, err := MarshalOutcome(o)
		if err != nil {
			t.Fatalf("decoded outcome does not re-encode: %v", err)
		}
		again, err := UnmarshalOutcome(enc)
		if err != nil {
			t.Fatalf("re-encoded outcome does not decode: %v", err)
		}
		if !reflect.DeepEqual(o, again) {
			t.Fatalf("decode is not a fixed point:\nfirst:  %+v\nsecond: %+v", o, again)
		}
	})
}
