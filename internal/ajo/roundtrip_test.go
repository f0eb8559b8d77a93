package ajo

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"unicore/internal/bin"
	"unicore/internal/bin/bintest"
	"unicore/internal/core"
	"unicore/internal/resources"
)

// exhaustiveActions returns, per registered Kind, a valid instance with
// every field populated with a realistic non-zero value. The journal replays
// admissions through the binary codec, so an action field it silently dropped
// would corrupt recovered jobs — these fixtures make any such regression a
// test failure, field by field. (TestEveryFieldSurvivesBothCodecs is the
// mechanical version: it finds the fields by reflection.)
func exhaustiveActions() map[Kind]Action {
	fullResources := resources.Request{
		Processors: 64,
		RunTime:    90 * time.Minute,
		MemoryMB:   512,
		PermDiskMB: 2048,
		TempDiskMB: 1024,
	}
	sub := &AbstractJob{
		Header: Header{ActionID: "nested", ActionName: "nested group"},
		Target: core.Target{Usite: "ZIB", Vsite: "T3E"},
		Actions: ActionList{
			&UserTask{
				TaskBase: TaskBase{Header: Header{ActionID: "inner", ActionName: "inner task"}, Resources: fullResources},
				Command:  "echo inner",
			},
		},
	}
	return map[Kind]Action{
		KindJob: &AbstractJob{
			Header:       Header{ActionID: "grp", ActionName: "job group"},
			Target:       core.Target{Usite: "FZJ", Vsite: "VPP"},
			UserDN:       core.MakeDN("Alice", "FZJ", "DE"),
			Project:      "hpc",
			SiteSecurity: map[string]string{"smartcard": "required"},
			Actions: ActionList{
				sub,
				&TransferTask{Header: Header{ActionID: "pull", ActionName: "pull"}, FromAction: "nested", Files: []string{"prepped.dat"}},
			},
			Dependencies: []Dependency{{Before: "nested", After: "pull", Files: []string{"prepped.dat"}}},
		},
		KindExecute: &ExecuteTask{
			TaskBase:    TaskBase{Header: Header{ActionID: "ex", ActionName: "execute"}, Resources: fullResources},
			Executable:  "a.out",
			Arguments:   []string{"-n", "8", "--verbose"},
			Environment: map[string]string{"OMP_NUM_THREADS": "8", "MODE": "prod"},
			Stdin:       "input.dat",
		},
		KindCompile: &CompileTask{
			TaskBase: TaskBase{Header: Header{ActionID: "cc", ActionName: "compile"}, Resources: fullResources},
			Language: "f90",
			Sources:  []string{"main.f90", "solver.f90"},
			Options:  []string{"-O3", "-fopenmp"},
			Output:   "main.o",
		},
		KindLink: &LinkTask{
			TaskBase:  TaskBase{Header: Header{ActionID: "ld", ActionName: "link"}, Resources: fullResources},
			Objects:   []string{"main.o", "solver.o"},
			Libraries: []string{"MPI", "BLAS"},
			Output:    "a.out",
		},
		KindUser: &UserTask{
			TaskBase: TaskBase{Header: Header{ActionID: "ut", ActionName: "user"}, Resources: fullResources},
			Command:  "grep -c converged log.txt",
		},
		KindScript: &ScriptTask{
			TaskBase: TaskBase{Header: Header{ActionID: "sc", ActionName: "script"}, Resources: fullResources},
			Script:   "cpu 10m\nwrite out.dat 512\necho done\n",
		},
		KindImport: &ImportTask{
			Header: Header{ActionID: "imp", ActionName: "import"},
			Source: ImportSource{Inline: []byte{0x00, 0x01, 0xfe, 0xff}},
			To:     "input.dat",
		},
		KindExport: &ExportTask{
			Header:   Header{ActionID: "exp", ActionName: "export"},
			From:     "result.dat",
			ToXspace: "/results/run-42.dat",
		},
		KindTransfer: &TransferTask{
			Header:     Header{ActionID: "tr", ActionName: "transfer"},
			FromAction: "nested",
			Files:      []string{"a.dat", "b.dat"},
		},
		KindControl: &ControlService{
			Header: Header{ActionID: "ctl", ActionName: "control"},
			Job:    "FZJ-000042",
			Op:     OpResume,
		},
		KindList: &ListService{
			Header: Header{ActionID: "ls", ActionName: "list"},
		},
		KindQuery: &QueryService{
			Header: Header{ActionID: "qy", ActionName: "query"},
			Query:  QueryResourcePage,
			Job:    "FZJ-000042",
			Target: core.Target{Usite: "RUS", Vsite: "SX4"},
		},
	}
}

// TestExhaustiveFixturesCoverEveryKind pins the fixture set to the codec
// registry: adding a Kind without extending the fixtures (or the codecs)
// fails here first.
func TestExhaustiveFixturesCoverEveryKind(t *testing.T) {
	fixtures := exhaustiveActions()
	for _, k := range kinds {
		a, ok := fixtures[k]
		if !ok {
			t.Errorf("no exhaustive fixture for kind %s", k)
			continue
		}
		if a.Kind() != k {
			t.Errorf("fixture under key %s reports kind %s", k, a.Kind())
		}
		if err := a.Validate(); err != nil {
			t.Errorf("fixture %s does not validate: %v", k, err)
		}
		// The decoder must know how to allocate it.
		alloc, err := newByKind(k)
		if err != nil {
			t.Errorf("newByKind(%s): %v", k, err)
		} else if alloc.Kind() != k {
			t.Errorf("newByKind(%s) allocates %s", k, alloc.Kind())
		}
	}
	if len(fixtures) != len(kinds) {
		t.Errorf("fixtures = %d kinds, registry = %d", len(fixtures), len(kinds))
	}
}

// TestExhaustiveRoundTripBothCodecs round-trips every fully populated action
// through the codec and requires structural equality — no field may be
// silently mangled in the binary form the wire carries and a journal replay
// decodes.
func TestExhaustiveRoundTripBothCodecs(t *testing.T) {
	for _, c := range codecs {
		for k, a := range exhaustiveActions() {
			data, err := c.marshal(a)
			if err != nil {
				t.Fatalf("%s/%s: marshal: %v", c.name, k, err)
			}
			back, err := c.unmarshal(data)
			if err != nil {
				t.Fatalf("%s/%s: unmarshal: %v", c.name, k, err)
			}
			if !reflect.DeepEqual(a, back) {
				t.Errorf("%s/%s: round trip mangled the action:\nsent: %#v\ngot:  %#v", c.name, k, a, back)
			}
		}
	}
}

// newByKind allocates the zero action of a kind through the decoder's own
// constructor, newAction.
func newByKind(k Kind) (Action, error) {
	for code := codeJob; code <= codeQuery; code++ {
		c := bin.Decoder(nil)
		if a := newAction(&c, code); a != nil && a.Kind() == k {
			return a, nil
		}
	}
	return nil, fmt.Errorf("no kind code allocates a %s", k)
}

// filledActions returns one instance of every kind with every exported field
// set by reflection (bintest.Fill), so the set of fields under test is the
// set the structs declare, not the set someone remembered to list. The job's
// action list — an interface slice Fill leaves alone — holds one filled
// instance of every other kind plus a filled nested job.
func filledActions(t *testing.T) map[Kind]Action {
	out := make(map[Kind]Action)
	var leaves ActionList
	for _, k := range kinds {
		a, err := newByKind(k)
		if err != nil {
			t.Fatal(err)
		}
		bintest.Fill(t, a)
		out[k] = a
		if k != KindJob {
			leaves = append(leaves, a)
		}
	}
	inner := &AbstractJob{}
	bintest.Fill(t, inner)
	inner.Actions = ActionList{leaves[0]}
	out[KindJob].(*AbstractJob).Actions = append(ActionList{inner}, leaves...)
	return out
}

// TestEveryFieldSurvivesBothCodecs is the field-coverage gate for the hand
// codec: a field added to any action struct (or to Header, TaskBase,
// ImportSource, Dependency, core.Target, resources.Request) and not carried
// by codec.go comes back zero and fails here by name.
func TestEveryFieldSurvivesBothCodecs(t *testing.T) {
	for k, a := range filledActions(t) {
		for _, c := range codecs {
			data, err := c.marshal(a)
			if err != nil {
				t.Fatalf("%s/%s: marshal: %v", c.name, k, err)
			}
			back, err := c.unmarshal(data)
			if err != nil {
				t.Fatalf("%s/%s: unmarshal: %v", c.name, k, err)
			}
			if !reflect.DeepEqual(a, back) {
				t.Errorf("%s/%s: a field did not survive the round trip:\nsent: %#v\ngot:  %#v", c.name, k, a, back)
			}
		}
	}
}
