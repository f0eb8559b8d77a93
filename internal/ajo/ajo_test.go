package ajo

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"unicore/internal/core"
	"unicore/internal/dag"
	"unicore/internal/resources"
)

var fzjT3E = core.Target{Usite: "FZJ", Vsite: "T3E"}

// raceEnabled is set by race_test.go under -race, where allocation counts
// include the detector's own and mean nothing.
var raceEnabled bool

// sampleJob builds a representative compile-link-execute job with staging,
// the §5.7 workload.
func sampleJob() *AbstractJob {
	return &AbstractJob{
		Header:  Header{ActionID: "job", ActionName: "cfd-run"},
		Target:  fzjT3E,
		UserDN:  core.MakeDN("Alice", "FZJ", "DE"),
		Project: "zam",
		Actions: ActionList{
			&ImportTask{
				Header: Header{ActionID: "imp"},
				Source: ImportSource{Inline: []byte("!SIM: cpu 10s\n")},
				To:     "main.f90",
			},
			&CompileTask{
				TaskBase: TaskBase{Header: Header{ActionID: "cc"}, Resources: resources.Request{Processors: 1, RunTime: 5 * time.Minute}},
				Language: "f90",
				Sources:  []string{"main.f90"},
				Output:   "main.o",
			},
			&LinkTask{
				TaskBase: TaskBase{Header: Header{ActionID: "ld"}},
				Objects:  []string{"main.o"},
				Output:   "a.out",
			},
			&ExecuteTask{
				TaskBase:   TaskBase{Header: Header{ActionID: "run"}, Resources: resources.Request{Processors: 64, RunTime: time.Hour}},
				Executable: "a.out",
			},
			&ExportTask{
				Header:   Header{ActionID: "exp"},
				From:     "result.dat",
				ToXspace: "/home/alice/result.dat",
			},
		},
		Dependencies: []Dependency{
			{Before: "imp", After: "cc"},
			{Before: "cc", After: "ld"},
			{Before: "ld", After: "run"},
			{Before: "run", After: "exp", Files: []string{"result.dat"}},
		},
	}
}

func TestSampleJobValidates(t *testing.T) {
	if err := sampleJob().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckReturnsTheGraph: Check is Validate plus the job's own graph, the
// one dag.Build makes of its children and dependencies; a job Validate
// refuses, Check refuses with no graph.
func TestCheckReturnsTheGraph(t *testing.T) {
	j := sampleJob()
	g, err := j.Check()
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, a := range j.Actions {
		ids = append(ids, string(a.ID()))
	}
	want, _ := dag.Build(ids, j.Dependencies, dependencyEnds)
	if !reflect.DeepEqual(g, want) {
		t.Errorf("Check's graph %+v differs from dag.Build's %+v", g, want)
	}
	j.Dependencies = append(j.Dependencies, Dependency{Before: "exp", After: "imp"})
	if g, err := j.Check(); err == nil || !reflect.DeepEqual(g, dag.Graph{}) || j.Validate() == nil {
		t.Errorf("a cyclic job: Check returned %v, %v; Validate %v", g, err, j.Validate())
	}
}

func TestKindPredicates(t *testing.T) {
	cases := []struct {
		k             Kind
		exec, service bool
	}{
		{KindJob, false, false},
		{KindExecute, true, false},
		{KindCompile, true, false},
		{KindLink, true, false},
		{KindUser, true, false},
		{KindScript, true, false},
		{KindImport, false, false},
		{KindExport, false, false},
		{KindTransfer, false, false},
		{KindControl, false, true},
		{KindList, false, true},
		{KindQuery, false, true},
	}
	for _, c := range cases {
		if c.k.IsExecutable() != c.exec || c.k.IsService() != c.service {
			t.Errorf("%s: predicates = exec=%v svc=%v", c.k, c.k.IsExecutable(), c.k.IsService())
		}
	}
	if len(kinds) != 12 {
		t.Fatalf("kinds lists %d classes, want 12 (Figure 3)", len(kinds))
	}
}

// kinds lists every concrete action class (all leaves of Figure 3 plus the
// recursive AbstractJobObject).
var kinds = []Kind{
	KindJob, KindExecute, KindCompile, KindLink, KindUser, KindScript,
	KindImport, KindExport, KindTransfer, KindControl, KindList, KindQuery,
}

func TestValidateRejections(t *testing.T) {
	base := Header{ActionID: "x"}
	cases := []struct {
		name string
		a    Action
	}{
		{"execute without executable", &ExecuteTask{TaskBase: TaskBase{Header: base}}},
		{"compile without sources", &CompileTask{TaskBase: TaskBase{Header: base}, Language: "f90", Output: "o"}},
		{"compile without language", &CompileTask{TaskBase: TaskBase{Header: base}, Sources: []string{"s"}, Output: "o"}},
		{"compile without output", &CompileTask{TaskBase: TaskBase{Header: base}, Language: "f90", Sources: []string{"s"}}},
		{"link without objects", &LinkTask{TaskBase: TaskBase{Header: base}, Output: "a.out"}},
		{"link without output", &LinkTask{TaskBase: TaskBase{Header: base}, Objects: []string{"o"}}},
		{"user task without command", &UserTask{TaskBase: TaskBase{Header: base}}},
		{"script without body", &ScriptTask{TaskBase: TaskBase{Header: base}}},
		{"import without destination", &ImportTask{Header: base, Source: ImportSource{Inline: []byte("x")}}},
		{"import without source", &ImportTask{Header: base, To: "f"}},
		{"import with two sources", &ImportTask{Header: base, Source: ImportSource{Inline: []byte("x"), XspacePath: "/x"}, To: "f"}},
		{"export without from", &ExportTask{Header: base, ToXspace: "/x"}},
		{"transfer without files", &TransferTask{Header: base, FromAction: "a"}},
		{"transfer without source", &TransferTask{Header: base, Files: []string{"f"}}},
		{"control without job", &ControlService{Header: base, Op: OpAbort}},
		{"control with bad op", &ControlService{Header: base, Job: "J1", Op: "explode"}},
		{"query without selector", &QueryService{Header: base, Query: "nonsense"}},
		{"status query without job", &QueryService{Header: base, Query: QueryJobStatus}},
		{"page query without target", &QueryService{Header: base, Query: QueryResourcePage}},
		{"missing ID", &UserTask{TaskBase: TaskBase{}, Command: "ls"}},
	}
	for _, c := range cases {
		if err := c.a.Validate(); err == nil {
			t.Errorf("%s: validated", c.name)
		}
	}
}

func TestJobValidateStructure(t *testing.T) {
	mk := func(mut func(*AbstractJob)) *AbstractJob {
		j := sampleJob()
		mut(j)
		return j
	}
	cases := []struct {
		name string
		job  *AbstractJob
	}{
		{"no target", mk(func(j *AbstractJob) { j.Target = core.Target{} })},
		{"duplicate IDs", mk(func(j *AbstractJob) {
			j.Actions = append(j.Actions, &UserTask{TaskBase: TaskBase{Header: Header{ActionID: "imp"}}, Command: "ls"})
		})},
		{"dangling dependency", mk(func(j *AbstractJob) {
			j.Dependencies = append(j.Dependencies, Dependency{Before: "ghost", After: "cc"})
		})},
		{"cyclic dependencies", mk(func(j *AbstractJob) {
			j.Dependencies = append(j.Dependencies, Dependency{Before: "exp", After: "imp"})
		})},
		{"embedded service", mk(func(j *AbstractJob) {
			j.Actions = append(j.Actions, &ListService{Header: Header{ActionID: "svc"}})
		})},
		{"invalid child", mk(func(j *AbstractJob) {
			j.Actions = append(j.Actions, &UserTask{TaskBase: TaskBase{Header: Header{ActionID: "bad"}}})
		})},
		{"dangling transfer source", mk(func(j *AbstractJob) {
			j.Actions = append(j.Actions, &TransferTask{Header: Header{ActionID: "tr"}, FromAction: "ghost", Files: []string{"f"}})
		})},
		{"nil action", mk(func(j *AbstractJob) { j.Actions = append(j.Actions, nil) })},
	}
	for _, c := range cases {
		if err := c.job.Validate(); err == nil {
			t.Errorf("%s: validated", c.name)
		}
	}
}

func TestNestedJobValidates(t *testing.T) {
	inner := sampleJob()
	inner.ActionID = "sub"
	inner.Target = core.Target{Usite: "LRZ", Vsite: "SP2"}
	outer := &AbstractJob{
		Header:  Header{ActionID: "outer"},
		Target:  fzjT3E,
		Actions: ActionList{inner},
	}
	if err := outer.Validate(); err != nil {
		t.Fatal(err)
	}
	// Nested job without target must fail even when the outer has one.
	inner.Target = core.Target{}
	if err := outer.Validate(); err == nil {
		t.Fatal("nested job without target validated")
	}
}

func TestGraphAndFind(t *testing.T) {
	j := sampleJob()
	g, err := j.Check()
	if err != nil {
		t.Fatal(err)
	}
	// The chain dispatches one action at a time, in dependency order.
	done := make([]bool, len(j.Actions))
	var order []string
	for {
		var ready []int
		g.Ready(func(i int) bool { return done[i] }, func(i int) { ready = append(ready, i) })
		if len(ready) == 0 {
			break
		}
		if len(ready) != 1 {
			t.Fatalf("after %v, Ready = %v, want one action", order, ready)
		}
		done[ready[0]] = true
		order = append(order, string(j.Actions[ready[0]].ID()))
	}
	if got := strings.Join(order, " "); got != "imp cc ld run exp" {
		t.Fatalf("dispatch order = %s", got)
	}
	if i, ok := g.Index("run"); !ok || j.Actions[i].ID() != "run" {
		t.Fatalf("Index(run) = %d, %v", i, ok)
	}
	if _, ok := g.Index("ghost"); ok {
		t.Fatal("Index(ghost) succeeded")
	}
}

// chain returns a job of n user tasks, each depending on the one before.
func chain(n int) *AbstractJob {
	j := &AbstractJob{Header: Header{ActionID: "chain"}, Target: fzjT3E}
	for i := 0; i < n; i++ {
		id := ActionID(fmt.Sprintf("t%03d", i))
		j.Actions = append(j.Actions, &UserTask{TaskBase: TaskBase{Header: Header{ActionID: id}}, Command: "ls"})
		if i > 0 {
			j.Dependencies = append(j.Dependencies, Dependency{Before: j.Actions[i-1].ID(), After: id})
		}
	}
	return j
}

// TestValidateAllocationBudget gates the validation a client runs on every
// job before it consigns it: Validate keeps no graph, so a job of up to 16
// actions and no transfer is checked with its IDs and DAG scratch on the
// stack and allocates nothing. Above that its ID list and DAG scratch go to
// the heap, whatever the number of actions.
func TestValidateAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include the race detector's own")
	}
	for _, c := range []struct{ n, max int }{{3, 0}, {16, 0}, {512, 12}} {
		j := chain(c.n)
		if n := testing.AllocsPerRun(20, func() {
			if err := j.Validate(); err != nil {
				t.Fatal(err)
			}
		}); n > float64(c.max) {
			t.Errorf("Validate of a %d-action chain allocates %.0f times, want at most %d", c.n, n, c.max)
		}
	}
}

// TestCheckAllocationBudget gates the graph an NJS keeps: returned by
// value, it costs its ID list and its one index array, whatever its size.
func TestCheckAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include the race detector's own")
	}
	for _, size := range []int{3, 512} {
		j := chain(size)
		if n := testing.AllocsPerRun(20, func() {
			if _, err := j.Check(); err != nil {
				t.Fatal(err)
			}
		}); n > 2 {
			t.Errorf("Check of a %d-action chain allocates %.0f times, want at most 2", size, n)
		}
	}
}

func TestWalkAndCount(t *testing.T) {
	inner := sampleJob()
	inner.ActionID = "sub"
	outer := &AbstractJob{
		Header:  Header{ActionID: "outer"},
		Target:  fzjT3E,
		Actions: ActionList{inner, &UserTask{TaskBase: TaskBase{Header: Header{ActionID: "u"}}, Command: "ls"}},
	}
	// outer + (sub + 5 children) + u = 8
	if got := outer.CountActions(); got != 8 {
		t.Fatalf("CountActions = %d, want 8", got)
	}
	var kinds []Kind
	outer.Walk(func(a Action) { kinds = append(kinds, a.Kind()) })
	if kinds[0] != KindJob || kinds[1] != KindJob {
		t.Fatalf("walk order starts %v", kinds[:2])
	}
}

func TestMaxResources(t *testing.T) {
	j := sampleJob()
	r := j.MaxResources()
	if r.Processors != 64 || r.RunTime != time.Hour {
		t.Fatalf("MaxResources = %+v", r)
	}
}

// child returns the direct child action of j with the given ID, or nil.
func child(j *AbstractJob, id ActionID) Action {
	for _, a := range j.Actions {
		if a.ID() == id {
			return a
		}
	}
	return nil
}

func TestTaskResources(t *testing.T) {
	j := sampleJob()
	run := child(j, "run")
	r, ok := TaskResources(run)
	if !ok || r.Processors != 64 {
		t.Fatalf("TaskResources(run) = %+v, %v", r, ok)
	}
	imp := child(j, "imp")
	if _, ok := TaskResources(imp); ok {
		t.Fatal("file task reported resources")
	}
}

func TestNewIDUnique(t *testing.T) {
	seen := map[ActionID]bool{}
	for i := 0; i < 100; i++ {
		id := NewID("t")
		if seen[id] {
			t.Fatalf("duplicate ID %s", id)
		}
		seen[id] = true
		if !strings.HasPrefix(string(id), "t-") {
			t.Fatalf("ID %s missing prefix", id)
		}
	}
}
