package ajo

import (
	"testing"
)

func TestStatusStringsAndTerminal(t *testing.T) {
	cases := []struct {
		s        Status
		name     string
		terminal bool
	}{
		{StatusPending, "PENDING", false},
		{StatusQueued, "QUEUED", false},
		{StatusRunning, "RUNNING", false},
		{StatusHeld, "HELD", false},
		{StatusSuccessful, "SUCCESSFUL", true},
		{StatusFailed, "FAILED", true},
		{StatusAborted, "ABORTED", true},
		{StatusNotDone, "NOT_DONE", true},
	}
	for _, c := range cases {
		if c.s.String() != c.name {
			t.Errorf("String(%d) = %q, want %q", c.s, c.s.String(), c.name)
		}
		if c.s.Terminal() != c.terminal {
			t.Errorf("%s.Terminal() = %v", c.name, c.s.Terminal())
		}
	}
	if Status(99).String() != "Status(99)" {
		t.Errorf("out-of-range String = %q", Status(99).String())
	}
}

func TestStatusColours(t *testing.T) {
	if StatusSuccessful.Colour() != "green" || StatusFailed.Colour() != "red" ||
		StatusRunning.Colour() != "yellow" || StatusQueued.Colour() != "blue" {
		t.Fatal("JMC colours wrong")
	}
	if Status(99).Colour() != "grey" {
		t.Fatal("unknown status colour")
	}
}

func TestAggregate(t *testing.T) {
	mk := func(ss ...Status) []*Outcome {
		var out []*Outcome
		for _, s := range ss {
			out = append(out, &Outcome{Status: s})
		}
		return out
	}
	cases := []struct {
		name string
		in   []*Outcome
		want Status
	}{
		{"empty", nil, StatusSuccessful},
		{"all success", mk(StatusSuccessful, StatusSuccessful), StatusSuccessful},
		{"one failed dominates", mk(StatusSuccessful, StatusFailed, StatusRunning), StatusFailed},
		{"abort dominates running", mk(StatusRunning, StatusAborted), StatusAborted},
		{"running beats queued", mk(StatusQueued, StatusRunning), StatusRunning},
		{"held counts as live", mk(StatusHeld, StatusSuccessful), StatusRunning},
		{"queued when only waiting", mk(StatusQueued, StatusPending), StatusQueued},
		{"notdone folds to failed", mk(StatusSuccessful, StatusNotDone), StatusFailed},
	}
	for _, c := range cases {
		if got := Aggregate(c.in); got != c.want {
			t.Errorf("%s: Aggregate = %s, want %s", c.name, got, c.want)
		}
	}
}

func treeOutcome() *Outcome {
	return &Outcome{
		Action: "job", Kind: KindJob, Status: StatusRunning, Name: "cfd",
		Children: []*Outcome{
			{Action: "cc", Kind: KindCompile, Status: StatusSuccessful},
			{Action: "run", Kind: KindExecute, Status: StatusRunning, Reason: "on T3E",
				Children: nil},
			{Action: "sub", Kind: KindJob, Status: StatusQueued,
				Children: []*Outcome{
					{Action: "sub.t", Kind: KindUser, Status: StatusQueued},
				}},
		},
	}
}

func TestOutcomeFind(t *testing.T) {
	o := treeOutcome()
	hit, ok := o.Find("sub.t")
	if !ok || hit.Kind != KindUser {
		t.Fatalf("Find(sub.t) = %+v, %v", hit, ok)
	}
	if _, ok := o.Find("nope"); ok {
		t.Fatal("found phantom action")
	}
	self, ok := o.Find("job")
	if !ok || self != o {
		t.Fatal("Find(self) failed")
	}
}

// TestRenderDepth pins the JMC display byte for byte: icon,
// status and colour per line, two spaces per job-group level, children in
// action-ID order whatever order the tree holds them in.
func TestRenderDepth(t *testing.T) {
	o := &Outcome{
		Action: "job", Kind: KindJob, Status: StatusRunning, Name: "cfd",
		Children: []*Outcome{
			{Action: "run", Kind: KindExecute, Status: StatusRunning, Name: "solve", Reason: "on T3E"},
			{Action: "cc", Kind: KindCompile, Status: StatusSuccessful, Name: "compile"},
			{Action: "sub", Kind: KindJob, Status: StatusFailed, Name: "post",
				Children: []*Outcome{
					{Action: "sub.t", Kind: KindUser, Status: StatusNotDone, Name: "plot"},
					{Action: "sub.a", Kind: KindUser, Status: StatusPending, Name: "archive"},
				}},
		},
	}
	want := "◐ [RUNNING/yellow] cfd\n" +
		"  ● [SUCCESSFUL/green] compile\n" +
		"  ◐ [RUNNING/yellow] solve (on T3E)\n" +
		"  ✖ [FAILED/red] post\n" +
		"    ○ [PENDING/blue] archive\n" +
		"    ✖ [NOT_DONE/grey] plot\n"
	if got := o.Render(); got != want {
		t.Fatalf("Render:\n%s\nwant:\n%s", got, want)
	}
	if o.Children[0].Action != "run" {
		t.Fatal("Render reordered the tree it drew")
	}
}

func TestSummarise(t *testing.T) {
	s := Summarise(treeOutcome())
	if s.Total != 5 {
		t.Fatalf("Total = %d, want 5", s.Total)
	}
	if s.Done != 1 {
		t.Fatalf("Done = %d, want 1 (only cc terminal)", s.Done)
	}
	if s.Failed != 0 {
		t.Fatalf("Failed = %d", s.Failed)
	}
	if s.Status != StatusRunning {
		t.Fatalf("Status = %s", s.Status)
	}
}

func TestNewOutcome(t *testing.T) {
	task := &UserTask{TaskBase: TaskBase{Header: Header{ActionID: "u1", ActionName: "list"}}, Command: "ls"}
	o := NewOutcome(task)
	if o.Action != "u1" || o.Name != "list" || o.Kind != KindUser || o.Status != StatusPending {
		t.Fatalf("NewOutcome = %+v", o)
	}
}
