package ajo

import (
	"bytes"
	"fmt"
	"strings"
	"time"
)

// Status is the state of an abstract action. "A Java class Outcome is
// defined to contain the status of an abstract action and the results of its
// execution" (§5.3); the JMC colours its icons from these states (§5.7).
type Status int

const (
	// StatusPending: consigned but not yet eligible (predecessors unfinished).
	StatusPending Status = iota
	// StatusQueued: delivered to the destination batch system, waiting.
	StatusQueued
	// StatusRunning: executing on the destination system.
	StatusRunning
	// StatusHeld: suspended by a ControlService hold.
	StatusHeld
	// StatusSuccessful: completed with exit code zero.
	StatusSuccessful
	// StatusFailed: completed unsuccessfully.
	StatusFailed
	// StatusAborted: cancelled by a ControlService abort.
	StatusAborted
	// StatusNotDone: never ran because a predecessor failed or was aborted.
	StatusNotDone
)

var statusNames = [...]string{
	"PENDING", "QUEUED", "RUNNING", "HELD",
	"SUCCESSFUL", "FAILED", "ABORTED", "NOT_DONE",
}

// String renders the status as the JMC shows it (SUCCESSFUL, NOT_DONE, …).
func (s Status) String() string {
	if s < 0 || int(s) >= len(statusNames) {
		return fmt.Sprintf("Status(%d)", int(s))
	}
	return statusNames[s]
}

// Terminal reports whether the status is final.
func (s Status) Terminal() bool {
	switch s {
	case StatusSuccessful, StatusFailed, StatusAborted, StatusNotDone:
		return true
	}
	return false
}

// Colour returns the JMC display colour for the status — "the icons are
// colored to reflect the job status in a seamless way" (§5.7).
func (s Status) Colour() string {
	switch s {
	case StatusSuccessful:
		return "green"
	case StatusFailed, StatusAborted:
		return "red"
	case StatusRunning:
		return "yellow"
	case StatusQueued, StatusPending, StatusHeld:
		return "blue"
	default:
		return "grey"
	}
}

// FileRecord describes a file produced or exported by an action.
type FileRecord struct {
	Path string `json:"path"`
	Size int64  `json:"size"`
	CRC  uint64 `json:"crc,omitempty"`
}

// Outcome carries the status and results of one action; job outcomes contain
// one child outcome per component, mirroring the AJO recursion.
type Outcome struct {
	Action   ActionID     `json:"action"`
	Name     string       `json:"name,omitempty"`
	Kind     Kind         `json:"kind"`
	Status   Status       `json:"status"`
	Reason   string       `json:"reason,omitempty"`
	ExitCode int          `json:"exitCode,omitempty"`
	Stdout   []byte       `json:"stdout,omitempty"`
	Stderr   []byte       `json:"stderr,omitempty"`
	Files    []FileRecord `json:"files,omitempty"`
	Started  time.Time    `json:"started,omitempty"`
	Finished time.Time    `json:"finished,omitempty"`
	Children []*Outcome   `json:"children,omitempty"`
}

// NewOutcome initialises a pending outcome for an action.
func NewOutcome(a Action) *Outcome {
	return &Outcome{Action: a.ID(), Name: a.Name(), Kind: a.Kind(), Status: StatusPending}
}

// Clone returns a deep copy of the tree rooted at o: no node, output buffer,
// file list or child list of the copy is shared with the original.
func (o *Outcome) Clone() *Outcome {
	cp := *o
	cp.Stdout = bytes.Clone(o.Stdout)
	cp.Stderr = bytes.Clone(o.Stderr)
	if o.Files != nil {
		cp.Files = append([]FileRecord(nil), o.Files...)
	}
	if o.Children != nil {
		cp.Children = make([]*Outcome, len(o.Children))
		for i, c := range o.Children {
			cp.Children[i] = c.Clone()
		}
	}
	return &cp
}

// Find locates the outcome for id in the tree rooted at o (including o).
func (o *Outcome) Find(id ActionID) (*Outcome, bool) {
	if o.Action == id {
		return o, true
	}
	for _, c := range o.Children {
		if hit, ok := c.Find(id); ok {
			return hit, true
		}
	}
	return nil, false
}

// Aggregate computes a job-level status from child statuses: failure and
// abort dominate, then any non-terminal state keeps the job live, otherwise
// success.
func Aggregate(children []*Outcome) Status {
	if len(children) == 0 {
		return StatusSuccessful
	}
	sawRunning, sawQueuedOrPending := false, false
	for _, c := range children {
		switch c.Status {
		case StatusFailed:
			return StatusFailed
		case StatusAborted:
			return StatusAborted
		case StatusRunning, StatusHeld:
			sawRunning = true
		case StatusQueued, StatusPending:
			sawQueuedOrPending = true
		case StatusNotDone:
			return StatusFailed
		}
	}
	if sawRunning {
		return StatusRunning
	}
	if sawQueuedOrPending {
		return StatusQueued
	}
	return StatusSuccessful
}

// Render produces the JMC-style indented status tree: one line per action
// with its colour, "depending on the chosen level of detail the status is
// displayed for job groups and/or tasks" (§5.7). depth < 0 renders fully.
func (o *Outcome) Render(depth int) string {
	var b strings.Builder
	o.render(&b, 0, depth)
	return b.String()
}

func (o *Outcome) render(b *strings.Builder, level, depth int) {
	fmt.Fprintf(b, "%s[%s] %s %s", strings.Repeat("  ", level), o.Status.Colour(), o.Kind, o.Action)
	if o.Name != "" {
		fmt.Fprintf(b, " (%s)", o.Name)
	}
	fmt.Fprintf(b, ": %s", o.Status)
	if o.Reason != "" {
		fmt.Fprintf(b, " — %s", o.Reason)
	}
	b.WriteByte('\n')
	if depth == 0 {
		return
	}
	for _, c := range o.Children {
		c.render(b, level+1, depth-1)
	}
}

// Summary is the compact per-job status the poll endpoint returns.
type Summary struct {
	Job     string    `json:"job"`
	Status  Status    `json:"status"`
	Total   int       `json:"total"`  // total actions
	Done    int       `json:"done"`   // terminal actions
	Failed  int       `json:"failed"` // failed/aborted/notdone actions
	Updated time.Time `json:"updated"`
}

// Summarise folds an outcome tree into a Summary (job field left empty).
func Summarise(root *Outcome) Summary {
	var s Summary
	var rec func(o *Outcome)
	rec = func(o *Outcome) {
		s.Total++
		if o.Status.Terminal() {
			s.Done++
		}
		switch o.Status {
		case StatusFailed, StatusAborted, StatusNotDone:
			s.Failed++
		}
		for _, c := range o.Children {
			rec(c)
		}
	}
	rec(root)
	s.Status = root.Status
	return s
}
