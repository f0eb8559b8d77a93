package ajo

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
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

// NewOutcome initialises a pending outcome for an action. It returns the
// outcome itself, so a caller can keep it inside a larger record.
func NewOutcome(a Action) Outcome {
	return Outcome{Action: a.ID(), Name: a.Name(), Kind: a.Kind(), Status: StatusPending}
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

// Render draws the JMC's job display (§5.7): one line per action with its
// status icon, status and colour, indented by job-group depth, children in
// action-ID order — the text equivalent of the coloured-icon tree.
func (o *Outcome) Render() string {
	var b strings.Builder
	o.render(&b, 0)
	return b.String()
}

func (o *Outcome) render(b *strings.Builder, depth int) {
	fmt.Fprintf(b, "%s%s [%s/%s] %s", strings.Repeat("  ", depth), o.Status.icon(), o.Status, o.Status.Colour(), o.Name)
	if o.Reason != "" {
		fmt.Fprintf(b, " (%s)", o.Reason)
	}
	b.WriteByte('\n')
	children := slices.Clone(o.Children)
	slices.SortStableFunc(children, func(x, y *Outcome) int { return strings.Compare(string(x.Action), string(y.Action)) })
	for _, c := range children {
		c.render(b, depth+1)
	}
}

// icon is the glyph the JMC draws for a status.
func (s Status) icon() string {
	switch s {
	case StatusSuccessful:
		return "●"
	case StatusFailed, StatusNotDone, StatusAborted:
		return "✖"
	case StatusRunning, StatusQueued:
		return "◐"
	default:
		return "○"
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

// MarshalOutcomeJSON renders an outcome tree as indented JSON, for people (a
// CLI's -json output); MarshalOutcome is the form that travels.
func MarshalOutcomeJSON(o *Outcome) ([]byte, error) {
	return json.MarshalIndent(o, "", "  ")
}
