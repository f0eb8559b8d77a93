// Package ajo implements the Abstract Job Object — "a recursive Java object
// specifying the protocol between GUI, server, and system" (paper §4), here
// a recursive Go object. The type hierarchy mirrors Figure 3:
//
//	AbstractAction
//	├── AbstractJobObject            (AbstractJob: the recursive job group)
//	├── AbstractTaskObject
//	│   ├── ExecuteTask
//	│   │   ├── CompileTask
//	│   │   ├── LinkTask
//	│   │   ├── UserTask
//	│   │   └── ExecuteScriptTask    (ScriptTask)
//	│   └── FileTask
//	│       ├── ImportTask
//	│       ├── ExportTask
//	│       └── TransferTask
//	└── AbstractService
//	    ├── ControlService
//	    ├── ListService
//	    └── QueryService
//
// "From a structural viewpoint a UNICORE job is a recursive object
// containing job groups and tasks" (§3): an AbstractJob holds a DAG of
// actions, among which further AbstractJobs may appear, each carrying the
// destination Vsite for its tasks.
//
// # Encodings
//
// "The UNICORE protocol is implemented as … the abstract job object" (§5.3),
// so the AJO has exactly one encoding that travels: Marshal and Unmarshal
// (codec.go), a tagged binary form over the whole recursive tree, built from
// package bin's uvarint primitives like the stream frames and the journal
// records. A consign request carries it, a gateway forwards it to a peer, an
// NJS hands it to a remote Usite and writes it into its journal's admission
// record — all through the same two functions; nothing sends or stores an
// AJO in any other form. The outcome tree that answers an AJO travels the
// same way: WalkOutcome is the binary form a gateway's reply frame carries
// inline, MarshalOutcome and UnmarshalOutcome wrap it as the document the
// journal keeps, MarshalOutcomeJSON is the one a CLI prints.
package ajo

import (
	"errors"
	"fmt"
	"sync/atomic"

	"unicore/internal/core"
	"unicore/internal/dag"
	"unicore/internal/resources"
)

// Kind identifies the concrete class of an action. The values are the class
// names from Figure 3 so serialised AJOs read like the paper.
type Kind string

// The concrete classes of Figure 3.
const (
	KindJob      Kind = "AbstractJobObject"
	KindExecute  Kind = "ExecuteTask"
	KindCompile  Kind = "CompileTask"
	KindLink     Kind = "LinkTask"
	KindUser     Kind = "UserTask"
	KindScript   Kind = "ExecuteScriptTask"
	KindImport   Kind = "ImportTask"
	KindExport   Kind = "ExportTask"
	KindTransfer Kind = "TransferTask"
	KindControl  Kind = "ControlService"
	KindList     Kind = "ListService"
	KindQuery    Kind = "QueryService"
)

// IsExecutable reports whether k incarnates to a batch job (an ExecuteTask
// subclass, as opposed to a FileTask handled by the NJS itself).
func (k Kind) IsExecutable() bool {
	switch k {
	case KindExecute, KindCompile, KindLink, KindUser, KindScript:
		return true
	}
	return false
}

// IsService reports whether k is an AbstractService subclass.
func (k Kind) IsService() bool {
	return k == KindControl || k == KindList || k == KindQuery
}

// ActionID identifies an action uniquely within its enclosing job group.
type ActionID string

var idCounter atomic.Int64

// NewID mints a process-unique action ID for ad-hoc construction. The JPA
// builder assigns its own deterministic IDs.
func NewID(prefix string) ActionID {
	var b [64]byte
	return ActionID(core.AppendSeq(append(append(b[:0], prefix...), '-'), idCounter.Add(1), 6))
}

// Action is the AbstractAction of Figure 3.
type Action interface {
	ID() ActionID
	Name() string
	Kind() Kind
	// Validate checks the action's own fields (not graph structure; the
	// enclosing AbstractJob validates that).
	Validate() error
}

// Header carries the identity shared by every action.
type Header struct {
	ActionID   ActionID `json:"id"`
	ActionName string   `json:"name,omitempty"`
}

// ID returns the action's identifier.
func (h Header) ID() ActionID { return h.ActionID }

// Name returns the human-readable action name.
func (h Header) Name() string { return h.ActionName }

func (h Header) validateHeader() error {
	if h.ActionID == "" {
		return errors.New("ajo: action without ID")
	}
	return nil
}

// TaskBase is shared by all executable tasks: identity plus the resource
// request the NJS incarnates into batch directives (§5.4).
type TaskBase struct {
	Header
	Resources resources.Request `json:"resources,omitempty"`
}

// --- ExecuteTask subclasses ---

// ExecuteTask runs an existing executable from the job's Uspace.
type ExecuteTask struct {
	TaskBase
	Executable  string            `json:"executable"`
	Arguments   []string          `json:"arguments,omitempty"`
	Environment map[string]string `json:"environment,omitempty"`
	Stdin       string            `json:"stdin,omitempty"` // Uspace-relative input file
}

// Kind reports KindExecute.
func (t *ExecuteTask) Kind() Kind { return KindExecute }

// Validate checks the action's own fields; see Action.
func (t *ExecuteTask) Validate() error {
	if err := t.validateHeader(); err != nil {
		return err
	}
	if t.Executable == "" {
		return fmt.Errorf("ajo: ExecuteTask %s: empty executable", t.ActionID)
	}
	return nil
}

// CompileTask compiles sources with the destination system's compiler. "At
// this point in time the compile is implemented for F90" (§5.7); the
// incarnation database decides which compilers exist per Vsite.
type CompileTask struct {
	TaskBase
	Language string   `json:"language"` // e.g. "f90"
	Sources  []string `json:"sources"`  // Uspace-relative source files
	Options  []string `json:"options,omitempty"`
	Output   string   `json:"output"` // Uspace-relative object file
}

// Kind reports KindCompile.
func (t *CompileTask) Kind() Kind { return KindCompile }

// Validate checks the action's own fields; see Action.
func (t *CompileTask) Validate() error {
	if err := t.validateHeader(); err != nil {
		return err
	}
	if t.Language == "" {
		return fmt.Errorf("ajo: CompileTask %s: empty language", t.ActionID)
	}
	if len(t.Sources) == 0 {
		return fmt.Errorf("ajo: CompileTask %s: no sources", t.ActionID)
	}
	if t.Output == "" {
		return fmt.Errorf("ajo: CompileTask %s: empty output", t.ActionID)
	}
	return nil
}

// LinkTask links objects and libraries into an executable.
type LinkTask struct {
	TaskBase
	Objects   []string `json:"objects"`
	Libraries []string `json:"libraries,omitempty"` // abstract names resolved via the resource page
	Output    string   `json:"output"`
}

// Kind reports KindLink.
func (t *LinkTask) Kind() Kind { return KindLink }

// Validate checks the action's own fields; see Action.
func (t *LinkTask) Validate() error {
	if err := t.validateHeader(); err != nil {
		return err
	}
	if len(t.Objects) == 0 {
		return fmt.Errorf("ajo: LinkTask %s: no objects", t.ActionID)
	}
	if t.Output == "" {
		return fmt.Errorf("ajo: LinkTask %s: empty output", t.ActionID)
	}
	return nil
}

// UserTask runs a raw user command line on the destination system.
type UserTask struct {
	TaskBase
	Command string `json:"command"`
}

// Kind reports KindUser.
func (t *UserTask) Kind() Kind { return KindUser }

// Validate checks the action's own fields; see Action.
func (t *UserTask) Validate() error {
	if err := t.validateHeader(); err != nil {
		return err
	}
	if t.Command == "" {
		return fmt.Errorf("ajo: UserTask %s: empty command", t.ActionID)
	}
	return nil
}

// ScriptTask (ExecuteScriptTask) submits an existing batch script — the
// migration path for "existing batch applications" (§5.7).
type ScriptTask struct {
	TaskBase
	Script string `json:"script"` // script text, carried inside the AJO
}

// Kind reports KindScript.
func (t *ScriptTask) Kind() Kind { return KindScript }

// Validate checks the action's own fields; see Action.
func (t *ScriptTask) Validate() error {
	if err := t.validateHeader(); err != nil {
		return err
	}
	if t.Script == "" {
		return fmt.Errorf("ajo: ScriptTask %s: empty script", t.ActionID)
	}
	return nil
}

// --- FileTask subclasses (§5.6 data model) ---

// ImportSource describes where imported data comes from: inline bytes from
// the user's workstation ("files from the user's workstation needed in a job
// are put into the AJO", §5.6), a path in the Vsite's Xspace, or a staged
// upload already spooled at the Vsite. Exactly one of the three must be set.
type ImportSource struct {
	// Inline carries workstation data inside the AJO — fine for small files,
	// but a huge input makes the whole signed consign envelope huge.
	Inline []byte `json:"inline,omitempty"`
	// XspacePath names a file in the destination Vsite's Xspace.
	XspacePath string `json:"xspacePath,omitempty"`
	// Staged references a committed staged upload (the transfer handle
	// returned by the protocol-v2 MsgPutOpen/MsgPutChunk/MsgPutCommit
	// sequence) in the destination Vsite's spool area, so bulk inputs travel
	// ahead of the AJO in CRC-checked chunks instead of inline. The handle
	// must belong to the consigning user.
	Staged string `json:"staged,omitempty"`
}

// count reports how many of the alternative sources are set. A non-nil empty
// Inline counts: it deliberately imports an empty file.
func (s ImportSource) count() int {
	n := 0
	if s.Inline != nil {
		n++
	}
	if s.XspacePath != "" {
		n++
	}
	if s.Staged != "" {
		n++
	}
	return n
}

// ImportTask stages data into the job's Uspace.
type ImportTask struct {
	Header
	Source ImportSource `json:"source"`
	To     string       `json:"to"` // Uspace-relative destination
}

// Kind reports KindImport.
func (t *ImportTask) Kind() Kind { return KindImport }

// Validate checks the action's own fields; see Action.
func (t *ImportTask) Validate() error {
	if err := t.validateHeader(); err != nil {
		return err
	}
	if t.To == "" {
		return fmt.Errorf("ajo: ImportTask %s: empty destination", t.ActionID)
	}
	switch t.Source.count() {
	case 0:
		return fmt.Errorf("ajo: ImportTask %s: no source", t.ActionID)
	case 1:
		return nil
	}
	return fmt.Errorf("ajo: ImportTask %s: more than one of inline, Xspace, and staged source", t.ActionID)
}

// ExportTask copies a result from the Uspace to permanent Xspace storage.
// "Export is done to Xspace at a Vsite ... implemented as a copy process"
// (§5.6).
type ExportTask struct {
	Header
	From     string `json:"from"` // Uspace-relative source
	ToXspace string `json:"toXspace"`
}

// Kind reports KindExport.
func (t *ExportTask) Kind() Kind { return KindExport }

// Validate checks the action's own fields; see Action.
func (t *ExportTask) Validate() error {
	if err := t.validateHeader(); err != nil {
		return err
	}
	if t.From == "" || t.ToXspace == "" {
		return fmt.Errorf("ajo: ExportTask %s: empty from/to", t.ActionID)
	}
	return nil
}

// StagedHandles returns the staged-upload handles referenced by the job's
// direct ImportTasks. A replica pool uses them as the consign-affinity hint:
// the chunks live in one replica's spool, so the admission must land there.
// Only direct children matter — sub-job groups are consigned separately and
// carry their own hints.
func (j *AbstractJob) StagedHandles() []string {
	var out []string
	for _, a := range j.Actions {
		if imp, ok := a.(*ImportTask); ok && imp.Source.Staged != "" {
			out = append(out, imp.Source.Staged)
		}
	}
	return out
}

// TransferTask moves files between the Uspaces of two job groups, possibly
// at different Usites ("the file transfer between Uspaces has to be
// accomplished through NJS – NJS communication via the gateway", §5.6).
// FromAction names a sibling action (normally a sub-AbstractJob) whose
// Uspace holds the files.
type TransferTask struct {
	Header
	FromAction ActionID `json:"fromAction"`
	Files      []string `json:"files"`
}

// Kind reports KindTransfer.
func (t *TransferTask) Kind() Kind { return KindTransfer }

// Validate checks the action's own fields; see Action.
func (t *TransferTask) Validate() error {
	if err := t.validateHeader(); err != nil {
		return err
	}
	if t.FromAction == "" {
		return fmt.Errorf("ajo: TransferTask %s: empty source action", t.ActionID)
	}
	if len(t.Files) == 0 {
		return fmt.Errorf("ajo: TransferTask %s: no files", t.ActionID)
	}
	return nil
}

// --- AbstractService subclasses ---

// ControlOp enumerates job-control operations.
type ControlOp string

// The job-control operations a ControlService may carry.
const (
	OpAbort  ControlOp = "abort"
	OpHold   ControlOp = "hold"
	OpResume ControlOp = "resume"
)

// ControlService controls a previously consigned job (JMC "control the
// jobs", §5.2).
type ControlService struct {
	Header
	Job core.JobID `json:"job"`
	Op  ControlOp  `json:"op"`
}

// Kind reports KindControl.
func (s *ControlService) Kind() Kind { return KindControl }

// Validate checks the action's own fields; see Action.
func (s *ControlService) Validate() error {
	if err := s.validateHeader(); err != nil {
		return err
	}
	if s.Job == "" {
		return fmt.Errorf("ajo: ControlService %s: empty job", s.ActionID)
	}
	switch s.Op {
	case OpAbort, OpHold, OpResume:
		return nil
	}
	return fmt.Errorf("ajo: ControlService %s: unknown op %q", s.ActionID, s.Op)
}

// ListService lists the consigning user's jobs at a Usite.
type ListService struct {
	Header
}

// Kind reports KindList.
func (s *ListService) Kind() Kind { return KindList }

// Validate checks the action's own fields; see Action.
func (s *ListService) Validate() error { return s.validateHeader() }

// QueryKind selects what a QueryService asks for.
type QueryKind string

// What a QueryService may ask for.
const (
	QueryJobStatus    QueryKind = "jobStatus"
	QueryResourcePage QueryKind = "resourcePage"
)

// QueryService retrieves job status or a Vsite resource page.
type QueryService struct {
	Header
	Query  QueryKind   `json:"query"`
	Job    core.JobID  `json:"jobID,omitempty"`
	Target core.Target `json:"target,omitempty"`
}

// Kind reports KindQuery.
func (s *QueryService) Kind() Kind { return KindQuery }

// Validate checks the action's own fields; see Action.
func (s *QueryService) Validate() error {
	if err := s.validateHeader(); err != nil {
		return err
	}
	switch s.Query {
	case QueryJobStatus:
		if s.Job == "" {
			return fmt.Errorf("ajo: QueryService %s: job status query without job", s.ActionID)
		}
	case QueryResourcePage:
		if s.Target.IsZero() {
			return fmt.Errorf("ajo: QueryService %s: resource page query without target", s.ActionID)
		}
	default:
		return fmt.Errorf("ajo: QueryService %s: unknown query %q", s.ActionID, s.Query)
	}
	return nil
}

// --- AbstractJobObject ---

// Dependency declares that After runs only once Before completed
// successfully. Files optionally names data sets "created by the
// predecessor [that must be] available to the successor" (§5.7); within one
// job group they share the Uspace, across job groups the NJS transfers them.
type Dependency struct {
	Before ActionID `json:"before"`
	After  ActionID `json:"after"`
	Files  []string `json:"files,omitempty"`
}

// AbstractJob is the AbstractJobObject of Figure 3: the recursive job group.
// It "contains the directed acyclic job graph representing the job
// components together with their dependencies and information about the
// destination site (Vsite), the user, site specific security, and the user
// account group" (§5.3).
type AbstractJob struct {
	Header
	Target       core.Target       `json:"target"`
	UserDN       core.DN           `json:"userDN,omitempty"`  // set by the consigning client
	Project      string            `json:"project,omitempty"` // user account group
	SiteSecurity map[string]string `json:"siteSecurity,omitempty"`
	Actions      ActionList        `json:"actions"`
	Dependencies []Dependency      `json:"dependencies,omitempty"`
}

// ActionList is the list of an AbstractJob's components, each any Action.
type ActionList []Action

// Kind reports KindJob.
func (j *AbstractJob) Kind() Kind { return KindJob }

// Find returns the direct child action with the given ID.
func (j *AbstractJob) Find(id ActionID) (Action, bool) {
	for _, a := range j.Actions {
		if a.ID() == id {
			return a, true
		}
	}
	return nil, false
}

// Graph builds the dependency DAG over the job's direct children.
func (j *AbstractJob) Graph() (*dag.Graph, error) {
	ids := make([]string, len(j.Actions))
	for i, a := range j.Actions {
		ids[i] = string(a.ID())
	}
	edges := make([][2]string, len(j.Dependencies))
	for i, d := range j.Dependencies {
		edges[i] = [2]string{string(d.Before), string(d.After)}
	}
	return dag.Build(ids, edges)
}

// Validate checks the whole recursive structure: action field validity,
// unique IDs per level, dependency references, acyclicity, and that nested
// job groups carry a destination.
func (j *AbstractJob) Validate() error { _, err := j.Check(); return err }

// Check is Validate that also returns the job's own graph (Graph). It is not
// kept on the job: a job may be validated from several goroutines.
func (j *AbstractJob) Check() (*dag.Graph, error) {
	if err := j.validateHeader(); err != nil {
		return nil, err
	}
	if j.Target.IsZero() {
		return nil, fmt.Errorf("ajo: job %s: no destination Vsite", j.ActionID)
	}
	seen := make(map[ActionID]bool, len(j.Actions))
	for _, a := range j.Actions {
		if a == nil {
			return nil, fmt.Errorf("ajo: job %s: nil action", j.ActionID)
		}
		if seen[a.ID()] {
			return nil, fmt.Errorf("ajo: job %s: duplicate action ID %q", j.ActionID, a.ID())
		}
		seen[a.ID()] = true
		if a.Kind().IsService() {
			return nil, fmt.Errorf("ajo: job %s: service %s cannot be a job component", j.ActionID, a.ID())
		}
		if err := a.Validate(); err != nil {
			return nil, fmt.Errorf("ajo: job %s: %w", j.ActionID, err)
		}
	}
	for _, d := range j.Dependencies {
		if !seen[d.Before] {
			return nil, fmt.Errorf("ajo: job %s: dependency references unknown action %q", j.ActionID, d.Before)
		}
		if !seen[d.After] {
			return nil, fmt.Errorf("ajo: job %s: dependency references unknown action %q", j.ActionID, d.After)
		}
	}
	// TransferTask sources must reference sibling actions.
	for _, a := range j.Actions {
		if tr, ok := a.(*TransferTask); ok {
			if !seen[tr.FromAction] {
				return nil, fmt.Errorf("ajo: job %s: transfer %s references unknown action %q", j.ActionID, tr.ActionID, tr.FromAction)
			}
		}
	}
	g, err := j.Graph()
	if err != nil {
		return nil, fmt.Errorf("ajo: job %s: %w", j.ActionID, err)
	}
	return g, nil
}

// Walk visits the job and, recursively, every nested action (pre-order).
func (j *AbstractJob) Walk(visit func(Action)) {
	visit(j)
	for _, a := range j.Actions {
		if sub, ok := a.(*AbstractJob); ok {
			sub.Walk(visit)
		} else {
			visit(a)
		}
	}
}

// CountActions returns the total number of actions in the tree, including
// the root.
func (j *AbstractJob) CountActions() int {
	n := 0
	j.Walk(func(Action) { n++ })
	return n
}

// MaxResources returns the component-wise maximum resource request across
// every executable task in this job group (not descending into sub-jobs,
// which are incarnated at their own Vsites).
func (j *AbstractJob) MaxResources() resources.Request {
	var r resources.Request
	for _, a := range j.Actions {
		switch t := a.(type) {
		case *ExecuteTask:
			r = r.Max(t.Resources)
		case *CompileTask:
			r = r.Max(t.Resources)
		case *LinkTask:
			r = r.Max(t.Resources)
		case *UserTask:
			r = r.Max(t.Resources)
		case *ScriptTask:
			r = r.Max(t.Resources)
		}
	}
	return r
}

// TaskResources extracts the resource request of an executable task action,
// if it has one.
func TaskResources(a Action) (resources.Request, bool) {
	switch t := a.(type) {
	case *ExecuteTask:
		return t.Resources, true
	case *CompileTask:
		return t.Resources, true
	case *LinkTask:
		return t.Resources, true
	case *UserTask:
		return t.Resources, true
	case *ScriptTask:
		return t.Resources, true
	}
	return resources.Request{}, false
}

// Interface conformance checks.
var (
	_ Action = (*AbstractJob)(nil)
	_ Action = (*ExecuteTask)(nil)
	_ Action = (*CompileTask)(nil)
	_ Action = (*LinkTask)(nil)
	_ Action = (*UserTask)(nil)
	_ Action = (*ScriptTask)(nil)
	_ Action = (*ImportTask)(nil)
	_ Action = (*ExportTask)(nil)
	_ Action = (*TransferTask)(nil)
	_ Action = (*ControlService)(nil)
	_ Action = (*ListService)(nil)
	_ Action = (*QueryService)(nil)
)
