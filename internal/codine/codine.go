// Package codine implements the resource-management system of the batch
// tier. The UNICORE prototype embedded "the resource management system
// Codine provided by Genias Software GmbH as part of NJS" (paper §5.1); this
// package provides the operations the NJS drives — submit, observe, cancel —
// on top of a deterministic discrete-event core, plus the queue/slot
// accounting a site scheduler needs.
//
// Jobs execute through the shell interpreter against the Vsite's file
// system; the simulated CPU time a script consumes, divided by the machine's
// speed factor, becomes the job's wall time on the virtual clock. The
// scheduler is FCFS with optional EASY backfill (an ablation studied in
// bench BenchmarkAblation_Backfill).
package codine

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"unicore/internal/machine"
	"unicore/internal/shell"
	"unicore/internal/sim"
	"unicore/internal/vfs"
)

// Errors returned by RMS operations.
var (
	ErrUnknownJob   = errors.New("codine: unknown job")
	ErrUnknownQueue = errors.New("codine: unknown queue")
	ErrBadState     = errors.New("codine: operation invalid in current state")
	ErrBadRequest   = errors.New("codine: malformed job specification")
	ErrOverCapacity = errors.New("codine: request exceeds queue capacity")
)

// JobID identifies a batch job within one RMS instance.
type JobID int64

// State is a batch job's lifecycle state.
type State int

// Batch job states, in lifecycle order.
const (
	// StatePending is queued, waiting for slots.
	StatePending State = iota
	// StateRunning holds slots and executes.
	StateRunning
	// StateDone finished with exit code 0.
	StateDone
	// StateFailed finished with a non-zero exit code or over its time limit.
	StateFailed
	// StateCancelled was cancelled before it finished.
	StateCancelled
)

var stateNames = [...]string{"PENDING", "RUNNING", "DONE", "FAILED", "CANCELLED"}

// String returns the state's upper-case name.
func (s State) String() string {
	if s < 0 || int(s) >= len(stateNames) {
		return fmt.Sprintf("State(%d)", int(s))
	}
	return stateNames[s]
}

// Queue configures one batch queue.
type Queue struct {
	Name     string
	Slots    int           // concurrently usable PEs
	MaxTime  time.Duration // per-job wall limit
	MaxSlots int           // per-job slot limit (0 = Slots)
}

// JobSpec describes a batch job at submission.
type JobSpec struct {
	Name      string
	Owner     string // local uid (after gateway mapping)
	Project   string
	Queue     string
	Slots     int           // PEs requested
	TimeLimit time.Duration // requested wall limit
	Script    string        // batch script (incarnated by the NJS)
	Env       map[string]string
	WorkDir   string  // working directory (the job's Uspace)
	FS        *vfs.FS // the Vsite data space
	// Done, when set, is invoked exactly once when the job reaches a
	// terminal state. It runs on the clock's firing goroutine.
	Done func(JobID, Result)
}

// Result is the terminal record of a job.
type Result struct {
	State     State
	ExitCode  int
	Stdout    string
	Stderr    string
	Reason    string // failure reason (time limit, cancelled, script error)
	CPUTime   time.Duration
	WallTime  time.Duration
	QueueWait time.Duration
}

// Record is one accounting line (§6 mentions accounting as the basis for
// brokerage; the broker package consumes these).
type Record struct {
	Job      JobID
	Name     string
	Owner    string
	Project  string
	Queue    string
	Slots    int
	Submit   time.Time
	Start    time.Time
	End      time.Time
	CPUTime  time.Duration
	State    State
	ExitCode int
}

// EventType tags scheduler events.
type EventType string

// Scheduler events, one per state change.
const (
	// EventSubmitted follows a successful Submit.
	EventSubmitted EventType = "submitted"
	// EventStarted marks a dispatch: the job holds its slots.
	EventStarted EventType = "started"
	// EventFinished marks a transition to StateDone.
	EventFinished EventType = "finished"
	// EventFailed marks a transition to StateFailed.
	EventFailed EventType = "failed"
	// EventCancelled marks a transition to StateCancelled.
	EventCancelled EventType = "cancelled"
)

// Event is a scheduler occurrence delivered to observers.
type Event struct {
	Type EventType
	Job  JobID
	Time time.Time
}

// job is the internal job record.
type job struct {
	id     JobID
	spec   JobSpec
	state  State
	submit time.Time
	start  time.Time
	end    time.Time
	result Result
	timer  sim.Timer // completion event when running
}

// Config configures an RMS instance.
type Config struct {
	Machine  machine.Profile
	Queues   []Queue
	Backfill bool
	// ExtraTools are merged over the machine toolchain for script runs
	// (site-specific utilities).
	ExtraTools map[string]shell.Tool
	// DispatchOverhead is added to every job's wall time (queue manager
	// latency). Defaults to 500ms.
	DispatchOverhead time.Duration
}

// RMS is one Vsite's batch subsystem.
type RMS struct {
	mu        sync.Mutex
	clock     sim.Scheduler
	cfg       Config
	queues    map[string]*queueState
	jobs      map[JobID]*job
	nextID    JobID
	records   []Record
	observers []func(Event)
}

type queueState struct {
	cfg     Queue
	used    int     // slots currently running
	pending []JobID // FIFO order
}

// New creates an RMS on the given clock. At least one queue is required;
// queue 0 is the default queue.
func New(clock sim.Scheduler, cfg Config) (*RMS, error) {
	if clock == nil {
		return nil, errors.New("codine: nil clock")
	}
	if len(cfg.Queues) == 0 {
		return nil, errors.New("codine: no queues configured")
	}
	if cfg.Machine.SpeedFactor <= 0 {
		return nil, fmt.Errorf("codine: machine %q has no speed factor", cfg.Machine.Name)
	}
	if cfg.DispatchOverhead == 0 {
		cfg.DispatchOverhead = 500 * time.Millisecond
	}
	r := &RMS{
		clock:  clock,
		cfg:    cfg,
		queues: make(map[string]*queueState, len(cfg.Queues)),
		jobs:   make(map[JobID]*job),
	}
	for _, q := range cfg.Queues {
		if q.Slots <= 0 {
			return nil, fmt.Errorf("codine: queue %q has no slots", q.Name)
		}
		if q.MaxSlots == 0 || q.MaxSlots > q.Slots {
			q.MaxSlots = q.Slots
		}
		if q.MaxTime == 0 {
			q.MaxTime = 24 * time.Hour
		}
		r.queues[q.Name] = &queueState{cfg: q}
	}
	return r, nil
}

// Machine returns the configured machine profile.
func (r *RMS) Machine() machine.Profile { return r.cfg.Machine }

// Observe registers an event observer (called synchronously, in order).
func (r *RMS) Observe(fn func(Event)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.observers = append(r.observers, fn)
}

func (r *RMS) emitLocked(t EventType, id JobID) {
	ev := Event{Type: t, Job: id, Time: r.clock.Now()}
	obs := append([]func(Event){}, r.observers...)
	// Deliver outside the lock to let observers call back into the RMS.
	r.mu.Unlock()
	for _, fn := range obs {
		fn(ev)
	}
	r.mu.Lock()
}

// Submit enqueues a job, validating it against the queue limits — "jobs
// delivered through UNICORE are treated the same way any other batch job is
// treated" (§5.5).
func (r *RMS) Submit(spec JobSpec) (JobID, error) {
	if spec.Script == "" || spec.Owner == "" {
		return 0, fmt.Errorf("%w: missing script or owner", ErrBadRequest)
	}
	if spec.FS == nil {
		return 0, fmt.Errorf("%w: no file system", ErrBadRequest)
	}
	if spec.Slots <= 0 {
		spec.Slots = 1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if spec.Queue == "" {
		spec.Queue = r.cfg.Queues[0].Name
	}
	q, ok := r.queues[spec.Queue]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownQueue, spec.Queue)
	}
	if spec.Slots > q.cfg.MaxSlots {
		return 0, fmt.Errorf("%w: %d slots > queue max %d", ErrOverCapacity, spec.Slots, q.cfg.MaxSlots)
	}
	if spec.TimeLimit == 0 {
		spec.TimeLimit = q.cfg.MaxTime
	}
	if spec.TimeLimit > q.cfg.MaxTime {
		return 0, fmt.Errorf("%w: time limit %s > queue max %s", ErrOverCapacity, spec.TimeLimit, q.cfg.MaxTime)
	}
	r.nextID++
	id := r.nextID
	j := &job{id: id, spec: spec, state: StatePending, submit: r.clock.Now()}
	r.jobs[id] = j
	q.pending = append(q.pending, id)
	r.emitLocked(EventSubmitted, id)
	r.scheduleLocked()
	return id, nil
}

// Cancel terminates a pending or running job.
func (r *RMS) Cancel(id JobID) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.jobs[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownJob, id)
	}
	switch j.state {
	case StatePending:
		q := r.queues[j.spec.Queue]
		q.pending = removeID(q.pending, id)
	case StateRunning:
		if j.timer != nil {
			j.timer.Stop()
		}
		r.queues[j.spec.Queue].used -= j.spec.Slots
	default:
		return fmt.Errorf("%w: cancel on %s job", ErrBadState, j.state)
	}
	r.finishLocked(j, StateCancelled, Result{State: StateCancelled, Reason: "cancelled", ExitCode: -1})
	r.scheduleLocked()
	return nil
}

func removeID(ids []JobID, id JobID) []JobID {
	out := ids[:0]
	for _, x := range ids {
		if x != id {
			out = append(out, x)
		}
	}
	return out
}

// scheduleLocked dispatches as many pending jobs as fit. FCFS per queue;
// with backfill enabled, jobs behind a blocked head may start when they
// cannot delay the head's earliest possible start (EASY backfill).
func (r *RMS) scheduleLocked() {
	names := make([]string, 0, len(r.queues))
	for n := range r.queues {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		r.scheduleQueueLocked(r.queues[n])
	}
}

func (r *RMS) scheduleQueueLocked(q *queueState) {
	for {
		progressed := false
		// Dispatch from the head while it fits.
		for len(q.pending) > 0 {
			head := r.jobs[q.pending[0]]
			if head.state != StatePending {
				q.pending = q.pending[1:]
				continue
			}
			if q.used+head.spec.Slots > q.cfg.Slots {
				break
			}
			q.pending = q.pending[1:]
			r.dispatchLocked(q, head)
			progressed = true
		}
		if !r.cfg.Backfill || len(q.pending) == 0 {
			if !progressed {
				return
			}
			continue
		}
		// EASY backfill: compute the shadow time at which the head could
		// start, then start any later job that fits now and finishes (by
		// its time limit) before the shadow time, or that fits beside the
		// head's reservation.
		head := r.jobs[q.pending[0]]
		shadow, spareAtShadow := r.shadowLocked(q, head)
		backfilled := false
		for i := 1; i < len(q.pending); i++ {
			cand := r.jobs[q.pending[i]]
			if cand.state != StatePending || q.used+cand.spec.Slots > q.cfg.Slots {
				continue
			}
			finishBy := r.clock.Now().Add(cand.spec.TimeLimit + r.cfg.DispatchOverhead)
			fitsWindow := !finishBy.After(shadow)
			fitsBeside := cand.spec.Slots <= spareAtShadow
			if fitsWindow || fitsBeside {
				q.pending = append(q.pending[:i], q.pending[i+1:]...)
				r.dispatchLocked(q, cand)
				if fitsBeside && !fitsWindow {
					spareAtShadow -= cand.spec.Slots
				}
				backfilled = true
				break // rescan: used/pending changed
			}
		}
		if !backfilled && !progressed {
			return
		}
	}
}

// shadowLocked returns the earliest time enough slots free up for the head
// job, and the slots that would remain free at that time after the head
// starts.
func (r *RMS) shadowLocked(q *queueState, head *job) (time.Time, int) {
	type rel struct {
		at    time.Time
		slots int
	}
	var rels []rel
	for _, j := range r.jobs {
		if j.state == StateRunning && j.spec.Queue == q.cfg.Name {
			rels = append(rels, rel{j.start.Add(j.spec.TimeLimit + r.cfg.DispatchOverhead), j.spec.Slots})
		}
	}
	sort.Slice(rels, func(i, k int) bool { return rels[i].at.Before(rels[k].at) })
	free := q.cfg.Slots - q.used
	now := r.clock.Now()
	shadow := now
	for _, rl := range rels {
		if free >= head.spec.Slots {
			break
		}
		free += rl.slots
		shadow = rl.at
	}
	if free < head.spec.Slots {
		// Even with everything finished it never fits (guarded at submit,
		// but stay safe): place the shadow after the last release.
		if len(rels) > 0 {
			shadow = rels[len(rels)-1].at
		}
		return shadow, 0
	}
	return shadow, free - head.spec.Slots
}

// dispatchLocked starts a job: runs its script through the interpreter,
// derives the wall time, and schedules the completion event.
func (r *RMS) dispatchLocked(q *queueState, j *job) {
	j.state = StateRunning
	j.start = r.clock.Now()
	q.used += j.spec.Slots

	tools := make(map[string]shell.Tool)
	for k, v := range r.cfg.Machine.Tools() {
		tools[k] = v
	}
	for k, v := range r.cfg.ExtraTools {
		tools[k] = v
	}
	env := map[string]string{
		"USER":         j.spec.Owner,
		"QSUB_REQNAME": j.spec.Name,
		"JOB_ID":       fmt.Sprintf("%d", j.id),
		"QUEUE":        q.cfg.Name,
	}
	for k, v := range j.spec.Env {
		env[k] = v
	}
	ctx := &shell.Ctx{FS: j.spec.FS, Cwd: j.spec.WorkDir, Env: env, Tools: tools}
	sres := shell.Run(ctx, j.spec.Script)

	// Wall time: dispatch overhead plus simulated compute scaled by machine
	// speed. Parallel slots do not shorten the script's declared cpu time —
	// the cpu directives already describe the parallel section's duration.
	wall := r.cfg.DispatchOverhead + time.Duration(float64(sres.CPUTime)/r.cfg.Machine.SpeedFactor)
	timedOut := wall > j.spec.TimeLimit
	if timedOut {
		wall = j.spec.TimeLimit
	}

	res := Result{
		ExitCode:  sres.ExitCode,
		Stdout:    sres.Stdout,
		Stderr:    sres.Stderr,
		CPUTime:   sres.CPUTime,
		WallTime:  wall,
		QueueWait: j.start.Sub(j.submit),
	}
	switch {
	case timedOut:
		res.State = StateFailed
		res.Reason = "wall clock limit exceeded"
		res.ExitCode = -1
	case sres.ExitCode != 0:
		res.State = StateFailed
		res.Reason = fmt.Sprintf("script exited with code %d", sres.ExitCode)
	default:
		res.State = StateDone
	}

	r.emitLocked(EventStarted, j.id)
	id := j.id
	j.timer = r.clock.AfterFunc(wall, func() { r.complete(id, res) })
}

// complete finalises a running job (fired from the clock).
func (r *RMS) complete(id JobID, res Result) {
	r.mu.Lock()
	j, ok := r.jobs[id]
	if !ok || j.state != StateRunning {
		r.mu.Unlock()
		return
	}
	r.queues[j.spec.Queue].used -= j.spec.Slots
	r.finishLocked(j, res.State, res)
	r.scheduleLocked()
	r.mu.Unlock()
}

// finishLocked records the terminal state, accounting, events, and callback.
func (r *RMS) finishLocked(j *job, st State, res Result) {
	j.state = st
	j.end = r.clock.Now()
	j.result = res
	r.records = append(r.records, Record{
		Job: j.id, Name: j.spec.Name, Owner: j.spec.Owner, Project: j.spec.Project,
		Queue: j.spec.Queue, Slots: j.spec.Slots,
		Submit: j.submit, Start: j.start, End: j.end,
		CPUTime: res.CPUTime, State: st, ExitCode: res.ExitCode,
	})
	switch st {
	case StateDone:
		r.emitLocked(EventFinished, j.id)
	case StateFailed:
		r.emitLocked(EventFailed, j.id)
	case StateCancelled:
		r.emitLocked(EventCancelled, j.id)
	}
	if j.spec.Done != nil {
		done := j.spec.Done
		id := j.id
		r.mu.Unlock()
		done(id, res)
		r.mu.Lock()
	}
}

// Accounting returns a copy of all accounting records.
func (r *RMS) Accounting() []Record {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Record, len(r.records))
	copy(out, r.records)
	return out
}

// Load summarises total RMS occupancy as a fraction in [0,1].
func (r *RMS) Load() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	used, total := 0, 0
	for _, q := range r.queues {
		used += q.used
		total += q.cfg.Slots
	}
	if total == 0 {
		return 0
	}
	return float64(used) / float64(total)
}

// Backlog reports the total number of jobs pending across every queue — the
// queue depth a resource broker weighs against capacity.
func (r *RMS) Backlog() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, j := range r.jobs {
		if j.state == StatePending {
			n++
		}
	}
	return n
}
