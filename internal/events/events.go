// Package events is the server-side half of the protocol-v2 session API:
// a bounded, in-memory log of job lifecycle events with monotonic cursors.
//
// The paper's §5.3 protocol is asynchronous only per interaction — clients
// still discover job progress by polling, which cannot serve millions of
// watchers (one signed envelope per watcher per interval). The production
// UNICORE line moved job monitoring to server-maintained state notification;
// this package reproduces that: every NJS appends the lifecycle events of
// the jobs it supervises (admitted, action status transitions, action done,
// completed/aborted) to a Log, and subscribers fetch batches past a cursor
// (protocol.MsgSubscribe) instead of polling status.
//
// # Cursor model
//
// Every event carries two monotonic positions:
//
//   - Seq — the per-job sequence (1, 2, 3, ... for that job). Job-scoped
//     subscriptions resume at a Seq cursor. Seq is replica-independent: a
//     journal-recovered NJS restores each job's event list with its original
//     numbering, so a cursor taken before a crash stays valid against the
//     recovered replica — the cursor-translation-free failover contract the
//     pool router relies on.
//   - Global — the per-log (per-replica) append sequence. User-scoped
//     subscriptions (all of one owner's jobs on one replica) resume at a
//     Global cursor, keyed by the replica's Origin tag when replies from a
//     replica pool are merged.
//
// # Bounds
//
// The log is bounded per job: once a job has more than the configured cap of
// retained events the oldest are evicted and a subscription resuming below
// the retained window is told so (gap flag) instead of silently skipping.
package events

import (
	"sort"
	"sync"
	"time"

	"unicore/internal/ajo"
	"unicore/internal/core"
)

// Type classifies a job lifecycle event.
type Type string

// The event types an NJS appends.
const (
	// TypeAdmitted is the first event of every job: consignment accepted.
	TypeAdmitted Type = "admitted"
	// TypeStatus is a non-terminal action transition (queued, running).
	TypeStatus Type = "status"
	// TypeActionDone is a terminal action transition (successful, failed,
	// not-done, aborted), including cascades.
	TypeActionDone Type = "action-done"
	// TypeControl is a hold/resume/abort control applied to the job.
	TypeControl Type = "control"
	// TypeJobDone is the job's terminal aggregate status — always the last
	// event of a job, and the only one with Terminal set.
	TypeJobDone Type = "job-done"
)

// Event is one job lifecycle notification. It is both the in-memory log
// record and the protocol-v2 wire shape (protocol.JobEvent aliases it).
type Event struct {
	// Job is the UNICORE job the event belongs to.
	Job core.JobID `json:"job"`
	// Seq is the per-job monotonic sequence, starting at 1.
	Seq uint64 `json:"seq"`
	// Global is the per-log (per-replica) append sequence.
	Global uint64 `json:"global"`
	// Origin tags the replica that appended the event ("" on a single NJS).
	Origin string `json:"origin,omitempty"`
	// Type classifies the event.
	Type Type `json:"type"`
	// Action is the action the event concerns (empty for job-level events).
	Action ajo.ActionID `json:"action,omitempty"`
	// Status is the action status (or, for job-level events, root status).
	Status ajo.Status `json:"status"`
	// Reason carries the failure reason or the control op name.
	Reason string `json:"reason,omitempty"`
	// Time is the server clock instant the event was appended.
	Time time.Time `json:"time"`
	// Terminal marks the job's final event (TypeJobDone).
	Terminal bool `json:"terminal,omitempty"`
}

// DefaultJobCap is the default number of events retained per job.
const DefaultJobCap = 256

// jobLog is the bounded event window of one job.
type jobLog struct {
	first  uint64 // Seq of events[0] (first+len-1 == last when non-empty)
	last   uint64 // Seq of the newest event ever appended (survives eviction)
	events []Event
}

// Log is one NJS's event log. All methods are safe for concurrent use; no
// method performs I/O, so appending under a job lock is cheap.
type Log struct {
	mu      sync.Mutex
	origin  string
	cap     int
	global  uint64
	evicted uint64 // highest Global ever evicted (user-stream gap detection)
	jobs    map[core.JobID]*jobLog
	byUser  map[core.DN][]core.JobID
	notify  chan struct{}
}

// NewLog creates a log. origin tags every event with the appending replica's
// pool identity; jobCap bounds retained events per job (<= 0 selects
// DefaultJobCap).
func NewLog(origin string, jobCap int) *Log {
	if jobCap <= 0 {
		jobCap = DefaultJobCap
	}
	return &Log{
		origin: origin,
		cap:    jobCap,
		jobs:   make(map[core.JobID]*jobLog),
		byUser: make(map[core.DN][]core.JobID),
		notify: make(chan struct{}),
	}
}

// Origin returns the replica tag this log stamps on events.
func (l *Log) Origin() string { return l.origin }

// jobLogLocked returns (creating if needed) a job's window; callers hold l.mu.
func (l *Log) jobLogLocked(owner core.DN, job core.JobID) *jobLog {
	jl, ok := l.jobs[job]
	if !ok {
		jl = &jobLog{first: 1}
		l.jobs[job] = jl
		l.byUser[owner] = append(l.byUser[owner], job)
	}
	return jl
}

// evictLocked trims a job's window to the cap; callers hold l.mu.
func (l *Log) evictLocked(jl *jobLog) {
	for len(jl.events) > l.cap {
		if g := jl.events[0].Global; g > l.evicted {
			l.evicted = g
		}
		jl.events = jl.events[1:]
		jl.first++
	}
}

// Append assigns the next per-job and per-log sequence numbers to ev, stamps
// the origin, stores it, wakes every waiter, and returns the completed event
// (the caller journals its numbers and time for crash recovery).
func (l *Log) Append(owner core.DN, ev Event) Event {
	l.mu.Lock()
	jl := l.jobLogLocked(owner, ev.Job)
	jl.last++
	l.global++
	ev.Seq = jl.last
	ev.Global = l.global
	ev.Origin = l.origin
	jl.events = append(jl.events, ev)
	l.evictLocked(jl)
	close(l.notify)
	l.notify = make(chan struct{})
	l.mu.Unlock()
	return ev
}

// Restore re-inserts an event replayed from the journal, keeping its original
// sequence numbers and stamping the log's origin, as Append does. Replay of a
// snapshot plus its tail may present the same event twice; duplicates (Seq
// not past the job's newest) are dropped, which is what keeps cursors stable
// across crash recovery.
func (l *Log) Restore(owner core.DN, ev Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	ev.Origin = l.origin
	jl := l.jobLogLocked(owner, ev.Job)
	if ev.Seq <= jl.last {
		return // snapshot + tail overlap
	}
	if len(jl.events) == 0 {
		jl.first = ev.Seq
	}
	jl.last = ev.Seq
	jl.events = append(jl.events, ev)
	if ev.Global > l.global {
		l.global = ev.Global
	}
	l.evictLocked(jl)
}

// JobEvents returns up to max events of one job with Seq > after, in order.
// gap reports that events between the cursor and the first returned event
// were evicted (the subscriber resumed below the retained window); a cursor
// at or past the newest event gets nothing and no gap.
//
// The events are a view of the job's window, not a copy: a window is
// append-only (eviction only reslices its head, and no event is written
// after it is appended), so the view never changes under its holder. It is
// capped, so an append by the holder reallocates instead of reaching the
// window's spare capacity. A holder must not write its elements.
func (l *Log) JobEvents(job core.JobID, after uint64, max int) (evs []Event, gap bool) {
	if max <= 0 {
		max = DefaultJobCap
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	jl, ok := l.jobs[job]
	if !ok || after >= jl.last {
		return nil, false
	}
	if after+1 < jl.first {
		gap = true
		after = jl.first - 1
	}
	start := int(after + 1 - jl.first)
	end := min(len(jl.events), start+max)
	return jl.events[start:end:end], gap
}

// UserEvents returns up to max events across all of one owner's jobs with
// Global > after, ordered by Global. next is the cursor to resume at; gap
// reports that events at or below the cursor horizon were evicted.
func (l *Log) UserEvents(owner core.DN, after uint64, max int) (evs []Event, next uint64, gap bool) {
	if max <= 0 {
		max = DefaultJobCap
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, job := range l.byUser[owner] {
		jl := l.jobs[job]
		for _, ev := range jl.events {
			if ev.Global > after {
				evs = append(evs, ev)
			}
		}
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].Global < evs[j].Global })
	if len(evs) > max {
		evs = evs[:max]
	}
	next = after
	if n := len(evs); n > 0 {
		next = evs[n-1].Global
	}
	return evs, next, after < l.evicted
}

// Notify returns a channel that is closed at the next append — the wait
// primitive behind the gateway's long-poll. Take the channel before fetching,
// then wait on it only if the fetch came back empty, so an append racing the
// fetch is never missed.
func (l *Log) Notify() <-chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.notify
}

// Depth returns the number of currently retained events across all jobs —
// the live occupancy of the bounded per-job windows (telemetry's
// event_log_depth gauge).
func (l *Log) Depth() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, jl := range l.jobs {
		n += len(jl.events)
	}
	return n
}
