package njs

// This file makes the NJS durable: every admission and state transition is
// appended to a write-ahead journal (package journal), and New, given the
// journal (Config.Journal), rebuilds a site from the newest snapshot plus the
// journal tail — the "keep jobs across restarts" requirement that moving
// UNICORE from testbed to production imposed on the server tier.
//
// # What is journaled
//
//   - admissions (KindAdmit: identity, login, parent link, the AJO in the
//     binary form ajo.Marshal writes),
//   - every terminal action transition, including NOT_DONE cascades and
//     aborts (KindActionDone),
//   - batch lifecycle events (KindActionStart: queued, running),
//   - dependency files staged into unconsigned sub-jobs (KindInject),
//   - sub-jobs consigned to peer Usites (KindRemote),
//   - hold/resume/abort controls (KindControl),
//   - job finalisation (KindRootDone), and
//   - every mutation of the Vsite data spaces, via the vfs observer — so
//     Uspace and Xspace contents (including files written by batch scripts)
//     replay byte-exactly.
//
// Each transition that raises a job event journals the event's stamp on its
// own record, whose apply function restores the event with its original
// numbering: an event survives a crash iff its transition's record is whole.
//
// Appends are O(1) enqueues on the store's batched flusher: no disk I/O ever
// runs inside a job lock, and the Poll path appends nothing, so durability
// does not serialize the PR-1 sharded-lock hot path.
//
// # Recovery model
//
// New builds the NJS and replays the entry stream into it. Replay is
// idempotent (terminal transitions are never reapplied, file writes are
// last-writer-wins), which is what makes the store's fuzzy snapshots
// converge to the crash-time state. ResumeRecovered finishes the job; it is
// a separate call because a pool must first reconcile the recovered
// admissions against its ack index (aborting orphan copies) before anything
// re-dispatches:
//
//   - rebinds each job's Uspace directory (and removes orphaned directories
//     left by admissions that never reached the journal),
//   - re-arms the poll timers of sub-jobs consigned to peer Usites,
//   - re-links local parent↔child sub-jobs and schedules completion for
//     children that finished before the crash, and
//   - re-dispatches every action that was in flight when the site died.
//     Re-dispatch is safe because imports, exports, transfers, and batch
//     scripts are deterministic against the replayed data spaces, and
//     remote consigns reuse their deterministic consign ID, which peer
//     sites deduplicate.
//
// Work that was buffered but not yet flushed when the process died is lost —
// exactly the write-ahead contract: a job survives iff its admission reached
// the journal. Consign enforces that for acknowledged jobs: it group-commits
// (SyncJournal) after admission and before replying, so a client that was
// told "accepted" never loses the job — only transitions journaled after the
// ack can be lost, and re-dispatch replays those. Sub-jobs expanded locally
// by a dispatching parent are not individually synced; a re-dispatched
// parent re-admits them deterministically.

import (
	"errors"
	"fmt"
	"path"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"unicore/internal/ajo"
	"unicore/internal/core"
	"unicore/internal/events"
	"unicore/internal/journal"
	"unicore/internal/protocol"
	"unicore/internal/telemetry"
	"unicore/internal/uudb"
	"unicore/internal/vfs"
)

// recorder binds an NJS to a journal store.
type recorder struct {
	store         *journal.Store
	snapshotEvery int64 // logical entries between automatic snapshots; 0 = manual only
	snapshotting  atomic.Bool
}

// Journal returns the attached store (nil when durability is disabled).
func (n *NJS) Journal() *journal.Store {
	if r := n.rec.Load(); r != nil {
		return r.store
	}
	return nil
}

// SyncJournal flushes and fsyncs everything journaled so far. Sync latency
// and the group-commit batch size (entries appended since the previous
// sync) are recorded in the telemetry registry.
func (n *NJS) SyncJournal() error {
	r := n.rec.Load()
	if r == nil {
		return nil
	}
	start := time.Now()
	err := r.store.Sync()
	n.tel.Histogram("journal_sync_seconds", telemetry.ScaleSeconds).ObserveSince(start)
	appended := n.tel.Counter("journal_append_total").Value()
	if prev := n.journalSynced.Swap(appended); appended >= prev {
		n.tel.Histogram("journal_sync_batch_entries", telemetry.ScaleCount).Observe(float64(appended - prev))
	}
	return err
}

// Snapshot compacts the journal: the live state is captured as a snapshot
// and older generations are retired. Called on clean shutdown and by the
// automatic cadence.
func (n *NJS) Snapshot() error {
	r := n.rec.Load()
	if r == nil {
		return errors.New("njs: no journal attached")
	}
	return r.store.Compact(n.emitSnapshot)
}

// Kill simulates a crash (or decommissions a replaced NJS): journaling and
// data-space observation stop, and every clock callback that fires afterwards
// is a no-op, so a dead site neither advances state nor reaches its peers.
// The journal store itself stays open — it belongs to the caller, who will
// hand it to the replacement's New.
func (n *NJS) Kill() {
	n.dead.Store(true)
	n.rec.Store(nil)
	for _, vs := range n.vsites {
		vs.Space.FS().Observe(nil)
	}
}

// record appends one logical entry and drives the snapshot cadence. The
// telemetry update is one atomic add — record runs under job locks and
// must stay an O(1) enqueue.
func (n *NJS) record(e journal.Entry) {
	r := n.rec.Load()
	if r == nil {
		return
	}
	r.store.Append(e)
	n.tel.Counter("journal_append_total").Inc()
	if r.snapshotEvery > 0 && r.store.AppendsSinceCompact() >= r.snapshotEvery &&
		r.snapshotting.CompareAndSwap(false, true) {
		// Compaction walks every job under its lock, so it must not run
		// inline here (record is called under job locks); defer it through
		// the clock like every other asynchronous step.
		n.clock.AfterFunc(0, func() {
			defer r.snapshotting.Store(false)
			if n.dead.Load() || n.rec.Load() != r {
				return
			}
			_ = r.store.Compact(n.emitSnapshot)
		})
	}
}

// recordFile journals one data-space mutation (runs under the FS lock — keep
// it an enqueue only).
func (n *NJS) recordFile(vsite string, m vfs.Mutation) {
	if n.dead.Load() {
		return
	}
	var kind journal.Kind
	switch m.Op {
	case vfs.OpWrite:
		kind = journal.KindFileWrite
	case vfs.OpMkdir:
		kind = journal.KindMkdir
	case vfs.OpRemove:
		kind = journal.KindFileRemove
	case vfs.OpRename:
		kind = journal.KindRename
	default:
		return
	}
	n.record(journal.Entry{Kind: kind, File: &journal.FileMutation{
		Vsite: vsite, Path: m.Path, To: m.To, Data: m.Data,
	}})
}

// eventTypes is the event type of each record kind whose transition raises
// one. With the Mark of such a record — its stamp and its action, status and
// reason fields — it makes the whole event, so the journal keeps each event
// once, on the record of its transition.
var eventTypes = [...]events.Type{
	journal.KindAdmit:       events.TypeAdmitted,
	journal.KindActionStart: events.TypeStatus,
	journal.KindActionDone:  events.TypeActionDone,
	journal.KindControl:     events.TypeControl,
	journal.KindRootDone:    events.TypeJobDone,
}

// eventOf is the event a record's Mark stands for: the one mapping from the
// journal to the event log, used when the event is raised and when it is
// replayed. The log stamps its own origin on both.
func eventOf(job core.JobID, m journal.Mark) events.Event {
	return events.Event{
		Job: job, Seq: m.Stamp.Seq, Global: m.Stamp.Global, Time: m.Stamp.Time,
		Type: eventTypes[m.Kind], Action: ajo.ActionID(m.Action),
		Status: ajo.Status(m.Status), Reason: m.Reason,
		Terminal: m.Kind == journal.KindRootDone,
	}
}

// markOf inverts eventOf, for the event window a snapshot's ADMIT carries.
func markOf(ev events.Event) journal.Mark {
	m := journal.Mark{Stamp: journal.Stamp{Seq: ev.Seq, Global: ev.Global, Time: ev.Time},
		Action: string(ev.Action), Status: int(ev.Status), Reason: ev.Reason}
	for k, t := range eventTypes {
		if t != "" && t == ev.Type {
			m.Kind = journal.Kind(k)
		}
	}
	return m
}

// emitEvent appends the event of one transition to the in-memory log and
// returns the stamp the log assigned it, which the transition's record
// carries. Called under the job's lock, so a job's records reach the journal
// in the order of its events.
func (n *NJS) emitEvent(uj *unicoreJob, m journal.Mark) journal.Stamp {
	m.Stamp.Time = n.clock.Now()
	ev := n.log.Append(uj.owner, eventOf(uj.id, m))
	return journal.Stamp{Seq: ev.Seq, Global: ev.Global, Time: ev.Time}
}

// restoreEvent puts the event a replayed record carries back into the log
// with its original numbers. A record without a stamp carries none.
func (n *NJS) restoreEvent(uj *unicoreJob, m journal.Mark) {
	if m.Stamp.Seq != 0 {
		n.log.Restore(uj.owner, eventOf(uj.id, m))
	}
}

func (n *NJS) recordAdmit(uj *unicoreJob) {
	st := n.emitEvent(uj, journal.Mark{Kind: journal.KindAdmit, Status: int(ajo.StatusRunning)})
	if n.rec.Load() == nil {
		return
	}
	adm, err := admissionOf(uj)
	if err != nil {
		return // a job that came through Validate always marshals
	}
	adm.Stamp = st
	n.record(journal.Entry{Kind: journal.KindAdmit, Admit: adm})
}

// admissionOf captures what a job's ADMIT record holds: identity, login,
// parent link and the AJO, none of which changes after admission.
func admissionOf(uj *unicoreJob) (*journal.Admission, error) {
	raw, err := ajo.Marshal(uj.job)
	if err != nil {
		return nil, err
	}
	adm := &journal.Admission{
		Job:       string(uj.id),
		Owner:     string(uj.owner),
		UID:       uj.login.UID,
		Groups:    uj.login.Groups,
		Project:   uj.login.Project,
		Vsite:     string(uj.vsite.Name),
		AJO:       raw,
		ConsignID: uj.consignID,
		Submitted: uj.submitted,
	}
	if uj.parent != nil {
		adm.ParentJob = string(uj.parent.job)
		adm.ParentAction = string(uj.parent.action)
	}
	return adm, nil
}

// actionEventOf captures an action's outcome as a journal event. Sub-job
// outcomes (those carrying children) are serialized as a tree.
func actionEventOf(uj *unicoreJob, o *ajo.Outcome) *journal.ActionEvent {
	ev := &journal.ActionEvent{
		Job:      string(uj.id),
		Action:   string(o.Action),
		Status:   int(o.Status),
		Reason:   o.Reason,
		ExitCode: o.ExitCode,
		Stdout:   o.Stdout,
		Stderr:   o.Stderr,
		Started:  o.Started,
		Finished: o.Finished,
	}
	for _, f := range o.Files {
		ev.Files = append(ev.Files, journal.FileStat{Path: f.Path, Size: f.Size, CRC: f.CRC})
	}
	if len(o.Children) > 0 {
		if raw, err := ajo.MarshalOutcome(o); err == nil {
			ev.Tree = raw
		}
	}
	return ev
}

func (n *NJS) recordActionDone(uj *unicoreJob, o *ajo.Outcome) {
	st := n.emitEvent(uj, journal.Mark{Kind: journal.KindActionDone, Action: string(o.Action), Status: int(o.Status), Reason: o.Reason})
	if n.rec.Load() == nil {
		return
	}
	ev := actionEventOf(uj, o)
	ev.Stamp = st
	n.record(journal.Entry{Kind: journal.KindActionDone, Action: ev})
}

func (n *NJS) recordActionStart(uj *unicoreJob, o *ajo.Outcome) {
	st := n.emitEvent(uj, journal.Mark{Kind: journal.KindActionStart, Action: string(o.Action), Status: int(o.Status)})
	if n.rec.Load() == nil {
		return
	}
	n.record(journal.Entry{Kind: journal.KindActionStart, Action: &journal.ActionEvent{
		Job: string(uj.id), Action: string(o.Action), Status: int(o.Status), Stamp: st,
	}})
}

func (n *NJS) recordInject(uj *unicoreJob, after ajo.ActionID, name string, data []byte) {
	if n.rec.Load() == nil {
		return
	}
	n.record(journal.Entry{Kind: journal.KindInject, Inject: &journal.Injection{
		Job: string(uj.id), After: string(after), Name: name, Data: data,
	}})
}

func (n *NJS) recordRemote(uj *unicoreJob, aid ajo.ActionID, ref *remoteRef) {
	if n.rec.Load() == nil {
		return
	}
	n.record(journal.Entry{Kind: journal.KindRemote, Remote: &journal.RemoteLink{
		Job: string(uj.id), Action: string(aid), Usite: string(ref.usite), RemoteJob: string(ref.job),
	}})
}

func (n *NJS) recordControl(uj *unicoreJob, op ajo.ControlOp) {
	st := n.emitEvent(uj, journal.Mark{Kind: journal.KindControl, Status: int(uj.root.Status), Reason: string(op)})
	if n.rec.Load() == nil {
		return
	}
	n.record(journal.Entry{Kind: journal.KindControl, Control: &journal.ControlEvent{
		Job: string(uj.id), Op: string(op), Status: int(uj.root.Status), Stamp: st,
	}})
}

func (n *NJS) recordRootDone(uj *unicoreJob) {
	st := n.emitEvent(uj, journal.Mark{Kind: journal.KindRootDone, Status: int(uj.root.Status)})
	if n.rec.Load() == nil {
		return
	}
	n.record(journal.Entry{Kind: journal.KindRootDone, Root: &journal.RootEvent{
		Job: string(uj.id), Status: int(uj.root.Status), Finished: uj.root.Finished, Stamp: st,
	}})
}

// --- snapshot emission ---

// emitSnapshot writes the minimal entry stream that rebuilds the live state:
// the ID counter, both data-space trees of every Vsite, then every job in
// admission order. It runs while traffic continues; per-job consistency
// comes from the job locks, and any transition racing the capture is also in
// the post-rotation journal tail, which replay converges (see package
// journal).
func (n *NJS) emitSnapshot(emit func(journal.Entry) error) error {
	n.regMu.RLock()
	seq := n.seq
	jobs := make([]*unicoreJob, 0, len(n.jobs))
	for _, uj := range n.jobs {
		jobs = append(jobs, uj)
	}
	n.regMu.RUnlock()
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].id < jobs[j].id })

	if err := emit(journal.Entry{Kind: journal.KindSeq, Seq: seq}); err != nil {
		return err
	}
	for _, name := range n.VsiteNames() {
		if err := n.emitDataSpace(string(name), n.vsites[name].Space.FS(), emit); err != nil {
			return err
		}
	}
	for _, uj := range jobs {
		if err := n.emitJob(uj, emit); err != nil {
			return err
		}
	}
	return nil
}

// emitDataSpace dumps one Vsite's file tree (directories included, so empty
// job directories survive).
func (n *NJS) emitDataSpace(vsite string, fs *vfs.FS, emit func(journal.Entry) error) error {
	var rec func(dir string) error
	rec = func(dir string) error {
		entries, err := fs.List(dir)
		if err != nil {
			return nil // raced a removal; the tail journal has the truth
		}
		for _, e := range entries {
			if e.IsDir {
				if err := emit(journal.Entry{Kind: journal.KindMkdir,
					File: &journal.FileMutation{Vsite: vsite, Path: e.Path}}); err != nil {
					return err
				}
				if err := rec(e.Path); err != nil {
					return err
				}
				continue
			}
			// A read-only view, not a copy: stored contents are immutable.
			data, _, _, err := fs.ReadFileRange(e.Path, 0, 0)
			if err != nil {
				continue // raced a removal
			}
			if err := emit(journal.Entry{Kind: journal.KindFileWrite,
				File: &journal.FileMutation{Vsite: vsite, Path: e.Path, Data: data}}); err != nil {
				return err
			}
		}
		return nil
	}
	return rec("/")
}

// emitJob captures one job under its lock. Its ADMIT carries the job's
// retained event window with the original numbering, so compaction never
// invalidates a subscriber's cursor; the state records after it carry no
// stamp. Events are raised under the same lock, so the window and the state
// are of one instant.
func (n *NJS) emitJob(uj *unicoreJob, emit func(journal.Entry) error) error {
	adm, err := admissionOf(uj)
	if err != nil {
		return err
	}
	uj.mu.Lock()
	defer uj.mu.Unlock()

	evs, _ := n.log.JobEvents(uj.id, 0, 0)
	adm.Window = make([]journal.Mark, len(evs))
	for i, ev := range evs {
		adm.Window[i] = markOf(ev)
	}
	entries := []journal.Entry{{Kind: journal.KindAdmit, Admit: adm}}
	if uj.held {
		entries = append(entries, journal.Entry{Kind: journal.KindControl,
			Control: &journal.ControlEvent{Job: string(uj.id), Op: string(ajo.OpHold)}})
	}
	if uj.aborted {
		entries = append(entries, journal.Entry{Kind: journal.KindControl,
			Control: &journal.ControlEvent{Job: string(uj.id), Op: string(ajo.OpAbort)}})
	}
	// Each action's records, in action order: its status, the files staged
	// for it, and its link to a peer's sub-job. A start is written only for
	// a batch task, the one kind that journals its start.
	for i := range uj.acts {
		s := &uj.acts[i]
		aid := string(s.out.Action)
		switch {
		case s.out.Status.Terminal():
			entries = append(entries, journal.Entry{Kind: journal.KindActionDone,
				Action: actionEventOf(uj, &s.out)})
		case s.out.Status != ajo.StatusPending && uj.job.Actions[i].Kind().IsExecutable():
			entries = append(entries, journal.Entry{Kind: journal.KindActionStart,
				Action: &journal.ActionEvent{Job: string(uj.id), Action: aid, Status: int(s.out.Status)}})
		}
		for _, inj := range s.injections {
			entries = append(entries, journal.Entry{Kind: journal.KindInject,
				Inject: &journal.Injection{Job: string(uj.id), After: aid, Name: inj.name, Data: inj.data}})
		}
		if ref := s.remote; ref != nil {
			entries = append(entries, journal.Entry{Kind: journal.KindRemote,
				Remote: &journal.RemoteLink{Job: string(uj.id), Action: aid,
					Usite: string(ref.usite), RemoteJob: string(ref.job)}})
		}
	}
	if uj.root.Status.Terminal() {
		entries = append(entries, journal.Entry{Kind: journal.KindRootDone,
			Root: &journal.RootEvent{Job: string(uj.id), Status: int(uj.root.Status), Finished: uj.root.Finished}})
	}
	for _, e := range entries {
		if err := emit(e); err != nil {
			return err
		}
	}
	return nil
}

// --- recovery ---

// recover replays the journal store into a freshly built NJS, then journals
// every later transition and data-space mutation to it; snapshotEvery > 0
// arranges an automatic compaction after that many appended entries. The
// NJS serves status/outcome requests at once, but holds recovered in-flight
// work until ResumeRecovered.
func (n *NJS) recover(store *journal.Store, snapshotEvery int) error {
	// Replay is single-threaded and pre-traffic. Quotas are lifted while
	// replaying: the fuzzy snapshot may transiently re-create files that a
	// later entry removes, and the final state fit the quota when it was
	// journaled.
	quotas := make(map[core.Vsite]int64, len(n.vsites))
	for name, vs := range n.vsites {
		fs := vs.Space.FS()
		quotas[name] = fs.Quota()
		fs.SetQuota(0)
	}
	if err := store.Replay(n.applyEntry); err != nil {
		return err
	}
	for name, vs := range n.vsites {
		vs.Space.FS().SetQuota(quotas[name])
	}
	// The replayed file trees carry every acknowledged staged-upload chunk
	// and metadata document; rebuild the spool indexes from them so uploads
	// survive the crash with their handles and watermarks intact.
	for _, sp := range n.spools {
		if err := sp.Rescan(); err != nil {
			return err
		}
	}
	n.rec.Store(&recorder{store: store, snapshotEvery: int64(snapshotEvery)})
	for name, vs := range n.vsites {
		vsite := string(name)
		vs.Space.FS().Observe(func(m vfs.Mutation) { n.recordFile(vsite, m) })
	}
	return nil
}

// ResumeRecovered finishes a recovery: it rebinds Uspace directories,
// removes orphans, re-arms remote poll timers, re-links finished children,
// and re-dispatches everything that was in flight. A pool calls it only
// after the replica has rejoined, because the rejoin aborts orphan copies of
// jobs that failed over elsewhere, and those must not re-dispatch first.
// Calling it on an NJS that was not recovered (or twice) is a no-op for jobs
// that are already running normally.
func (n *NJS) ResumeRecovered() {
	n.regMu.RLock()
	jobs := make([]*unicoreJob, 0, len(n.jobs))
	for _, uj := range n.jobs {
		jobs = append(jobs, uj)
	}
	n.regMu.RUnlock()
	// Admission order (IDs are zero-padded, so lexicographic = numeric):
	// parents resume before their children.
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].id < jobs[j].id })

	known := make(map[string]bool, len(jobs))
	for _, uj := range jobs {
		known[string(uj.id)] = true
		// Rebind the job's Uspace directory (idempotent).
		_ = uj.vsite.Space.FS().MkdirAll(uj.jobDir)
	}
	// Remove orphaned job directories: an admission that died before its
	// journal entry was flushed may have left a directory behind, and a
	// re-dispatched parent must be able to re-admit that sub-job.
	for _, vs := range n.vsites {
		fs := vs.Space.FS()
		entries, err := fs.List(vs.Space.UspaceRoot())
		if err != nil {
			continue
		}
		for _, e := range entries {
			if e.IsDir && !known[e.Name] {
				_ = fs.RemoveAll(e.Path)
			}
		}
	}

	var remotes []remoteRef
	for _, uj := range jobs {
		uj.mu.Lock()
		if uj.root.Status.Terminal() {
			uj.mu.Unlock()
			continue
		}
		if uj.aborted {
			// A crash can land between the journaled abort control and its
			// per-action cancellations, recovering the job aborted but
			// non-terminal. dispatchLocked refuses aborted jobs, so finish
			// the abort here or the job stays non-terminal forever.
			_ = n.abortLocked(uj, &remotes)
			uj.mu.Unlock()
			continue
		}
		for i := range uj.acts {
			s := &uj.acts[i]
			if s.out.Status.Terminal() {
				continue
			}
			// A sub-job at a peer Usite: keep polling where we left off.
			if s.remote != nil {
				s.inflight = true
				n.scheduleRemotePollLocked(uj.id, i, s.remote)
			}
			// A locally expanded sub-job: the child drives itself; a child
			// that finished before the crash completes the parent action
			// through the clock, exactly as live finalisation would have.
			if s.child == "" {
				continue
			}
			s.inflight = true
			if child, ok := n.job(s.child); ok {
				child.mu.Lock() // ancestor→descendant order
				terminal := child.root.Status.Terminal()
				child.mu.Unlock()
				if terminal {
					parentID, action, childID := uj.id, s.out.Action, s.child
					n.clock.AfterFunc(0, func() { n.completeChild(parentID, action, childID) })
				}
			}
		}
		// Everything else that was in flight is re-dispatched from its last
		// journaled state.
		n.dispatchLocked(uj)
		uj.mu.Unlock()
	}
	// Best-effort peer aborts for remote sub-jobs of resumed aborts, issued
	// outside all locks (mirrors abortJob).
	for _, ref := range remotes {
		_ = callPeer(n, ref.usite, protocol.OpControl, protocol.ControlRequest{Job: ref.job, Op: ajo.OpAbort}, nil)
	}
}

// applyEntry replays one journal entry. Replay runs before traffic, so it
// mutates job state without locks; every application is idempotent. A
// decoded entry always holds the payload its kind carries.
func (n *NJS) applyEntry(e journal.Entry) error {
	switch e.Kind {
	case journal.KindFileWrite, journal.KindFileRemove, journal.KindMkdir, journal.KindRename:
		return n.applyFile(e)
	case journal.KindAdmit:
		return n.applyAdmit(e.Admit)
	case journal.KindActionStart:
		return n.applyActionStart(e.Action)
	case journal.KindActionDone:
		return n.applyActionDone(e.Action)
	case journal.KindInject:
		return n.applyInject(e.Inject)
	case journal.KindRemote:
		return n.applyRemote(e.Remote)
	case journal.KindControl:
		return n.applyControl(e.Control)
	case journal.KindRootDone:
		return n.applyRootDone(e.Root)
	case journal.KindSeq:
		if e.Seq > n.seq {
			n.seq = e.Seq
		}
		return nil
	}
	// Nothing else arrives: the journal refuses a record of a kind it does
	// not know (a new kind takes a new format tag).
	return nil
}

func (n *NJS) applyFile(e journal.Entry) error {
	m := e.File
	vs, ok := n.vsites[core.Vsite(m.Vsite)]
	if !ok {
		return fmt.Errorf("njs: journal names unknown vsite %q", m.Vsite)
	}
	fs := vs.Space.FS()
	switch e.Kind {
	case journal.KindFileWrite:
		if err := fs.MkdirAll(path.Dir(m.Path)); err != nil {
			return err
		}
		return fs.WriteFile(m.Path, m.Data)
	case journal.KindMkdir:
		return fs.MkdirAll(m.Path)
	case journal.KindFileRemove:
		return fs.RemoveAll(m.Path)
	case journal.KindRename:
		if !fs.Exists(m.Path) {
			return nil // already applied (fuzzy snapshot) — later entries converge
		}
		if m.To == m.Path {
			return nil
		}
		if strings.HasPrefix(m.To, m.Path+"/") {
			// Older journals hold moves of a directory into its own subtree,
			// which Rename now refuses. The source vanished when the move ran,
			// so replay removes it: the same visible tree, without the cycle.
			return fs.RemoveAll(m.Path)
		}
		_ = fs.RemoveAll(m.To)
		if err := fs.MkdirAll(path.Dir(m.To)); err != nil {
			return err
		}
		return fs.Rename(m.Path, m.To)
	}
	return nil
}

func (n *NJS) applyAdmit(a *journal.Admission) error {
	id := core.JobID(a.Job)
	if _, exists := n.jobs[id]; exists {
		return nil // snapshot + tail overlap
	}
	vs, ok := n.vsites[core.Vsite(a.Vsite)]
	if !ok {
		return fmt.Errorf("njs: job %s admitted at unknown vsite %q", id, a.Vsite)
	}
	act, err := ajo.Unmarshal(a.AJO)
	if err != nil {
		return fmt.Errorf("njs: replaying %s: %w", id, err)
	}
	job, ok := act.(*ajo.AbstractJob)
	if !ok {
		return fmt.Errorf("njs: replaying %s: AJO decoded as %T", id, act)
	}
	graph, err := job.Check()
	if err != nil {
		return err
	}
	var parent *parentLink
	if a.ParentJob != "" {
		parent = &parentLink{job: core.JobID(a.ParentJob), action: ajo.ActionID(a.ParentAction)}
		if s := n.replayedAction(a.ParentJob, a.ParentAction); s != nil {
			s.child = id
			s.linked()
		}
	}
	login := uudb.Login{UID: a.UID, Groups: a.Groups, Project: a.Project}
	uj := newJob(id, core.DN(a.Owner), login, job, graph, vs, vs.Space.JobDir(id), a.Submitted, a.ConsignID, parent)
	n.registerLocked(uj)
	if s := jobSeq(id); s > n.seq {
		n.seq = s
	}
	if a.ConsignID != "" {
		done := make(chan struct{})
		close(done)
		n.consignIndex[a.ConsignID] = &consignEntry{done: done, id: id}
	}
	n.restoreEvent(uj, journal.Mark{Kind: journal.KindAdmit, Stamp: a.Stamp, Status: int(ajo.StatusRunning)})
	for _, m := range a.Window {
		n.restoreEvent(uj, m)
	}
	return nil
}

// jobSeq extracts the numeric suffix of a minted job ID.
func jobSeq(id core.JobID) int64 {
	s := string(id)
	i := strings.LastIndexByte(s, '-')
	if i < 0 {
		return 0
	}
	v, err := strconv.ParseInt(s[i+1:], 10, 64)
	if err != nil {
		return 0
	}
	return v
}

// JobInstance inverts nextJobID: the pool instance a job ID of usite was
// minted under — "" for a single NJS's IDs and for IDs usite never minted.
func JobInstance(usite core.Usite, id core.JobID) string {
	rest, ok := strings.CutPrefix(string(id), string(usite)+"-")
	i := strings.LastIndexByte(rest, '-')
	if !ok || i < 0 {
		return ""
	}
	return rest[:i]
}

// replayedAction returns the state of a replayed job's action, or nil when
// the journal names no such job or action.
func (n *NJS) replayedAction(job, action string) *actionState {
	if uj, ok := n.jobs[core.JobID(job)]; ok {
		return uj.action(action)
	}
	return nil
}

// replayJobAction restores the event an action record of kind carries and
// returns the job and the action state it names.
func (n *NJS) replayJobAction(kind journal.Kind, ev *journal.ActionEvent) (*unicoreJob, *actionState) {
	uj, ok := n.jobs[core.JobID(ev.Job)]
	if !ok {
		return nil, nil
	}
	n.restoreEvent(uj, journal.Mark{Kind: kind, Stamp: ev.Stamp, Action: ev.Action, Status: ev.Status, Reason: ev.Reason})
	return uj, uj.action(ev.Action)
}

func (n *NJS) applyActionStart(ev *journal.ActionEvent) error {
	_, s := n.replayJobAction(journal.KindActionStart, ev)
	if s == nil || s.out.Status.Terminal() {
		return nil
	}
	s.out.Status = ajo.Status(ev.Status)
	return nil
}

func (n *NJS) applyActionDone(ev *journal.ActionEvent) error {
	uj, s := n.replayJobAction(journal.KindActionDone, ev)
	if s == nil || s.out.Status.Terminal() {
		return nil
	}
	o := &s.out
	o.Status = ajo.Status(ev.Status)
	o.Reason = ev.Reason
	o.ExitCode = ev.ExitCode
	o.Stdout = ev.Stdout
	o.Stderr = ev.Stderr
	o.Files = nil
	for _, f := range ev.Files {
		o.Files = append(o.Files, ajo.FileRecord{Path: f.Path, Size: f.Size, CRC: f.CRC})
	}
	o.Started = ev.Started
	o.Finished = ev.Finished
	if len(ev.Tree) > 0 {
		// The record of a finished sub-job: its flat fields are the tree's
		// root, the tree adds the children. A tree the outcome codec refuses
		// (the JSON an older build wrote here) is a record this build cannot
		// read — named, not replayed childless from the flat fields.
		node, err := ajo.UnmarshalOutcome(ev.Tree)
		if err != nil {
			return fmt.Errorf("%w: %s record of %s/%s: %v", journal.ErrCorrupt, journal.KindActionDone, ev.Job, ev.Action, err)
		}
		o.Children = node.Children
	}
	uj.ndone++
	return nil
}

func (n *NJS) applyInject(in *journal.Injection) error {
	s := n.replayedAction(in.Job, in.After)
	if s == nil {
		return nil
	}
	for _, existing := range s.injections {
		if existing.name == in.Name {
			return nil // snapshot + tail overlap
		}
	}
	s.injections = append(s.injections, injection{name: in.Name, data: in.Data})
	return nil
}

func (n *NJS) applyRemote(r *journal.RemoteLink) error {
	if s := n.replayedAction(r.Job, r.Action); s != nil {
		s.remote = &remoteRef{usite: core.Usite(r.Usite), job: core.JobID(r.RemoteJob)}
		s.linked()
	}
	return nil
}

// linked marks a replayed sub-job action running once its sub-job's link
// is replayed: dispatching a sub-job journals no record but the link, so
// without this a recovered sub-job would read PENDING until it finished,
// while the same job recovered from a snapshot reads RUNNING.
func (s *actionState) linked() {
	if s.out.Status == ajo.StatusPending {
		s.out.Status = ajo.StatusRunning
	}
}

func (n *NJS) applyControl(c *journal.ControlEvent) error {
	uj, ok := n.jobs[core.JobID(c.Job)]
	if !ok {
		return nil
	}
	n.restoreEvent(uj, journal.Mark{Kind: journal.KindControl, Stamp: c.Stamp, Status: c.Status, Reason: c.Op})
	switch ajo.ControlOp(c.Op) {
	case ajo.OpAbort:
		uj.aborted = true
	case ajo.OpHold:
		uj.held = true
	case ajo.OpResume:
		uj.held = false
	}
	return nil
}

func (n *NJS) applyRootDone(r *journal.RootEvent) error {
	uj, ok := n.jobs[core.JobID(r.Job)]
	if !ok {
		return nil
	}
	n.restoreEvent(uj, journal.Mark{Kind: journal.KindRootDone, Stamp: r.Stamp, Status: r.Status})
	if uj.root.Status.Terminal() {
		return nil
	}
	uj.root.Status = ajo.Status(r.Status)
	uj.root.Finished = r.Finished
	return nil
}
