package njs

// This file makes the NJS durable: every admission and state transition is
// appended to a write-ahead journal (package journal), and Recover rebuilds
// a site from the newest snapshot plus the journal tail — the "keep jobs
// across restarts" requirement that moving UNICORE from testbed to
// production imposed on the server tier.
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
// Appends are O(1) enqueues on the store's batched flusher: no disk I/O ever
// runs inside a job lock, and the Poll path appends nothing, so durability
// does not serialize the PR-1 sharded-lock hot path.
//
// # Recovery model
//
// Recover(store, cfg, ...) builds a fresh NJS and replays the entry stream
// into it. Replay is idempotent (terminal transitions are never reapplied,
// file writes are last-writer-wins), which is what makes the store's fuzzy
// snapshots converge to the crash-time state. After the caller has re-wired
// the NJS (SetPeers, login mapper), ResumeRecovered finishes the job:
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
	"context"
	"errors"
	"fmt"
	"path"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"unicore/internal/ajo"
	"unicore/internal/codine"
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

// AttachJournal starts journaling this NJS's transitions and data-space
// mutations to store. snapshotEvery > 0 arranges an automatic
// snapshot/compaction after that many appended entries. Attach before
// traffic; attaching does not write a snapshot by itself.
func (n *NJS) AttachJournal(store *journal.Store, snapshotEvery int) {
	r := &recorder{store: store, snapshotEvery: int64(snapshotEvery)}
	n.rec.Store(r)
	for name, vs := range n.vsites {
		vsite := string(name)
		vs.Space.FS().Observe(func(m vfs.Mutation) { n.recordFile(vsite, m) })
	}
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
// hand it to Recover.
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

// toJobEventRecord converts one assigned log event into its journal record,
// the single mapping shared by the tail (emitEvent) and the snapshot
// (emitSnapshot) so the two can never drift apart.
func toJobEventRecord(owner core.DN, ev events.Event) *journal.JobEventRecord {
	return &journal.JobEventRecord{
		Owner:    string(owner),
		Job:      string(ev.Job),
		Seq:      ev.Seq,
		Global:   ev.Global,
		Origin:   ev.Origin,
		Type:     string(ev.Type),
		Action:   string(ev.Action),
		Status:   int(ev.Status),
		Reason:   ev.Reason,
		Time:     ev.Time,
		Terminal: ev.Terminal,
	}
}

// emitEvent appends one lifecycle event to the in-memory log (always) and
// journals the assigned record (when a journal is attached), so a recovered
// replica restores the log with the exact cursor numbering subscribers hold.
// Called under the job's lock, like the journal hooks; both are O(1).
func (n *NJS) emitEvent(uj *unicoreJob, ev events.Event) {
	ev.Job = uj.id
	ev.Time = n.clock.Now()
	ev = n.log.Append(uj.owner, ev)
	if n.rec.Load() == nil {
		return
	}
	n.record(journal.Entry{Kind: journal.KindJobEvent, Event: toJobEventRecord(uj.owner, ev)})
}

func (n *NJS) recordAdmit(uj *unicoreJob) {
	n.emitEvent(uj, events.Event{Type: events.TypeAdmitted, Status: ajo.StatusRunning})
	if n.rec.Load() == nil {
		return
	}
	raw, err := ajo.Marshal(uj.job)
	if err != nil {
		return // a job that came through Validate always marshals
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
	n.record(journal.Entry{Kind: journal.KindAdmit, Admit: adm})
}

// actionEventOf captures an outcome as a journal event. Sub-job outcomes
// (those carrying children) are serialized as a tree.
func actionEventOf(uj *unicoreJob, aid ajo.ActionID, o *ajo.Outcome) *journal.ActionEvent {
	ev := &journal.ActionEvent{
		Job:      string(uj.id),
		Action:   string(aid),
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

func (n *NJS) recordActionDone(uj *unicoreJob, aid ajo.ActionID, o *ajo.Outcome) {
	n.emitEvent(uj, events.Event{Type: events.TypeActionDone, Action: aid, Status: o.Status, Reason: o.Reason})
	if n.rec.Load() == nil {
		return
	}
	n.record(journal.Entry{Kind: journal.KindActionDone, Action: actionEventOf(uj, aid, o)})
}

func (n *NJS) recordActionStart(uj *unicoreJob, aid ajo.ActionID, status ajo.Status) {
	n.emitEvent(uj, events.Event{Type: events.TypeStatus, Action: aid, Status: status})
	if n.rec.Load() == nil {
		return
	}
	n.record(journal.Entry{Kind: journal.KindActionStart, Action: &journal.ActionEvent{
		Job: string(uj.id), Action: string(aid), Status: int(status),
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
	n.emitEvent(uj, events.Event{Type: events.TypeControl, Status: uj.root.Status, Reason: string(op)})
	if n.rec.Load() == nil {
		return
	}
	n.record(journal.Entry{Kind: journal.KindControl, Control: &journal.ControlEvent{
		Job: string(uj.id), Op: string(op),
	}})
}

func (n *NJS) recordRootDone(uj *unicoreJob) {
	n.emitEvent(uj, events.Event{Type: events.TypeJobDone, Status: uj.root.Status, Terminal: true})
	if n.rec.Load() == nil {
		return
	}
	n.record(journal.Entry{Kind: journal.KindRootDone, Root: &journal.RootEvent{
		Job: string(uj.id), Status: int(uj.root.Status), Finished: uj.root.Finished,
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
	// The retained event log rides in the snapshot with its original
	// numbering, so compaction never invalidates a subscriber's cursor.
	for _, ev := range n.log.Snapshot() {
		owner, _ := n.log.Owner(ev.Job)
		if err := emit(journal.Entry{Kind: journal.KindJobEvent, Event: toJobEventRecord(owner, ev)}); err != nil {
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

// emitJob captures one job under its lock.
func (n *NJS) emitJob(uj *unicoreJob, emit func(journal.Entry) error) error {
	raw, err := ajo.Marshal(uj.job)
	if err != nil {
		return err
	}
	uj.mu.Lock()
	defer uj.mu.Unlock()

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
	entries := []journal.Entry{{Kind: journal.KindAdmit, Admit: adm}}
	if uj.held {
		entries = append(entries, journal.Entry{Kind: journal.KindControl,
			Control: &journal.ControlEvent{Job: string(uj.id), Op: string(ajo.OpHold)}})
	}
	if uj.aborted {
		entries = append(entries, journal.Entry{Kind: journal.KindControl,
			Control: &journal.ControlEvent{Job: string(uj.id), Op: string(ajo.OpAbort)}})
	}
	for _, aid := range sortedActionIDs(uj.outcomes) {
		o := uj.outcomes[aid]
		switch {
		case o.Status.Terminal():
			entries = append(entries, journal.Entry{Kind: journal.KindActionDone,
				Action: actionEventOf(uj, aid, o)})
		case o.Status != ajo.StatusPending:
			entries = append(entries, journal.Entry{Kind: journal.KindActionStart,
				Action: &journal.ActionEvent{Job: string(uj.id), Action: string(aid), Status: int(o.Status)}})
		}
	}
	for _, after := range sortedActionIDs(uj.injections) {
		for _, inj := range uj.injections[after] {
			entries = append(entries, journal.Entry{Kind: journal.KindInject,
				Inject: &journal.Injection{Job: string(uj.id), After: string(after), Name: inj.name, Data: inj.data}})
		}
	}
	for _, aid := range sortedActionIDs(uj.remote) {
		ref := uj.remote[aid]
		entries = append(entries, journal.Entry{Kind: journal.KindRemote,
			Remote: &journal.RemoteLink{Job: string(uj.id), Action: string(aid),
				Usite: string(ref.usite), RemoteJob: string(ref.job)}})
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

func sortedActionIDs[V any](m map[ajo.ActionID]V) []ajo.ActionID {
	out := make([]ajo.ActionID, 0, len(m))
	for aid := range m {
		out = append(out, aid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// --- recovery ---

// Recover builds an NJS from cfg and replays the journal store into it, then
// attaches the store so post-recovery transitions are journaled (with the
// given automatic snapshot cadence; see AttachJournal).
//
// The returned NJS serves status/outcome requests immediately, but holds all
// recovered in-flight work until ResumeRecovered is called — the caller must
// first re-wire the pieces recovery cannot know: the peer client (SetPeers)
// and the login mapper (normally the gateway).
func Recover(store *journal.Store, cfg Config, snapshotEvery int) (*NJS, error) {
	n, err := New(cfg)
	if err != nil {
		return nil, err
	}
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
	// A job's admission event is journaled just ahead of its ADMIT record.
	// An event of a job not admitted yet is held back until the admission
	// arrives; if a torn tail swallowed the admission the event goes with
	// it, so a job that was never there leaves nothing in the event log.
	early := make(map[string][]*journal.JobEventRecord)
	err = store.Replay(func(e journal.Entry) error {
		if ev := e.Event; e.Kind == journal.KindJobEvent && ev != nil && n.jobs[core.JobID(ev.Job)] == nil {
			early[ev.Job] = append(early[ev.Job], ev)
			return nil
		}
		if err := n.applyEntry(e); err != nil {
			return err
		}
		if e.Kind == journal.KindAdmit {
			for _, ev := range early[e.Admit.Job] {
				if err := n.applyJobEvent(ev); err != nil {
					return err
				}
			}
			delete(early, e.Admit.Job)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for name, vs := range n.vsites {
		vs.Space.FS().SetQuota(quotas[name])
	}
	// The replayed file trees carry every acknowledged staged-upload chunk
	// and metadata document; rebuild the spool indexes from them so uploads
	// survive the crash with their handles and watermarks intact.
	for _, sp := range n.spools {
		if err := sp.Rescan(); err != nil {
			return nil, err
		}
	}
	n.AttachJournal(store, snapshotEvery)
	return n, nil
}

// ResumeRecovered finishes a recovery once the NJS is fully wired: it
// rebinds Uspace directories, removes orphans, re-arms remote poll timers,
// re-links finished children, and re-dispatches everything that was in
// flight. Calling it on an NJS that was not recovered (or twice) is a no-op
// for jobs that are already running normally.
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
		// Sub-jobs at peer Usites: keep polling where we left off.
		for _, aid := range sortedActionIDs(uj.remote) {
			if o := uj.outcomes[aid]; o != nil && !o.Status.Terminal() {
				uj.inflight[aid] = true
				n.scheduleRemotePollLocked(uj.id, aid, uj.remote[aid])
			}
		}
		// Locally expanded sub-jobs: the child drives itself; a child that
		// finished before the crash completes the parent action through the
		// clock, exactly as live finalisation would have.
		for _, aid := range sortedActionIDs(uj.children) {
			o := uj.outcomes[aid]
			if o == nil || o.Status.Terminal() {
				continue
			}
			uj.inflight[aid] = true
			childID := uj.children[aid]
			if child, ok := n.job(childID); ok {
				child.mu.Lock() // ancestor→descendant order
				terminal := child.root.Status.Terminal()
				child.mu.Unlock()
				if terminal {
					parentID, action := uj.id, aid
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
	if peers := n.peerClient(); peers != nil {
		for _, ref := range remotes {
			_ = peers.Call(context.Background(), ref.usite, protocol.MsgControl,
				protocol.ControlRequest{Job: ref.job, Op: ajo.OpAbort}, nil)
		}
	}
}

// applyEntry replays one journal entry. Replay runs before traffic, so it
// mutates job state without locks; every application is idempotent.
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
	case journal.KindJobEvent:
		return n.applyJobEvent(e.Event)
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
	if m == nil {
		return fmt.Errorf("njs: %s entry without file payload", e.Kind)
	}
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
		_ = fs.RemoveAll(m.To)
		if err := fs.MkdirAll(path.Dir(m.To)); err != nil {
			return err
		}
		return fs.Rename(m.Path, m.To)
	}
	return nil
}

func (n *NJS) applyAdmit(a *journal.Admission) error {
	if a == nil {
		return errors.New("njs: admit entry without payload")
	}
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
	graph, err := job.Graph()
	if err != nil {
		return err
	}
	uj := &unicoreJob{
		id:         id,
		owner:      core.DN(a.Owner),
		login:      uudb.Login{UID: a.UID, Groups: a.Groups, Project: a.Project},
		job:        job,
		vsite:      vs,
		jobDir:     vs.Space.JobDir(id),
		graph:      graph,
		consignID:  a.ConsignID,
		submitted:  a.Submitted,
		outcomes:   make(map[ajo.ActionID]*ajo.Outcome, len(job.Actions)),
		done:       make(map[string]bool),
		inflight:   make(map[ajo.ActionID]bool),
		injections: make(map[ajo.ActionID][]injection),
		batch:      make(map[ajo.ActionID]codine.JobID),
		remote:     make(map[ajo.ActionID]*remoteRef),
		children:   make(map[ajo.ActionID]core.JobID),
	}
	uj.root = ajo.NewOutcome(job)
	uj.root.Status = ajo.StatusRunning
	uj.root.Started = a.Submitted
	for _, act := range job.Actions {
		o := ajo.NewOutcome(act)
		uj.outcomes[act.ID()] = o
		uj.root.Children = append(uj.root.Children, o)
	}
	if a.ParentJob != "" {
		uj.parent = &parentLink{job: core.JobID(a.ParentJob), action: ajo.ActionID(a.ParentAction)}
		if parent, ok := n.jobs[uj.parent.job]; ok {
			parent.children[uj.parent.action] = id
		}
	}
	n.jobs[id] = uj
	if s := jobSeq(id); s > n.seq {
		n.seq = s
	}
	if a.ConsignID != "" {
		done := make(chan struct{})
		close(done)
		n.consignIndex[a.ConsignID] = &consignEntry{done: done, id: id}
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

func (n *NJS) replayJobAction(ev *journal.ActionEvent) (*unicoreJob, *ajo.Outcome) {
	if ev == nil {
		return nil, nil
	}
	uj, ok := n.jobs[core.JobID(ev.Job)]
	if !ok {
		return nil, nil
	}
	return uj, uj.outcomes[ajo.ActionID(ev.Action)]
}

func (n *NJS) applyActionStart(ev *journal.ActionEvent) error {
	uj, o := n.replayJobAction(ev)
	if uj == nil || o == nil || o.Status.Terminal() {
		return nil
	}
	o.Status = ajo.Status(ev.Status)
	return nil
}

func (n *NJS) applyActionDone(ev *journal.ActionEvent) error {
	uj, o := n.replayJobAction(ev)
	if uj == nil || o == nil || o.Status.Terminal() {
		return nil
	}
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
	uj.done[ev.Action] = true
	delete(uj.inflight, ajo.ActionID(ev.Action))
	return nil
}

func (n *NJS) applyInject(in *journal.Injection) error {
	if in == nil {
		return nil
	}
	uj, ok := n.jobs[core.JobID(in.Job)]
	if !ok {
		return nil
	}
	after := ajo.ActionID(in.After)
	for _, existing := range uj.injections[after] {
		if existing.name == in.Name {
			return nil // snapshot + tail overlap
		}
	}
	uj.injections[after] = append(uj.injections[after], injection{name: in.Name, data: in.Data})
	return nil
}

func (n *NJS) applyRemote(r *journal.RemoteLink) error {
	if r == nil {
		return nil
	}
	uj, ok := n.jobs[core.JobID(r.Job)]
	if !ok {
		return nil
	}
	uj.remote[ajo.ActionID(r.Action)] = &remoteRef{
		usite: core.Usite(r.Usite), job: core.JobID(r.RemoteJob),
	}
	return nil
}

func (n *NJS) applyControl(c *journal.ControlEvent) error {
	if c == nil {
		return nil
	}
	uj, ok := n.jobs[core.JobID(c.Job)]
	if !ok {
		return nil
	}
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

// applyJobEvent restores one subscription event into the event log with its
// original sequence numbers; Restore drops snapshot+tail duplicates.
func (n *NJS) applyJobEvent(r *journal.JobEventRecord) error {
	if r == nil {
		return nil
	}
	n.log.Restore(core.DN(r.Owner), events.Event{
		Job:      core.JobID(r.Job),
		Seq:      r.Seq,
		Global:   r.Global,
		Origin:   r.Origin,
		Type:     events.Type(r.Type),
		Action:   ajo.ActionID(r.Action),
		Status:   ajo.Status(r.Status),
		Reason:   r.Reason,
		Time:     r.Time,
		Terminal: r.Terminal,
	})
	return nil
}

func (n *NJS) applyRootDone(r *journal.RootEvent) error {
	if r == nil {
		return nil
	}
	uj, ok := n.jobs[core.JobID(r.Job)]
	if !ok {
		return nil
	}
	if uj.root.Status.Terminal() {
		return nil
	}
	uj.root.Status = ajo.Status(r.Status)
	uj.root.Finished = r.Finished
	return nil
}
