// Package njs implements the Network Job Supervisor — the job-management
// core of the UNICORE server tier (paper §4.2, §5.5). The NJS:
//
//   - accepts consigned AJOs and creates the per-job Uspace directory,
//   - translates abstract tasks into real batch jobs via the translation
//     tables (package incarnation) and submits them to the Vsite's batch
//     subsystem (package codine),
//   - schedules the dependent parts of a job in the predefined sequence
//     (its only scheduling power — §5.5: delivery order, never the
//     destination system's queue),
//   - performs imports, exports, and Uspace-to-Uspace transfers,
//   - distributes job groups destined for other Usites to the peer NJS
//     through the target site's gateway, and collects their outcomes, and
//   - answers status, outcome, list, and control requests.
//
// # Concurrency model
//
// The NJS is designed for many concurrent clients. Job state is sharded:
// every consigned job carries its own lock, and a lightweight registry
// RWMutex guards only the job map and its indexes. Poll, Outcome, List,
// Control, and FetchFile on different jobs never contend; clock callbacks
// (deferred completions, batch events, remote polls) lock only the job they
// advance. Methods with a "Locked" suffix require the receiver job's lock.
//
// Lock ordering: job locks nest strictly ancestor→descendant down the
// sub-job tree (a parent may lock its child, never the reverse — a child
// notifies its parent through a clock callback), and the registry lock is
// acquired only below job locks. Fields of a job that are set at admission
// (id, owner, login, job, vsite, jobDir, graph, submitted, parent) are
// immutable and may be read without any lock.
//
// # Durability
//
// With a journal (Config.Journal), every admission and state transition is
// appended to a write-ahead journal: the append is an O(1) enqueue on a
// batched background flusher, so journaling never puts file I/O inside a job
// lock and Poll appends nothing. Consign additionally group-commits (fsync,
// batched across concurrent consigns, outside all locks) before
// acknowledging, so an accepted job is always durable. See durable.go for the
// recovery model.
package njs

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"unicore/internal/accounting"
	"unicore/internal/ajo"
	"unicore/internal/codine"
	"unicore/internal/core"
	"unicore/internal/dag"
	"unicore/internal/events"
	"unicore/internal/incarnation"
	"unicore/internal/journal"
	"unicore/internal/machine"
	"unicore/internal/protocol"
	"unicore/internal/resources"
	"unicore/internal/sim"
	"unicore/internal/staging"
	"unicore/internal/telemetry"
	"unicore/internal/uspace"
	"unicore/internal/uudb"
	"unicore/internal/vfs"
)

// Errors reported by NJS operations.
var (
	ErrUnknownJob    = errors.New("njs: unknown job")
	ErrUnknownVsite  = errors.New("njs: unknown vsite")
	ErrWrongUsite    = errors.New("njs: job addressed to another usite")
	ErrNotAuthorized = errors.New("njs: not authorized for this job")
	ErrDown          = errors.New("njs: site is down")
)

// Timing model for staged data (virtual time): local copies stream at
// localCopyRate after fileOpLatency; Uspace-to-Uspace transfers over https
// pay httpsLatency and stream at httpsRate — the §5.6 disadvantage.
const (
	fileOpLatency = 5 * time.Millisecond
	httpsLatency  = 50 * time.Millisecond
	localCopyRate = 200 << 20 // bytes/second
	httpsRate     = 10 << 20  // bytes/second

	remotePollInterval = 2 * time.Second
	remoteMaxFailures  = 30
)

func localCopyDelay(size int64) time.Duration {
	return fileOpLatency + time.Duration(float64(size)/localCopyRate*float64(time.Second))
}

func httpsTransferDelay(size int64) time.Duration {
	return httpsLatency + time.Duration(float64(size)/httpsRate*float64(time.Second))
}

// LoginMapper resolves a user DN to the local login at a Vsite: the site
// UUDB's Map, the mapping the paper's security servlet owns (§4.2).
type LoginMapper func(core.DN, core.Vsite) (uudb.Login, error)

// VsiteConfig declares one execution system behind this NJS.
type VsiteConfig struct {
	Name    core.Vsite
	Profile machine.Profile
	// Queues defaults to a single "batch" queue spanning all processors.
	Queues []codine.Queue
	// Backfill enables EASY backfill in the batch scheduler.
	Backfill bool
	// Quota bounds the Vsite's data space (0 = unlimited).
	Quota int64
}

// Vsite is one configured execution system.
type Vsite struct {
	Name  core.Vsite
	RMS   *codine.RMS
	Table incarnation.Table
	Space *uspace.Space
	Page  resources.Page
}

// Config assembles an NJS.
type Config struct {
	Usite  core.Usite
	Clock  sim.Scheduler
	Vsites []VsiteConfig
	// Instance names this NJS within a replica pool: its one Vsite and its
	// pool tag, as pool.Instance forms them ("CLUSTER.r1"). When set, minted
	// job IDs ("FZJ-CLUSTER.r1-000042" instead of "FZJ-000042"), staged-upload
	// handles, event-log origins and the telemetry origin all carry it, so
	// the replicas of one Usite never collide and the pool routes by the
	// name an ID carries — and, since sub-job consign IDs derive from job
	// IDs, they never collide on the deterministic consign IDs they present
	// to peer sites either. Leave empty for a single-NJS site; a recovered
	// replica must reuse the instance it was journaled under.
	Instance string
	// Logins maps each user to a login at the target Vsite — the site UUDB's
	// Map. Required.
	Logins LoginMapper
	// Peers reaches other Usites' gateways for sub-jobs and Uspace-to-Uspace
	// transfers; nil for a site with no peers.
	Peers *protocol.Client
	// Journal makes the NJS durable: New replays it (an empty store is a
	// fresh site) and journals every later transition to it. The caller owns
	// the store. Recovered in-flight work waits for ResumeRecovered.
	Journal *journal.Store
	// SnapshotEvery > 0 compacts the journal after that many appended
	// entries; 0 leaves compaction to Snapshot.
	SnapshotEvery int
}

// NJS is one site's network job supervisor.
type NJS struct {
	usite    core.Usite
	instance string
	clock    sim.Scheduler
	vsites   map[core.Vsite]*Vsite // immutable after New
	// spools holds each Vsite's staged-upload spool (immutable after New;
	// the Spool itself is thread-safe). See staging.go.
	spools map[core.Vsite]*staging.Spool
	// spoolByTag indexes the same spools by the tag they mint into their
	// handles, so a handle names its spool (staging.HandleTag).
	spoolByTag map[string]*staging.Spool

	logins LoginMapper
	// peers is the client for sub-job consignment and transfers (nil: no
	// peer sites).
	peers *protocol.Client

	// regMu guards the job registry and the batch index. It is held only
	// for map lookups and inserts — never across job work — so that
	// operations on different jobs proceed in parallel. See the package
	// comment for the lock ordering.
	regMu      sync.RWMutex
	jobs       map[core.JobID]*unicoreJob
	owned      map[core.DN][]*unicoreJob // each owner's top-level jobs, append-only (List)
	batchIndex map[batchKey]actionRef
	seq        int64

	// consignMu guards consignIndex. Idempotent consignment uses a
	// reservation scheme: the first caller for a consign ID inserts an
	// entry and admits with no lock held (admission may consign sub-jobs
	// to peer sites — holding a site-wide lock across that network call
	// could deadlock two sites consigning to each other); concurrent
	// retries wait on the entry instead of admitting a duplicate.
	consignMu    sync.Mutex
	consignIndex map[string]*consignEntry

	// log is the protocol-v2 event log: every lifecycle transition is
	// appended here (always, journal or not) so subscribers can consume job
	// progress as server-push events instead of polling.
	log *events.Log

	// rec is the attached journal recorder (nil = durability disabled). An
	// atomic pointer keeps the hot-path check lock-free.
	rec atomic.Pointer[recorder]
	// dead marks a killed NJS (crash simulation / decommission): clock
	// callbacks that fire afterwards must not advance state, reach peers, or
	// journal.
	dead atomic.Bool

	// tel is this NJS's telemetry registry (consign latency, journal sync
	// latency and batch sizes, staging throughput, trace spans). Its clock
	// is the NJS clock, so spans order on simulation time under a testbed.
	tel *telemetry.Registry
	// journalSynced remembers the journal-append total at the last sync so
	// SyncJournal can report group-commit batch sizes.
	journalSynced atomic.Uint64
}

// consignEntry is one idempotent-consignment reservation. done is closed
// once id/err are set; failed attempts are removed from the index so a
// later retry can re-attempt admission.
type consignEntry struct {
	done chan struct{}
	id   core.JobID
	err  error
}

type batchKey struct {
	vsite core.Vsite
	job   codine.JobID
}

type actionRef struct {
	job    core.JobID
	action ajo.ActionID
}

// unicoreJob is the NJS-side state of one consigned job group.
type unicoreJob struct {
	// Immutable after admission — readable without holding mu.
	id        core.JobID
	owner     core.DN
	login     uudb.Login
	job       *ajo.AbstractJob
	vsite     *Vsite
	jobDir    string
	graph     *dag.Graph
	submitted time.Time
	consignID string
	// parent links a locally expanded child back to its parent action.
	parent *parentLink

	// mu guards everything below. It is this job's shard of the NJS:
	// operations on other jobs never take it.
	mu       sync.Mutex
	outcomes map[ajo.ActionID]*ajo.Outcome
	root     *ajo.Outcome
	done     map[string]bool
	inflight map[ajo.ActionID]bool
	held     bool
	aborted  bool
	// injections are files to stage into a sub-job before consigning it
	// (dependency-files arriving from predecessors).
	injections map[ajo.ActionID][]injection
	// batch maps in-flight actions to their batch job IDs for control.
	batch map[ajo.ActionID]codine.JobID
	// remote tracks sub-jobs consigned to peer Usites.
	remote map[ajo.ActionID]*remoteRef
	// children tracks sub-jobs expanded locally (same Usite).
	children map[ajo.ActionID]core.JobID
}

type injection struct {
	name string
	data []byte
}

type parentLink struct {
	job    core.JobID
	action ajo.ActionID
}

type remoteRef struct {
	usite    core.Usite
	job      core.JobID
	failures int
	timer    sim.Timer
}

// New assembles an NJS from its configuration.
func New(cfg Config) (*NJS, error) {
	if cfg.Usite == "" {
		return nil, errors.New("njs: empty usite name")
	}
	if cfg.Clock == nil {
		return nil, errors.New("njs: nil clock")
	}
	if len(cfg.Vsites) == 0 {
		return nil, errors.New("njs: no vsites configured")
	}
	if cfg.Logins == nil {
		return nil, errors.New("njs: nil login mapper")
	}
	if cfg.Instance != "" && len(cfg.Vsites) != 1 {
		return nil, fmt.Errorf("njs: pool instance %s must serve exactly one vsite, not %d", cfg.Instance, len(cfg.Vsites))
	}
	origin := "njs/" + string(cfg.Usite)
	if cfg.Instance != "" {
		origin += "/" + cfg.Instance
	}
	n := &NJS{
		usite:        cfg.Usite,
		instance:     cfg.Instance,
		clock:        cfg.Clock,
		logins:       cfg.Logins,
		peers:        cfg.Peers,
		tel:          telemetry.New(origin),
		vsites:       make(map[core.Vsite]*Vsite, len(cfg.Vsites)),
		spools:       make(map[core.Vsite]*staging.Spool, len(cfg.Vsites)),
		spoolByTag:   make(map[string]*staging.Spool, len(cfg.Vsites)),
		jobs:         make(map[core.JobID]*unicoreJob),
		owned:        make(map[core.DN][]*unicoreJob),
		batchIndex:   make(map[batchKey]actionRef),
		consignIndex: make(map[string]*consignEntry),
		log:          events.NewLog(cfg.Instance, events.DefaultJobCap),
	}
	n.tel.SetNow(cfg.Clock.Now)
	for _, vc := range cfg.Vsites {
		if vc.Name == "" {
			return nil, errors.New("njs: vsite without name")
		}
		if _, dup := n.vsites[vc.Name]; dup {
			return nil, fmt.Errorf("njs: duplicate vsite %q", vc.Name)
		}
		queues := vc.Queues
		if len(queues) == 0 {
			queues = []codine.Queue{{Name: "batch", Slots: vc.Profile.Processors, MaxTime: 24 * time.Hour}}
		}
		fs := vfs.New(cfg.Clock)
		if vc.Quota > 0 {
			fs.SetQuota(vc.Quota)
		}
		space, err := uspace.New(fs)
		if err != nil {
			return nil, err
		}
		rms, err := codine.New(cfg.Clock, codine.Config{
			Machine:  vc.Profile,
			Queues:   queues,
			Backfill: vc.Backfill,
		})
		if err != nil {
			return nil, fmt.Errorf("njs: vsite %s: %w", vc.Name, err)
		}
		target := core.Target{Usite: cfg.Usite, Vsite: vc.Name}
		page := vc.Profile.ResourcePage()
		page.Target = target
		vs := &Vsite{
			Name:  vc.Name,
			RMS:   rms,
			Table: incarnation.NewTable(target, vc.Profile, queues[0].Name),
			Space: space,
			Page:  page,
		}
		n.vsites[vc.Name] = vs
		// The spool tag makes handles globally unambiguous: the Usite, as in
		// a job ID, then the Vsite name within a single NJS or a pool
		// replica's instance (it serves one Vsite), so a handle names the
		// Usite and the replica holding it. A recovered replica reuses its
		// instance, so handles survive recovery unchanged.
		spoolTag := string(cfg.Usite) + "-" + string(vc.Name)
		if cfg.Instance != "" {
			spoolTag = string(cfg.Usite) + "-" + cfg.Instance
		}
		spool, err := staging.NewSpool(fs, SpoolRoot, spoolTag, cfg.Clock)
		if err != nil {
			return nil, fmt.Errorf("njs: vsite %s: %w", vc.Name, err)
		}
		n.spools[vc.Name] = spool
		n.spoolByTag[spoolTag] = spool
		name := vc.Name
		// Deliver start events through the clock rather than synchronously:
		// the RMS may dispatch inside Submit, which runs while the NJS holds
		// its own lock, and the deferral also guarantees the batch index is
		// registered before the event is handled.
		rms.Observe(func(ev codine.Event) {
			if ev.Type != codine.EventStarted {
				return
			}
			bid := ev.Job
			cfg.Clock.AfterFunc(0, func() { n.onBatchStarted(name, bid) })
		})
	}
	if cfg.Journal != nil {
		if err := n.recover(cfg.Journal, cfg.SnapshotEvery); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// Usite returns the site this NJS serves.
func (n *NJS) Usite() core.Usite { return n.usite }

// VsiteNames lists the configured Vsites, sorted.
func (n *NJS) VsiteNames() []core.Vsite {
	out := make([]core.Vsite, 0, len(n.vsites))
	for v := range n.vsites {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Vsite returns a configured Vsite.
func (n *NJS) Vsite(name core.Vsite) (*Vsite, bool) {
	v, ok := n.vsites[name]
	return v, ok
}

// Pages returns the resource pages of all Vsites, sorted by target.
func (n *NJS) Pages() []resources.Page {
	var out []resources.Page
	for _, name := range n.VsiteNames() {
		out = append(out, n.vsites[name].Page)
	}
	return out
}

// Accounting returns the batch accounting of every Vsite, in Vsite-name
// order, tagged with its target and the machine's per-PE peak so usage can
// be merged and charged across sites (package accounting).
func (n *NJS) Accounting() []accounting.Record {
	var out []accounting.Record
	for _, name := range n.VsiteNames() {
		rms := n.vsites[name].RMS
		for _, rec := range rms.Accounting() {
			out = append(out, accounting.Record{
				Target:      core.Target{Usite: n.usite, Vsite: name},
				MFlopsPerPE: rms.Machine().MFlopsPerPE,
				Record:      rec,
			})
		}
	}
	return out
}

// nextJobID mints "USITE-000001"-style IDs ("USITE-CLUSTER.r1-000001" when
// this NJS is a pool replica; JobInstance inverts it).
func (n *NJS) nextJobID() core.JobID {
	n.regMu.Lock()
	n.seq++
	seq := n.seq
	n.regMu.Unlock()
	var b [64]byte
	id := append(b[:0], n.usite...)
	if n.instance != "" {
		id = append(append(id, '-'), n.instance...)
	}
	return core.JobID(core.AppendSeq(append(id, '-'), seq, 6))
}

// job resolves a job ID under the registry read lock. Jobs are never removed
// from the registry, so the returned pointer stays valid.
func (n *NJS) job(id core.JobID) (*unicoreJob, bool) {
	n.regMu.RLock()
	uj, ok := n.jobs[id]
	n.regMu.RUnlock()
	return uj, ok
}

// registerLocked enters a job in the registry and a top-level job in its
// owner's index, which is append-only: List ranges over a slice of it taken
// under the lock and read without it. Callers hold regMu, or are replaying
// before the NJS is served.
func (n *NJS) registerLocked(uj *unicoreJob) {
	n.jobs[uj.id] = uj
	if uj.parent == nil {
		n.owned[uj.owner] = append(n.owned[uj.owner], uj)
	}
}

// Consign accepts an AJO for execution — the asynchronous submit of §5.3.
// It validates the job, maps the user at the destination Vsite, checks the
// resource requests against the Vsite's resource page, creates the job
// directory, and begins dispatching. consignID makes retries idempotent;
// ctx carries the caller's distributed trace for per-hop spans.
func (n *NJS) Consign(ctx context.Context, user core.DN, consignID string, job *ajo.AbstractJob) (core.JobID, error) {
	if n.dead.Load() {
		return "", ErrDown
	}
	vsiteTag := string(job.Target.Vsite)
	defer n.tel.StartSpan(ctx, "njs.consign").Note(vsiteTag).End()
	n.tel.Counter("consign_total", "vsite", vsiteTag).Inc()
	inflight := n.tel.Gauge("njs_consign_inflight", "vsite", vsiteTag)
	inflight.Inc()
	ackStart := time.Now()
	defer func() {
		inflight.Dec()
		n.tel.Histogram("consign_ack_seconds", telemetry.ScaleSeconds).ObserveSince(ackStart)
	}()
	graph, err := job.Check()
	if err != nil {
		return "", err
	}
	if job.Target.Usite != n.usite {
		return "", fmt.Errorf("%w: %s (this NJS serves %s)", ErrWrongUsite, job.Target, n.usite)
	}
	vs, ok := n.vsites[job.Target.Vsite]
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrUnknownVsite, job.Target.Vsite)
	}
	login, err := n.logins(user, job.Target.Vsite)
	if err != nil {
		return "", fmt.Errorf("njs: mapping %s at %s: %w", user, job.Target.Vsite, err)
	}
	// Resource admission: every executable task must fit the Vsite.
	for _, a := range job.Actions {
		if req, ok := ajo.TaskResources(a); ok {
			if err := vs.Page.Check(req); err != nil {
				return "", fmt.Errorf("njs: task %s: %w", a.ID(), err)
			}
		}
	}

	if consignID == "" {
		return n.admitDurably(ctx, user, login, job, graph, vs, "")
	}
	for {
		n.consignMu.Lock()
		e, dup := n.consignIndex[consignID]
		if !dup {
			e = &consignEntry{done: make(chan struct{})}
			n.consignIndex[consignID] = e
			n.consignMu.Unlock()
			id, err := n.admitDurably(ctx, user, login, job, graph, vs, consignID)
			n.consignMu.Lock()
			// An admitted job keeps its reservation even when the durability
			// sync failed: it is running, so retries must converge on it (and
			// surface the same error), never duplicate it.
			e.id, e.err = id, err
			if id == "" {
				delete(n.consignIndex, consignID) // not admitted: let a retry re-attempt
			}
			n.consignMu.Unlock()
			close(e.done)
			return id, err
		}
		n.consignMu.Unlock()
		<-e.done // idempotent retry: wait for the admitting caller
		if e.err == nil || e.id != "" {
			return e.id, e.err
		}
		// The attempt we waited on failed before admission and was cleared;
		// try again.
	}
}

// admitDurably admits a consigned job and acknowledges it only once its
// admission record is durable. Write-ahead contract: the record must be
// durable before the client is told the job was accepted — a crash after the
// ack may lose later transitions, never the job itself. The store's batched
// flusher group-commits concurrent consigns. The ID is "" only when the job
// was not admitted; on a sync failure it is returned with the error: the job
// is admitted and running, only its durability is unconfirmed.
func (n *NJS) admitDurably(ctx context.Context, user core.DN, login uudb.Login, job *ajo.AbstractJob, graph *dag.Graph, vs *Vsite, consignID string) (core.JobID, error) {
	id, err := n.admit(user, login, job, graph, vs, nil, consignID)
	if err != nil {
		return id, err
	}
	sp := n.tel.StartSpan(ctx, "njs.journal.sync")
	err = n.SyncJournal()
	sp.End()
	if err == nil && n.dead.Load() {
		// Killed between admit and ack: the recorder may already have been
		// detached, so this admission's durability is unknowable. Refuse
		// the ack — either the record reached the journal (the job
		// recovers) or the client's retry re-consigns it.
		err = ErrDown
	}
	return id, err
}

// admit creates the job record, registers it, and starts dispatching under
// the new job's own lock. graph is the job's (job.Check). parent is set for
// locally expanded sub-jobs, in which case the caller holds the parent's lock
// (ancestor→descendant order).
func (n *NJS) admit(user core.DN, login uudb.Login, job *ajo.AbstractJob, graph *dag.Graph, vs *Vsite, parent *parentLink, consignID string) (core.JobID, error) {
	id := n.nextJobID()
	jobDir, err := vs.Space.CreateJobDir(id)
	if err != nil {
		return "", fmt.Errorf("njs: creating job directory: %w", err)
	}
	uj := &unicoreJob{
		id:         id,
		owner:      user,
		login:      login,
		job:        job,
		vsite:      vs,
		jobDir:     jobDir,
		graph:      graph,
		consignID:  consignID,
		outcomes:   make(map[ajo.ActionID]*ajo.Outcome, len(job.Actions)),
		done:       make(map[string]bool),
		inflight:   make(map[ajo.ActionID]bool),
		injections: make(map[ajo.ActionID][]injection),
		batch:      make(map[ajo.ActionID]codine.JobID),
		remote:     make(map[ajo.ActionID]*remoteRef),
		children:   make(map[ajo.ActionID]core.JobID),
		parent:     parent,
		submitted:  n.clock.Now(),
	}
	uj.root = ajo.NewOutcome(job)
	uj.root.Status = ajo.StatusRunning
	uj.root.Started = n.clock.Now()
	for _, a := range job.Actions {
		o := ajo.NewOutcome(a)
		uj.outcomes[a.ID()] = o
		uj.root.Children = append(uj.root.Children, o)
	}
	// The job is locked before it is visible, so no control reaches it
	// ahead of its admission: its first event and record are the ADMIT's.
	uj.mu.Lock()
	n.regMu.Lock()
	n.registerLocked(uj)
	n.regMu.Unlock()
	n.recordAdmit(uj)
	n.dispatchLocked(uj)
	uj.mu.Unlock()
	return id, nil
}

// dispatchLocked launches every ready action of a job.
func (n *NJS) dispatchLocked(uj *unicoreJob) {
	if uj.held || uj.aborted || uj.root.Status.Terminal() {
		return
	}
	for _, idStr := range uj.graph.Ready(uj.done) {
		aid := ajo.ActionID(idStr)
		if uj.inflight[aid] {
			continue
		}
		a, ok := uj.job.Find(aid)
		if !ok { // cannot happen on a validated job
			continue
		}
		uj.inflight[aid] = true
		n.startActionLocked(uj, a)
	}
	n.finalizeIfDoneLocked(uj)
}

// completeActionLocked records a terminal status for an action, cascades
// NotDone to dependents of failures, and continues dispatching.
func (n *NJS) completeActionLocked(uj *unicoreJob, aid ajo.ActionID, status ajo.Status, reason string) {
	o := uj.outcomes[aid]
	if o == nil || o.Status.Terminal() {
		return
	}
	o.Status = status
	if reason != "" {
		o.Reason = reason
	}
	if o.Finished.IsZero() {
		o.Finished = n.clock.Now()
	}
	uj.done[string(aid)] = true
	delete(uj.inflight, aid)
	n.recordActionDone(uj, aid, o)

	if status == ajo.StatusSuccessful {
		if err := n.propagateFilesLocked(uj, aid); err != nil {
			// A guaranteed dependency file is missing or unreachable: the
			// successors that needed it cannot run.
			n.failSuccessorsNeedingFilesLocked(uj, aid, err)
		}
	} else {
		n.cascadeNotDoneLocked(uj, aid)
	}
	n.dispatchLocked(uj)
}

// cascadeNotDoneLocked marks every descendant of aid as NOT_DONE.
func (n *NJS) cascadeNotDoneLocked(uj *unicoreJob, aid ajo.ActionID) {
	desc, err := uj.graph.Descendants(string(aid))
	if err != nil {
		return
	}
	for _, d := range desc {
		did := ajo.ActionID(d)
		o := uj.outcomes[did]
		if o == nil || o.Status.Terminal() {
			continue
		}
		o.Status = ajo.StatusNotDone
		o.Reason = fmt.Sprintf("predecessor %s did not succeed", aid)
		o.Finished = n.clock.Now()
		uj.done[d] = true
		delete(uj.inflight, did)
		n.recordActionDone(uj, did, o)
	}
}

// failSuccessorsNeedingFilesLocked handles a broken file-dependency edge.
func (n *NJS) failSuccessorsNeedingFilesLocked(uj *unicoreJob, before ajo.ActionID, cause error) {
	for _, dep := range uj.job.Dependencies {
		if dep.Before != before || len(dep.Files) == 0 {
			continue
		}
		o := uj.outcomes[dep.After]
		if o == nil || o.Status.Terminal() {
			continue
		}
		o.Status = ajo.StatusNotDone
		o.Reason = fmt.Sprintf("dependency files unavailable: %v", cause)
		o.Finished = n.clock.Now()
		uj.done[string(dep.After)] = true
		n.recordActionDone(uj, dep.After, o)
		n.cascadeNotDoneLocked(uj, dep.After)
	}
}

// finalizeIfDoneLocked closes the job once every action is terminal.
func (n *NJS) finalizeIfDoneLocked(uj *unicoreJob) {
	if uj.root.Status.Terminal() {
		return
	}
	if len(uj.done) < uj.graph.Len() {
		return
	}
	status := ajo.Aggregate(uj.root.Children)
	if uj.aborted && status != ajo.StatusFailed {
		status = ajo.StatusAborted
	}
	uj.root.Status = status
	uj.root.Finished = n.clock.Now()
	n.recordRootDone(uj)
	if uj.parent != nil {
		// Notify the parent through the clock: the lock order is
		// ancestor→descendant, so a child must never reach up into its
		// parent while holding its own lock.
		link, childID := *uj.parent, uj.id
		n.clock.AfterFunc(0, func() { n.completeChild(link.job, link.action, childID) })
	}
}

// completeChild folds a finished local sub-job into its parent. It runs as a
// clock callback, locking the parent before the child.
func (n *NJS) completeChild(parentID core.JobID, aid ajo.ActionID, childID core.JobID) {
	if n.dead.Load() {
		return
	}
	parent, ok := n.job(parentID)
	if !ok {
		return
	}
	child, ok := n.job(childID)
	if !ok {
		return
	}
	parent.mu.Lock()
	defer parent.mu.Unlock()
	o := parent.outcomes[aid]
	if o == nil || o.Status.Terminal() {
		return
	}
	//lint:allow lockorder childID is parent's sub-job (parentLink set at admit), so parent→child is ancestor→descendant
	child.mu.Lock()
	status := child.root.Status
	started := child.root.Started
	children := child.root.Children
	child.mu.Unlock()
	if !status.Terminal() {
		return
	}
	parent.children[aid] = childID
	// The child is terminal, so its outcome nodes are frozen and safe to
	// share with the parent's tree.
	o.Children = children
	o.Started = started
	reason := ""
	if status != ajo.StatusSuccessful {
		reason = fmt.Sprintf("sub-job %s finished %s", childID, status)
	}
	n.completeActionLocked(parent, aid, status, reason)
	n.finalizeIfDoneLocked(parent)
}

// VsiteLoad reports one Vsite's batch occupancy and backlog, plus the
// replica-pool topology behind it: a single NJS always reports 1/1, while a
// pool.Router reports how many replicas serve the Vsite and how many are
// currently passing health checks — the signal the §6 resource broker uses
// to stop selecting drained sites.
type VsiteLoad struct {
	Load     float64 // fraction of slots in use, [0,1]
	Pending  int     // jobs waiting in the queues
	Inflight int     // consigns currently being admitted (live gauge)
	Replicas int     // NJS replicas serving this Vsite
	Healthy  int     // replicas currently healthy
}

// VsiteLoads reports the occupancy of every configured Vsite — the load
// information a resource broker (paper §6) combines with resource pages.
func (n *NJS) VsiteLoads() map[core.Vsite]VsiteLoad {
	out := make(map[core.Vsite]VsiteLoad, len(n.vsites))
	for name, v := range n.vsites {
		out[name] = VsiteLoad{
			Load:     v.RMS.Load(),
			Pending:  v.RMS.Backlog(),
			Inflight: int(n.tel.Gauge("njs_consign_inflight", "vsite", string(name)).Value()),
			Replicas: 1,
			Healthy:  1,
		}
	}
	return out
}
