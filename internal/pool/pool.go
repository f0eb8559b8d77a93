// Package pool scales the UNICORE server tier horizontally. The paper's
// gateway presents each Usite as a single door to many Vsites (§4.2, §5.5),
// but binds one NJS to each Vsite — the single-system bottleneck the
// production follow-up to the testbed deployment (§5.7) had to engineer
// away. This package fronts N njs.Service replicas per Vsite with:
//
//   - pluggable routing — round-robin, least-loaded (live load queries, the
//     same signal the §6 broker consumes), and consistent-hash-by-job-id so
//     Poll/Outcome/FetchFile land on the replica that owns the job,
//   - active health checks with exponential-backoff circuit breaking, so a
//     dead or drowning replica stops receiving traffic until it proves
//     itself again, and
//   - consign failover: an admission that was never acknowledged is retried
//     on the next healthy replica. This is safe because consignment is
//     idempotent (the durable-ack contract of the journal subsystem): a
//     retry with the same consign ID converges on the acknowledged
//     admission instead of duplicating the job.
//
// A ReplicaSet pools the replicas of one Vsite; a Router aggregates the
// ReplicaSets of one Usite and itself implements njs.Service, so a gateway
// fronts a pool exactly as it fronts a single NJS.
//
// Replicas must be built with distinct njs.Config.Instance tags: the tag
// keeps minted job IDs (and the deterministic sub-job consign IDs derived
// from them) disjoint across the replicas of one Usite.
package pool

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"unicore/internal/ajo"
	"unicore/internal/core"
	"unicore/internal/njs"
	"unicore/internal/protocol"
	"unicore/internal/sim"
	"unicore/internal/telemetry"
)

// Errors reported by replica routing.
var (
	// ErrNoReplica reports that no healthy replica is available for a
	// request — every breaker is open and every half-open probe failed.
	ErrNoReplica = errors.New("pool: no healthy replica")
	// ErrReplicaDown reports that the specific replica that owns a job is
	// unhealthy; the job will be reachable again once the replica is
	// restarted (SetService) or its health probe succeeds.
	ErrReplicaDown = errors.New("pool: owning replica is unhealthy")
	// ErrUnknownReplica reports a replica name that was never added.
	ErrUnknownReplica = errors.New("pool: unknown replica")
	// ErrDuplicateReplica reports an Add with an already-used name.
	ErrDuplicateReplica = errors.New("pool: duplicate replica name")
)

// Policy selects how a ReplicaSet routes new consignments.
type Policy int

const (
	// RoundRobin cycles admissions over the healthy replicas.
	RoundRobin Policy = iota
	// LeastLoaded queries each healthy replica's live load
	// (njs.Service.VsiteLoads) and admits on the least occupied one.
	LeastLoaded
	// ConsistentHash places admissions by hashing the consign ID onto the
	// replica ring, so retries of one submission target the same replica and
	// the placement survives pool restarts.
	ConsistentHash
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case RoundRobin:
		return "round-robin"
	case LeastLoaded:
		return "least-loaded"
	case ConsistentHash:
		return "consistent-hash"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// ParsePolicy resolves a policy name as used by command-line flags.
func ParsePolicy(s string) (Policy, error) {
	switch strings.TrimSpace(s) {
	case "round-robin", "rr", "":
		return RoundRobin, nil
	case "least-loaded", "ll":
		return LeastLoaded, nil
	case "consistent-hash", "ch", "hash":
		return ConsistentHash, nil
	}
	return 0, fmt.Errorf("pool: unknown policy %q (want round-robin, least-loaded, or consistent-hash)", s)
}

// Health-check and circuit-breaker timing.
const (
	// DefaultCheckInterval is the active health-check cadence of
	// StartHealthChecks.
	DefaultCheckInterval = 5 * time.Second
	// DefaultFailureThreshold is how many consecutive failures trip a
	// replica's breaker.
	DefaultFailureThreshold = 1
	// DefaultBackoffBase is the first breaker-open duration; each consecutive
	// trip doubles it up to DefaultBackoffMax.
	DefaultBackoffBase = time.Second
	DefaultBackoffMax  = time.Minute
)

// Config assembles a ReplicaSet.
type Config struct {
	// Vsite is the execution system this set serves.
	Vsite core.Vsite
	// Policy selects the consign routing strategy (default RoundRobin).
	Policy Policy
	// Clock drives health-check timing and circuit-breaker backoff. Required.
	Clock sim.Scheduler
}

// replicaState is the circuit-breaker state of one replica.
type replicaState int

const (
	stateClosed   replicaState = iota // healthy: takes traffic
	stateOpen                         // tripped: excluded until backoff expires
	stateHalfOpen                     // backoff expired: probe before use
)

// serviceBox wraps the Service interface so it can live in an atomic.Value
// regardless of the stored concrete type.
type serviceBox struct{ svc njs.Service }

// Replica is one pooled NJS behind a stable name. The service pointer is
// hot-swappable (SetService), preserving the gateway's SetBackend semantics per
// replica: a recovered NJS takes over mid-traffic without the pool, the
// gateway, or the clients noticing more than the recovery gap.
type Replica struct {
	name string
	svc  atomic.Value // serviceBox

	// draining excludes the replica from new-work routing (consigns, staged
	//-upload opens) while leaving everything it already owns reachable —
	// the first phase of drain-before-kill replacement.
	draining atomic.Bool
	// calls counts routed admission/staging calls currently executing on
	// the replica; a drain has settled when it reaches zero.
	calls atomic.Int64

	// mu guards the breaker state below.
	mu        sync.Mutex
	fails     int       // consecutive failures since the last success
	trips     int       // consecutive breaker trips (backoff exponent)
	openUntil time.Time // breaker open until this instant; zero = closed
}

// Name returns the replica's stable pool name.
func (r *Replica) Name() string { return r.name }

// service returns the current service behind the replica.
func (r *Replica) service() njs.Service { return r.svc.Load().(serviceBox).svc }

// state classifies the breaker at instant now.
func (r *Replica) state(now time.Time) replicaState {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case r.openUntil.IsZero():
		return stateClosed
	case now.Before(r.openUntil):
		return stateOpen
	default:
		return stateHalfOpen
	}
}

// markSuccess closes the breaker and resets the backoff.
func (r *Replica) markSuccess() {
	r.mu.Lock()
	r.fails, r.trips = 0, 0
	r.openUntil = time.Time{}
	r.mu.Unlock()
}

// ackEntry records one acknowledged consignment for idempotent convergence.
// adopted marks an entry inherited from a replica's own index during
// reconcile (e.g. after a pool restart) rather than earned by a live
// acknowledgement — an adopted entry may be the orphan half of a failover,
// so it never licenses aborting a conflicting copy.
type ackEntry struct {
	rep     *Replica
	job     core.JobID
	adopted bool
}

// ReplicaTag is the conventional stable pool name (and njs.Config.Instance
// tag) of replica i. Deployments must reuse the tag a replica was journaled
// under when recovering it, so recovered replicas keep minting job IDs in
// their own disjoint namespace.
func ReplicaTag(i int) string { return fmt.Sprintf("r%d", i) }

// ReplicaSet fronts the NJS replicas of one Vsite: it routes new
// consignments by policy, pins every admitted job to the replica that owns
// it, health-checks the replicas, and fails unacknowledged admissions over
// to the next healthy replica.
type ReplicaSet struct {
	scopedCalls // the job- and handle-scoped calls, over routeJob and routeStage

	cfg Config

	// mu guards replica membership, the ring, the affinity and ack indexes,
	// and the mapper. Routing takes it only for map work, never across a
	// replica call.
	mu       sync.RWMutex
	replicas []*Replica
	byName   map[string]*Replica
	ring     ring
	affinity map[core.JobID]*Replica  // job → owning replica
	acks     map[string]ackEntry      // consign ID → acknowledged admission
	inflight map[string]chan struct{} // consign ID → in-flight admission
	stage    map[string]stagePin      // staged-upload handle → holding replica
	lastOpen map[core.DN]*Replica     // user → replica of their latest StageOpen
	mapper   njs.LoginMapper
	checking bool
	timer    sim.Timer

	rr atomic.Int64 // round-robin cursor

	// tel records routing decisions, breaker transitions, and failover
	// retries, and holds the "pool.consign" trace spans. Its clock is the
	// set's clock, so spans order on simulation time under a testbed.
	tel *telemetry.Registry
}

// New assembles an empty ReplicaSet; add replicas with Add.
func New(cfg Config) (*ReplicaSet, error) {
	if cfg.Vsite == "" {
		return nil, errors.New("pool: empty vsite")
	}
	if cfg.Clock == nil {
		return nil, errors.New("pool: nil clock")
	}
	s := &ReplicaSet{
		cfg:      cfg,
		byName:   make(map[string]*Replica),
		affinity: make(map[core.JobID]*Replica),
		acks:     make(map[string]ackEntry),
		inflight: make(map[string]chan struct{}),
		stage:    make(map[string]stagePin),
		lastOpen: make(map[core.DN]*Replica),
		tel:      telemetry.New("pool/" + string(cfg.Vsite)),
	}
	s.scopedCalls.tier = s
	s.tel.SetNow(cfg.Clock.Now)
	return s, nil
}

// Telemetry returns the set's metrics registry (testbed hook).
func (s *ReplicaSet) Telemetry() *telemetry.Registry { return s.tel }

// Metrics returns the pool's own snapshot followed by each replica's —
// the per-replica breakdown behind a MsgMetrics scrape.
func (s *ReplicaSet) Metrics() []telemetry.Snapshot {
	out := []telemetry.Snapshot{s.tel.Snapshot()}
	for _, rep := range s.snapshotReplicas() {
		out = append(out, rep.service().Metrics()...)
	}
	return out
}

// Vsite returns the execution system this set serves.
func (s *ReplicaSet) Vsite() core.Vsite { return s.cfg.Vsite }

// Policy returns the consign routing policy.
func (s *ReplicaSet) Policy() Policy { return s.cfg.Policy }

// Add registers a replica under a stable name. The name, not the service
// pointer, is the replica's identity on the consistent-hash ring.
func (s *ReplicaSet) Add(name string, svc njs.Service) error {
	if name == "" {
		return errors.New("pool: empty replica name")
	}
	if svc == nil {
		return errors.New("pool: nil service")
	}
	s.mu.Lock()
	if _, dup := s.byName[name]; dup {
		s.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrDuplicateReplica, name)
	}
	r := &Replica{name: name}
	r.svc.Store(serviceBox{svc})
	if s.mapper != nil {
		svc.SetLoginMapper(s.mapper)
	}
	s.replicas = append(s.replicas, r)
	s.byName[name] = r
	s.ring.add(name)
	s.mu.Unlock()
	s.reconcile(r, svc)
	return nil
}

// SetService hot-swaps the service behind a replica — the per-replica SetBackend:
// a recovered NJS takes over from the dead one under the same pool identity.
// The swap re-installs the login mapper and closes the replica's breaker
// (the replacement is presumed healthy until proven otherwise).
func (s *ReplicaSet) SetService(name string, svc njs.Service) error {
	if svc == nil {
		return errors.New("pool: nil service")
	}
	s.mu.RLock()
	r, ok := s.byName[name]
	mapper := s.mapper
	s.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownReplica, name)
	}
	if mapper != nil {
		svc.SetLoginMapper(mapper)
	}
	r.svc.Store(serviceBox{svc})
	r.markSuccess()
	s.reconcile(r, svc)
	return nil
}

// ConsignReporter is the optional introspection surface a pooled service
// may implement (*njs.NJS does): the consign IDs it has admitted, with
// their job IDs. The pool consults it when a replica joins or rejoins the
// set, to reconcile the replica's recovered admissions against the pool's
// acknowledgement index.
type ConsignReporter interface {
	// ConsignedJobs returns the completed consign-ID → job-ID admissions.
	ConsignedJobs() map[string]core.JobID
}

// reconcile folds a joining (or journal-recovered) replica's admissions
// into the pool's indexes. Unclaimed consign IDs are adopted — restoring
// acknowledgement convergence and read affinity across a pool restart, for
// every routing policy. A consign ID that this pool LIVE-acknowledged on a
// different replica marks an orphan: the rejoining replica journaled the
// admission, died before acking, and consign failover re-admitted the job
// elsewhere; the orphan copy is aborted so the logical job never executes
// twice (its ID still resolves, to the aborted tombstone). When the
// existing entry was itself adopted — after a full pool restart nobody
// knows which copy the client was acknowledged — the conflicting copy is
// left running: duplicated work is recoverable, aborting the acknowledged
// copy is not.
func (s *ReplicaSet) reconcile(r *Replica, svc njs.Service) {
	// Staged-upload pins rebuild the same way the consign-ack index does:
	// the joining replica's spool speaks for where the bytes are.
	s.reconcileStage(r, svc)
	rep, ok := svc.(ConsignReporter)
	if !ok {
		return
	}
	for cid, jobID := range rep.ConsignedJobs() {
		s.mu.Lock()
		e, acked := s.acks[cid]
		switch {
		case !acked:
			s.acks[cid] = ackEntry{rep: r, job: jobID, adopted: true}
			s.affinity[jobID] = r
			s.mu.Unlock()
		case e.rep == r:
			s.affinity[jobID] = r
			s.mu.Unlock()
		case e.adopted:
			// Conflicting adopted copies: keep both reachable, abort
			// neither.
			s.affinity[jobID] = r
			s.mu.Unlock()
		default:
			s.affinity[jobID] = r
			s.mu.Unlock()
			// Abort outside the lock; an already-terminal orphan is fine.
			_ = svc.Control("", true, jobID, ajo.OpAbort)
		}
	}
}

// Service returns the current service behind a named replica.
func (s *ReplicaSet) Service(name string) (njs.Service, bool) {
	s.mu.RLock()
	r, ok := s.byName[name]
	s.mu.RUnlock()
	if !ok {
		return nil, false
	}
	return r.service(), true
}

// Names lists the replicas in registration order.
func (s *ReplicaSet) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, len(s.replicas))
	for i, r := range s.replicas {
		out[i] = r.name
	}
	return out
}

// Healthy lists the replicas currently taking new work: breaker closed and
// not draining.
func (s *ReplicaSet) Healthy() []string {
	now := s.cfg.Clock.Now()
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []string
	for _, r := range s.replicas {
		if r.state(now) == stateClosed && !r.draining.Load() {
			out = append(out, r.name)
		}
	}
	return out
}

// SetLoginMapper installs the DN→login resolver on every replica (present
// and future); part of the njs.Service surface the gateway drives.
func (s *ReplicaSet) SetLoginMapper(fn njs.LoginMapper) {
	s.mu.Lock()
	s.mapper = fn
	reps := append([]*Replica(nil), s.replicas...)
	s.mu.Unlock()
	for _, r := range reps {
		r.service().SetLoginMapper(fn)
	}
}

// snapshotReplicas returns the replica slice without holding the lock across
// replica calls.
func (s *ReplicaSet) snapshotReplicas() []*Replica {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]*Replica(nil), s.replicas...)
}

// indexByName builds a lookup over a replica snapshot.
func indexByName(reps []*Replica) map[string]*Replica {
	m := make(map[string]*Replica, len(reps))
	for _, r := range reps {
		m[r.name] = r
	}
	return m
}

// markFailure records a failed call; DefaultFailureThreshold consecutive
// failures trip the breaker for DefaultBackoffBase·2^trips (capped at
// DefaultBackoffMax).
func (s *ReplicaSet) markFailure(r *Replica) {
	now := s.cfg.Clock.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fails++
	if r.fails < DefaultFailureThreshold {
		return
	}
	r.fails = 0
	shift := r.trips
	if shift > 16 {
		shift = 16 // the cap below saturates long before this
	}
	d := DefaultBackoffBase << shift
	if d > DefaultBackoffMax {
		d = DefaultBackoffMax
	}
	r.openUntil = now.Add(d)
	r.trips++
	s.tel.Counter("pool_breaker_open_total", "replica", r.name).Inc()
}

// probe pings a replica once and updates its breaker.
func (s *ReplicaSet) probe(r *Replica) bool {
	wasOpen := r.state(s.cfg.Clock.Now()) != stateClosed
	if err := r.service().Ping(); err != nil {
		s.markFailure(r)
		return false
	}
	r.markSuccess()
	if wasOpen {
		// Half-open → closed: the replica healed and rejoined the set.
		s.tel.Counter("pool_breaker_close_total", "replica", r.name).Inc()
	}
	return true
}

// usable reports whether a replica may receive traffic right now: a closed
// breaker passes, an open one is excluded, and an expired (half-open) one is
// probed inline — the recovery path that lets a healed replica rejoin.
func (s *ReplicaSet) usable(r *Replica, now time.Time) bool {
	switch r.state(now) {
	case stateClosed:
		return true
	case stateHalfOpen:
		return s.probe(r)
	default:
		return false
	}
}

// acceptsNew reports whether NEW work (a fresh consign, a staged-upload
// open) may be routed to the replica: usable and not draining. Job- and
// handle-scoped calls bypass this check on purpose — a draining replica
// keeps serving the jobs and uploads it already owns until it is retired.
func (s *ReplicaSet) acceptsNew(r *Replica, now time.Time) bool {
	return !r.draining.Load() && s.usable(r, now)
}

// CheckNow actively health-checks every replica once: each replica is pinged
// and its breaker updated. Daemons run it on a cadence via
// StartHealthChecks; tests and virtual-clock deployments call it directly.
func (s *ReplicaSet) CheckNow() {
	for _, r := range s.snapshotReplicas() {
		s.probe(r)
	}
}

// StartHealthChecks arms the active health-check loop on the configured
// clock: CheckNow every DefaultCheckInterval. Meant for real-clock daemons;
// under a virtual clock the perpetual timer would keep RunUntilIdle from ever
// going idle, so virtual deployments call CheckNow at the instants they care
// about.
func (s *ReplicaSet) StartHealthChecks() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.checking {
		return
	}
	s.checking = true
	s.armLocked()
}

// armLocked schedules the next health sweep; callers hold s.mu.
func (s *ReplicaSet) armLocked() {
	s.timer = s.cfg.Clock.AfterFunc(DefaultCheckInterval, func() {
		s.CheckNow()
		s.mu.Lock()
		if s.checking {
			s.armLocked()
		}
		s.mu.Unlock()
	})
}

// StopHealthChecks cancels the active health-check loop.
func (s *ReplicaSet) StopHealthChecks() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.checking = false
	if s.timer != nil {
		s.timer.Stop()
		s.timer = nil
	}
}

// failoverable reports whether a consign error indicts the replica (retry
// elsewhere) rather than the request (report to the caller). njs.ErrDown is
// the killed-NJS refusal — including the killed-between-admit-and-ack case,
// whose retry is exactly what the idempotent consign contract covers.
func failoverable(err error) bool {
	return errors.Is(err, njs.ErrDown)
}

// Consign admits an AJO on a policy-chosen healthy replica, failing an
// unacknowledged admission over to the next healthy replica. A consign ID
// that was already acknowledged converges on the recorded admission, and
// concurrent retries of one consign ID wait for the first attempt instead
// of racing onto different replicas — the pool-level half of the
// idempotency contract; the NJS-level half dedupes retries that reach the
// same replica. If no replica is healthy the error is ErrNoReplica.
func (s *ReplicaSet) Consign(ctx context.Context, user core.DN, consignID string, job *ajo.AbstractJob) (core.JobID, error) {
	if consignID == "" {
		return s.consignOnce(ctx, user, consignID, job)
	}
	for {
		s.mu.Lock()
		if e, acked := s.acks[consignID]; acked {
			s.mu.Unlock()
			return e.job, nil
		}
		done, busy := s.inflight[consignID]
		if !busy {
			done = make(chan struct{})
			s.inflight[consignID] = done
			s.mu.Unlock()
			id, err := s.consignOnce(ctx, user, consignID, job)
			s.mu.Lock()
			delete(s.inflight, consignID)
			s.mu.Unlock()
			close(done)
			return id, err
		}
		s.mu.Unlock()
		<-done
		// The attempt we waited on either acked (the loop returns it from
		// the index) or failed (we try ourselves).
	}
}

// consignOnce runs one policy-routed admission attempt with failover. A job
// referencing staged uploads is pinned to the replica whose spool holds the
// bytes (the consign-affinity hint): routing it anywhere else would admit a
// job whose imports cannot be satisfied, so if that replica is down the
// admission fails with ErrReplicaDown instead of failing over.
func (s *ReplicaSet) consignOnce(ctx context.Context, user core.DN, consignID string, job *ajo.AbstractJob) (core.JobID, error) {
	hint, err := s.stageHint(job)
	if err != nil {
		return "", err
	}
	if hint != nil {
		if !s.usable(hint, s.cfg.Clock.Now()) {
			return "", fmt.Errorf("%w: replica %s holds this job's staged uploads", ErrReplicaDown, hint.name)
		}
		s.tel.Counter("pool_route_total", "replica", hint.name).Inc()
		sp := s.tel.StartSpan(ctx, "pool.consign").Note(hint.name)
		hint.calls.Add(1)
		id, err := hint.service().Consign(ctx, user, consignID, job)
		hint.calls.Add(-1)
		sp.End()
		if err == nil {
			hint.markSuccess()
			s.recordAck(consignID, hint, id)
			return id, nil
		}
		if failoverable(err) {
			s.markFailure(hint)
		}
		return "", err
	}
	tried := make(map[*Replica]bool)
	var lastErr error
	for {
		rep := s.pickConsign(consignID, tried)
		if rep == nil {
			break
		}
		if len(tried) > 0 {
			s.tel.Counter("pool_failover_retries_total").Inc()
		}
		tried[rep] = true
		s.tel.Counter("pool_route_total", "replica", rep.name).Inc()
		sp := s.tel.StartSpan(ctx, "pool.consign").Note(rep.name)
		rep.calls.Add(1)
		id, err := rep.service().Consign(ctx, user, consignID, job)
		rep.calls.Add(-1)
		sp.End()
		if err == nil {
			rep.markSuccess()
			s.recordAck(consignID, rep, id)
			return id, nil
		}
		if !failoverable(err) {
			return "", err
		}
		s.markFailure(rep)
		if consignID == "" {
			// Without a consign ID there is no idempotency to converge on:
			// retrying elsewhere could duplicate an admission the dead
			// replica's journal captured, so the failure is surfaced.
			return "", err
		}
		// The replica refused to take responsibility (unacked admission):
		// it is tripped, and the retry moves to the next healthy replica.
		// If the dead replica's journal did capture the admission, the
		// reconcile-on-rejoin pass aborts that orphan copy, and the
		// affinity/ack indexes keep every read on the acknowledged one.
		lastErr = err
	}
	if lastErr != nil {
		return "", fmt.Errorf("%w (last replica error: %v)", ErrNoReplica, lastErr)
	}
	return "", ErrNoReplica
}

// recordAck pins an acknowledged admission to its replica.
func (s *ReplicaSet) recordAck(consignID string, rep *Replica, id core.JobID) {
	s.mu.Lock()
	if consignID != "" {
		s.acks[consignID] = ackEntry{rep: rep, job: id}
	}
	s.affinity[id] = rep
	s.mu.Unlock()
}

// pickConsign chooses the next replica for an admission under the configured
// policy, excluding already-tried replicas, open breakers, and draining
// replicas.
func (s *ReplicaSet) pickConsign(key string, tried map[*Replica]bool) *Replica {
	now := s.cfg.Clock.Now()
	reps := s.snapshotReplicas()
	if len(reps) == 0 {
		return nil
	}
	switch s.cfg.Policy {
	case LeastLoaded:
		var best *Replica
		bestLoad := 0.0
		for _, r := range reps {
			if tried[r] || !s.acceptsNew(r, now) {
				continue
			}
			l := r.service().VsiteLoads()[s.cfg.Vsite].Load
			if best == nil || l < bestLoad {
				best, bestLoad = r, l
			}
		}
		return best
	case ConsistentHash:
		s.mu.RLock()
		rg := s.ring
		s.mu.RUnlock()
		byName := indexByName(reps)
		name := rg.lookup(key, func(n string) bool {
			r := byName[n]
			return r != nil && !tried[r] && s.acceptsNew(r, now)
		})
		if name == "" {
			return nil
		}
		return byName[name]
	default: // RoundRobin
		start := int(s.rr.Add(1))
		for i := 0; i < len(reps); i++ {
			r := reps[(start+i)%len(reps)]
			if tried[r] || !s.acceptsNew(r, now) {
				continue
			}
			return r
		}
		return nil
	}
}

// owner returns the replica pinned to a job, if any.
func (s *ReplicaSet) owner(id core.JobID) (*Replica, bool) {
	s.mu.RLock()
	r, ok := s.affinity[id]
	s.mu.RUnlock()
	return r, ok
}

// recordAffinity pins a job discovered by scatter to the replica that
// answered for it.
func (s *ReplicaSet) recordAffinity(id core.JobID, rep *Replica) {
	s.mu.Lock()
	s.affinity[id] = rep
	s.mu.Unlock()
}

// lookupOrder returns the replicas to consult for a job-scoped read, in
// order. A pinned job goes straight (and only) to its owner — routing a read
// elsewhere could observe a stale or duplicate copy — and errors with
// ErrReplicaDown while the owner is unhealthy. An unpinned job (the pool
// restarted since admission) is searched consistent-hash-first, then across
// the remaining healthy replicas.
func (s *ReplicaSet) lookupOrder(id core.JobID) ([]*Replica, error) {
	now := s.cfg.Clock.Now()
	if rep, ok := s.owner(id); ok {
		if !s.usable(rep, now) {
			return nil, fmt.Errorf("%w: replica %s owns job %s", ErrReplicaDown, rep.name, id)
		}
		return []*Replica{rep}, nil
	}
	reps := s.snapshotReplicas()
	s.mu.RLock()
	rg := s.ring
	s.mu.RUnlock()
	byName := indexByName(reps)
	var order []*Replica
	seen := make(map[*Replica]bool)
	if first := rg.lookup(string(id), func(n string) bool {
		r := byName[n]
		return r != nil && s.usable(r, now)
	}); first != "" {
		r := byName[first]
		order = append(order, r)
		seen[r] = true
	}
	for _, r := range reps {
		if !seen[r] && s.usable(r, now) {
			order = append(order, r)
		}
	}
	if len(order) == 0 {
		return nil, ErrNoReplica
	}
	return order, nil
}

// Events routes a protocol-v2 subscription read. A job-scoped request goes
// to the replica that owns the job (the existing read affinity); its per-job
// Seq cursor is replica-independent — a journal-recovered replacement replica
// restores the job's event stream with the original numbering — so failover
// needs no cursor translation beyond re-routing, and the subscriber resumes
// with no lost and no duplicated events. A user-scoped request scatters over
// the usable replicas and merges their streams, keyed by per-origin cursors.
func (s *ReplicaSet) Events(caller core.DN, asServer bool, req protocol.SubscribeRequest) (protocol.EventsReply, error) {
	if req.Job != "" {
		return s.jobEvents(caller, asServer, req)
	}
	now := s.cfg.Clock.Now()
	merged := protocol.EventsReply{Cursor: req.Cursor, Origins: make(map[string]uint64)}
	for _, rep := range s.snapshotReplicas() {
		if !s.usable(rep, now) {
			continue
		}
		reply, err := rep.service().Events(caller, asServer, req)
		if err != nil {
			return protocol.EventsReply{}, err
		}
		merged.Events = append(merged.Events, reply.Events...)
		for origin, next := range reply.Origins {
			merged.Origins[origin] = next
		}
		merged.Gap = merged.Gap || reply.Gap
	}
	sortEvents(merged.Events)
	return merged, nil
}

// sortEvents orders a merged event batch deterministically: by server time,
// then origin, then per-replica append order.
func sortEvents(evs []protocol.JobEvent) {
	sort.Slice(evs, func(i, j int) bool {
		if !evs[i].Time.Equal(evs[j].Time) {
			return evs[i].Time.Before(evs[j].Time)
		}
		if evs[i].Origin != evs[j].Origin {
			return evs[i].Origin < evs[j].Origin
		}
		return evs[i].Global < evs[j].Global
	})
}

// EventsNotify combines the notify channels of every replica: the returned
// channel closes when any replica appends an event. The release func must be
// called when the wait ends; it reclaims the fan-in goroutines.
func (s *ReplicaSet) EventsNotify(req protocol.SubscribeRequest) (<-chan struct{}, func()) {
	// A pinned job's events can only appear on its owning replica.
	if req.Job != "" {
		if rep, ok := s.owner(req.Job); ok {
			return rep.service().EventsNotify(req)
		}
	}
	reps := s.snapshotReplicas()
	chs := make([]<-chan struct{}, 0, len(reps))
	releases := make([]func(), 0, len(reps))
	for _, rep := range reps {
		ch, release := rep.service().EventsNotify(req)
		chs = append(chs, ch)
		releases = append(releases, release)
	}
	return combineNotify(chs, releases)
}

// combineNotify fans several notify channels into one. The out channel closes
// on the first signal; release tears the waiter goroutines down.
func combineNotify(chs []<-chan struct{}, releases []func()) (<-chan struct{}, func()) {
	out := make(chan struct{})
	stop := make(chan struct{})
	var once sync.Once
	for _, ch := range chs {
		go func(ch <-chan struct{}) {
			select {
			case <-ch:
				once.Do(func() { close(out) })
			case <-stop:
			}
		}(ch)
	}
	var stopOnce sync.Once
	release := func() {
		stopOnce.Do(func() { close(stop) })
		for _, r := range releases {
			r()
		}
	}
	return out, release
}

// List merges the caller's jobs across the replicas currently taking
// traffic, newest first — the same order a single NJS reports. Half-open
// replicas are probed and included when they answer; a tripped replica's
// jobs are omitted until it recovers (poll one of them to get an explicit
// ErrReplicaDown instead of a silent gap).
func (s *ReplicaSet) List(caller core.DN) ([]protocol.JobInfo, error) {
	now := s.cfg.Clock.Now()
	var out []protocol.JobInfo
	for _, rep := range s.snapshotReplicas() {
		if !s.usable(rep, now) {
			continue
		}
		jobs, err := rep.service().List(caller)
		if err != nil {
			return nil, err
		}
		out = append(out, jobs...)
	}
	sortJobInfos(out)
	return out, nil
}

// sortJobInfos orders job listings newest-first with the NJS tie-break.
func sortJobInfos(out []protocol.JobInfo) {
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Submitted.Equal(out[j].Submitted) {
			return out[i].Submitted.After(out[j].Submitted)
		}
		return out[i].Job > out[j].Job
	})
}

// LoadInfo aggregates the set's live load for the §6 broker: mean occupancy
// and summed backlog over the healthy replicas, plus the replica/healthy
// counts that let the broker skip a drained Vsite.
func (s *ReplicaSet) LoadInfo() njs.VsiteLoad {
	now := s.cfg.Clock.Now()
	reps := s.snapshotReplicas()
	info := njs.VsiteLoad{Replicas: len(reps)}
	for _, rep := range reps {
		if rep.state(now) != stateClosed {
			continue
		}
		vl := rep.service().VsiteLoads()[s.cfg.Vsite]
		info.Load += vl.Load
		info.Pending += vl.Pending
		info.Inflight += vl.Inflight
		info.Healthy++
	}
	if info.Healthy > 0 {
		info.Load /= float64(info.Healthy)
	}
	return info
}
