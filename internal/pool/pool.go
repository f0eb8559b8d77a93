// Package pool scales the UNICORE server tier horizontally. The paper's
// gateway presents each Usite as a single door to many Vsites (§4.2, §5.5),
// but binds one NJS to each Vsite — the single-system bottleneck the
// production follow-up to the testbed deployment (§5.7) had to engineer
// away. This package fronts N njs.Service replicas per Vsite with:
//
//   - pluggable placement — round-robin, least-loaded (live load queries, the
//     same signal the §6 broker consumes), and consistent-hash-by-consign-id
//     so retries of one submission target the same replica,
//   - routing by name: every job ID and staged-upload handle a replica mints
//     carries its instance (Instance), so Poll/Outcome/FetchFile and chunk
//     calls go to the replica the ID names, with no lookup state to lose,
//   - active health checks with exponential-backoff circuit breaking, so a
//     dead or drowning replica stops receiving traffic until it proves
//     itself again, and
//   - consign failover: an admission that was never acknowledged is retried
//     on the next healthy replica. This is safe because consignment is
//     idempotent (the durable-ack contract of the journal subsystem): a
//     retry with the same consign ID converges on the acknowledged
//     admission instead of duplicating the job.
//
// A ReplicaSet places new work on the replicas of one Vsite; a Router
// aggregates the ReplicaSets of one Usite and is the package's njs.Service,
// so a gateway fronts a pool exactly as it fronts a single NJS.
//
// A replica added under tag t to the set of Vsite v must be built with
// njs.Config.Instance = Instance(v, t) (deploy.BuildReplica does): the name
// keeps minted job IDs, handles and origins (and the deterministic sub-job
// consign IDs derived from job IDs) disjoint across the replicas of one
// Usite, and is how the Router finds the replica an ID belongs to.
package pool

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"unicore/internal/ajo"
	"unicore/internal/core"
	"unicore/internal/njs"
	"unicore/internal/sim"
	"unicore/internal/telemetry"
)

// Errors reported by replica routing.
var (
	// ErrNoReplica reports that no healthy replica is available for a
	// request — every breaker is open and every half-open probe failed.
	ErrNoReplica = errors.New("pool: no healthy replica")
	// ErrReplicaDown reports that the replica a job ID or handle names is
	// unhealthy; what it holds will be reachable again once the replica is
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

// healthy reports, without probing, whether the replica takes new work:
// breaker closed and not draining.
func (r *Replica) healthy(now time.Time) bool {
	return r.state(now) == stateClosed && !r.draining.Load()
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

// ReplicaTag is the conventional stable pool name of replica i, numbered
// per Vsite. Deployments must reuse the tag a replica was journaled under
// when recovering it, so recovered replicas keep minting names in their own
// disjoint namespace.
func ReplicaTag(i int) string { return fmt.Sprintf("r%d", i) }

// Instance names a pooled replica within its Usite: the Vsite it serves and
// its pool tag ("CLUSTER.r0"). deploy.BuildReplica makes it the replica's
// njs.Config.Instance, so every job ID, staged-upload handle, event origin
// and telemetry origin the replica mints carries it, and the Router routes
// a job- or handle-scoped call to the replica its ID names.
func Instance(v core.Vsite, tag string) string { return string(v) + "." + tag }

// ReplicaSet places new work on the NJS replicas of one Vsite: it routes
// new consignments and staged-upload opens by policy, health-checks the
// replicas, and fails unacknowledged admissions over to the next healthy
// replica.
type ReplicaSet struct {
	cfg Config

	// mu guards replica membership, the ring, the ack index, and the mapper.
	// Routing takes it only for map work, never across a replica call.
	mu       sync.RWMutex
	replicas []*Replica
	byName   map[string]*Replica
	ring     ring
	acks     map[string]ackEntry      // consign ID → acknowledged admission
	inflight map[string]chan struct{} // consign ID → in-flight admission
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
		acks:     make(map[string]ackEntry),
		inflight: make(map[string]chan struct{}),
		lastOpen: make(map[core.DN]*Replica),
		tel:      telemetry.New("pool/" + string(cfg.Vsite)),
	}
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
// into the pool's ack index. Unclaimed consign IDs are adopted — restoring
// acknowledgement convergence across a pool restart, for every routing
// policy. A consign ID that this pool LIVE-acknowledged on a different
// replica marks an orphan: the rejoining replica journaled the admission,
// died before acking, and consign failover re-admitted the job elsewhere;
// the orphan copy is aborted so the logical job never executes twice (its
// ID still names this replica, and resolves to the aborted tombstone). When
// the existing entry was itself adopted — after a full pool restart nobody
// knows which copy the client was acknowledged — the conflicting copy is
// left running: duplicated work is recoverable, aborting the acknowledged
// copy is not.
func (s *ReplicaSet) reconcile(r *Replica, svc njs.Service) {
	rep, ok := svc.(ConsignReporter)
	if !ok {
		return
	}
	for cid, jobID := range rep.ConsignedJobs() {
		s.mu.Lock()
		e, acked := s.acks[cid]
		if !acked {
			s.acks[cid] = ackEntry{rep: r, job: jobID, adopted: true}
		}
		s.mu.Unlock()
		if acked && e.rep != r && !e.adopted {
			// Abort outside the lock; an already-terminal orphan is fine.
			_ = svc.Control("", true, jobID, ajo.OpAbort)
		}
	}
}

// replica resolves an instance name (see Instance) to this set's replica.
func (s *ReplicaSet) replica(inst string) (*Replica, bool) {
	tag, ok := strings.CutPrefix(inst, string(s.cfg.Vsite)+".")
	if !ok {
		return nil, false
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	r, ok := s.byName[tag]
	return r, ok
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
		if r.healthy(now) {
			out = append(out, r.name)
		}
	}
	return out
}

// SetLoginMapper installs the DN→login resolver on every replica (present
// and future); the Router passes on the gateway's.
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
		return s.admit(ctx, hint, user, consignID, job)
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
		id, err := s.admit(ctx, rep, user, consignID, job)
		if err == nil || !failoverable(err) || consignID == "" {
			// Without a consign ID there is no idempotency to converge on:
			// retrying elsewhere could duplicate an admission the dead
			// replica's journal captured, so the failure is surfaced.
			return id, err
		}
		// The replica refused to take responsibility (unacked admission):
		// it is tripped, and the retry moves to the next healthy replica.
		// If the dead replica's journal did capture the admission, the
		// reconcile-on-rejoin pass aborts that orphan copy, and the ack
		// index keeps every retry on the acknowledged one.
		lastErr = err
	}
	if lastErr != nil {
		return "", fmt.Errorf("%w (last replica error: %v)", ErrNoReplica, lastErr)
	}
	return "", ErrNoReplica
}

// admit runs one admission on rep: an acknowledged one enters the ack
// index, and one the replica refused to take responsibility for trips its
// breaker.
func (s *ReplicaSet) admit(ctx context.Context, rep *Replica, user core.DN, consignID string, job *ajo.AbstractJob) (core.JobID, error) {
	s.tel.Counter("pool_route_total", "replica", rep.name).Inc()
	sp := s.tel.StartSpan(ctx, "pool.consign").Note(rep.name)
	rep.calls.Add(1)
	id, err := rep.service().Consign(ctx, user, consignID, job)
	rep.calls.Add(-1)
	sp.End()
	if err != nil {
		if failoverable(err) {
			s.markFailure(rep)
		}
		return "", err
	}
	rep.markSuccess()
	if consignID != "" {
		s.mu.Lock()
		s.acks[consignID] = ackEntry{rep: rep, job: id}
		s.mu.Unlock()
	}
	return id, nil
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
		byName := make(map[string]*Replica, len(reps))
		for _, r := range reps {
			byName[r.name] = r
		}
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

// LoadInfo aggregates the set's live load for the §6 broker: mean occupancy
// and summed backlog over the healthy replicas (those Healthy lists), plus
// the replica/healthy counts that let the broker skip a drained Vsite.
func (s *ReplicaSet) LoadInfo() njs.VsiteLoad {
	now := s.cfg.Clock.Now()
	reps := s.snapshotReplicas()
	info := njs.VsiteLoad{Replicas: len(reps)}
	for _, rep := range reps {
		if !rep.healthy(now) {
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
