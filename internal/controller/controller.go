// Package controller converges a live deployment onto a declarative
// topology spec — the operational layer the paper's testbed never needed
// and the production follow-up ("UNICORE — From Project Results to
// Production Grids") reports dominating real deployments. A Controller
// owns one Usite: each reconcile pass diffs the declared state
// (deploy.TopologySite — per-Vsite replica counts, routing policies,
// fleet generations, spool TTLs) against the pool.Router actually serving
// traffic, and repairs the difference:
//
//   - missing Vsites get replica sets, missing replicas get built and
//     added to the live set (the declared floor, then autoscale headroom),
//   - crashed replicas are healed: recovered from their journals and
//     swapped back in under the same pool name, which their job IDs and
//     handles keep naming, reusing the pool's rejoin reconciliation so the
//     ack index survives,
//   - a bumped fleet Generation rolls the replicas one at a time with
//     drain-before-kill: stop routing new work, wait for in-flight calls
//     to settle, retire the old instance, recover its journal, rejoin,
//   - pools scale up under backlog (the njs_consign_inflight gauge plus
//     queued jobs) and down after sustained idleness (no backlog, no
//     occupancy, no event-log growth), inside the declared bounds,
//   - each replica's staging spool is swept on the declared TTL.
//
// Every pass and state change is recorded in the controller's telemetry
// registry; wire it into a gateway with AddMetricsSource so reconcile
// loops, scale events, and drain durations scrape through the same
// MsgMetrics door as the serving tiers.
package controller

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"unicore/internal/core"
	"unicore/internal/deploy"
	"unicore/internal/njs"
	"unicore/internal/pool"
	"unicore/internal/sim"
	"unicore/internal/telemetry"
)

// DefaultInterval is the reconcile cadence for Start when Config.Interval
// is zero.
const DefaultInterval = 5 * time.Second

// Config assembles a Controller for one Usite.
type Config struct {
	// Site is the desired state; update it later with Apply.
	Site deploy.TopologySite
	// Router is the live deployment the controller converges.
	Router *pool.Router
	// Clock times reconcile passes and drain durations. Required.
	Clock sim.Scheduler
	// Interval is the Start cadence (default DefaultInterval).
	Interval time.Duration
	// Build constructs a fresh replica for a declared Vsite under a pool
	// tag. Required.
	Build func(v deploy.TopologyVsite, tag string) (njs.Service, error)
	// Recover reconstructs a replica from its durable state (its journal)
	// under the same tag — the heal and roll path. Required; memory-only
	// deployments may return a fresh instance (the replica heals empty).
	Recover func(v deploy.TopologyVsite, tag string) (njs.Service, error)
	// Retire releases a replica instance that left the set or was replaced:
	// kill it, close its journal. Optional.
	Retire func(v deploy.TopologyVsite, tag string, svc njs.Service) error
}

// drainOp tracks one replica mid-drain (rolling replacement or scale-down).
type drainOp struct {
	tag   string
	since time.Time
}

// vsiteState is the controller's runtime memory for one Vsite.
type vsiteState struct {
	created   bool           // the replica set has been through a pass
	gens      map[string]int // replica tag → fleet generation it runs
	idle      int            // consecutive idle passes (autoscale-down signal)
	lastDepth float64        // event-log depth at the previous pass
	roll      *drainOp       // in-progress rolling replacement
	shrink    *drainOp       // in-progress scale-down drain
}

// Result summarises one reconcile pass.
type Result struct {
	// ScaledUp / ScaledDown count replicas added / retired this pass
	// (including initial population of a new Vsite).
	ScaledUp, ScaledDown int
	// Healed counts crashed replicas recovered and swapped back in.
	Healed int
	// Rolled counts replicas replaced by the generation roll.
	Rolled int
	// Draining counts replicas currently waiting for their drain to settle.
	Draining int
	// Converged reports that every declared Vsite is fully served: replica
	// count inside its declared bounds, every replica healthy and on the
	// declared generation, nothing draining.
	Converged bool
}

// Controller reconciles one Usite's live deployment onto its declared
// topology.
type Controller struct {
	mu      sync.Mutex
	desired deploy.TopologySite
	cfg     Config
	vsites  map[core.Vsite]*vsiteState
	running bool
	timer   sim.Timer

	tel *telemetry.Registry
}

// New assembles a controller. Replicas already serving in the router are
// adopted as-is at the declared generation (the controller trusts what it
// inherits; bump the generation to roll them).
func New(cfg Config) (*Controller, error) {
	if cfg.Router == nil {
		return nil, errors.New("controller: nil router")
	}
	if cfg.Clock == nil {
		return nil, errors.New("controller: nil clock")
	}
	if cfg.Build == nil || cfg.Recover == nil {
		return nil, errors.New("controller: need Build and Recover hooks")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	if cfg.Site.Usite != cfg.Router.Usite() {
		return nil, fmt.Errorf("controller: spec declares usite %q but the router serves %q",
			cfg.Site.Usite, cfg.Router.Usite())
	}
	c := &Controller{
		desired: cfg.Site,
		cfg:     cfg,
		vsites:  make(map[core.Vsite]*vsiteState),
		tel:     telemetry.New("controller/" + string(cfg.Router.Usite())),
	}
	c.tel.SetNow(cfg.Clock.Now)
	for _, set := range cfg.Router.Sets() {
		st := c.state(set.Vsite())
		st.created = true
		if v, ok := c.desired.Vsite(set.Vsite()); ok {
			for _, tag := range set.Names() {
				st.gens[tag] = v.Generation
			}
		}
	}
	return c, nil
}

// Telemetry returns the controller's metrics registry; expose it on a
// gateway with AddMetricsSource.
func (c *Controller) Telemetry() *telemetry.Registry { return c.tel }

// Usite returns the site this controller manages.
func (c *Controller) Usite() core.Usite { return c.cfg.Router.Usite() }

// Desired returns the current declared state.
func (c *Controller) Desired() deploy.TopologySite {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.desired
}

// Apply replaces the desired state — the `unicore-ctl apply` path. The next
// reconcile pass starts converging on it; replicas of Vsites no longer
// declared are left serving (Vsite removal is not automated — drain and
// retire by hand).
func (c *Controller) Apply(site deploy.TopologySite) error {
	if site.Usite != c.Usite() {
		return fmt.Errorf("controller: spec declares usite %q but this controller manages %q",
			site.Usite, c.Usite())
	}
	if err := site.Validate(); err != nil {
		return err
	}
	c.mu.Lock()
	c.desired = site
	c.mu.Unlock()
	return nil
}

// state returns (creating if needed) the runtime state of a Vsite.
func (c *Controller) state(v core.Vsite) *vsiteState {
	st, ok := c.vsites[v]
	if !ok {
		st = &vsiteState{gens: make(map[string]int)}
		c.vsites[v] = st
	}
	return st
}

// Start arms the continuous reconcile loop on the configured clock. Under a
// virtual clock, prefer calling ReconcileNow at the instants that matter
// (a perpetual timer keeps RunUntilIdle from going idle).
func (c *Controller) Start() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.running {
		return
	}
	c.running = true
	c.armLocked()
}

// armLocked schedules the next pass; callers hold c.mu.
func (c *Controller) armLocked() {
	c.timer = c.cfg.Clock.AfterFunc(c.cfg.Interval, func() {
		c.ReconcileNow()
		c.mu.Lock()
		if c.running {
			c.armLocked()
		}
		c.mu.Unlock()
	})
}

// Stop cancels the reconcile loop.
func (c *Controller) Stop() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.running = false
	if c.timer != nil {
		c.timer.Stop()
		c.timer = nil
	}
}

// ReconcileNow runs one reconcile pass over every declared Vsite and
// reports what it changed. Errors (a Build hook failing, say) do not stop
// the pass — the remaining Vsites still converge — but are joined into the
// returned error.
func (c *Controller) ReconcileNow() (Result, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	start := c.cfg.Clock.Now()
	c.tel.Counter("controller_reconcile_total").Inc()

	var res Result
	var errs []error
	res.Converged = true
	for i := range c.desired.Vsites {
		v := &c.desired.Vsites[i]
		ok, err := c.reconcileVsite(v, &res)
		if err != nil {
			errs = append(errs, err)
		}
		if !ok {
			res.Converged = false
		}
	}
	if res.Converged {
		c.tel.Gauge("controller_converged").Set(1)
	} else {
		c.tel.Gauge("controller_converged").Set(0)
	}
	c.tel.Histogram("controller_reconcile_seconds", telemetry.ScaleSeconds).
		ObserveDuration(c.cfg.Clock.Now().Sub(start))
	return res, errors.Join(errs...)
}

// reconcileVsite converges one Vsite and reports whether it is converged.
func (c *Controller) reconcileVsite(v *deploy.TopologyVsite, res *Result) (bool, error) {
	st := c.state(v.Name)
	set, ok := c.cfg.Router.Set(v.Name)
	if !ok {
		policy, err := pool.ParsePolicy(v.Policy)
		if err != nil {
			return false, err
		}
		set, err = pool.New(pool.Config{Vsite: v.Name, Policy: policy, Clock: c.cfg.Clock})
		if err != nil {
			return false, err
		}
		if err := c.cfg.Router.AddSet(set); err != nil {
			return false, err
		}
	}
	var errs []error

	// Heal crashed replicas first, so the scaling arithmetic below counts
	// them as serving again rather than doubling them with fresh capacity.
	c.heal(v, set, st, res, &errs)

	// Population: hold the declared count (or, when autoscaling, keep the
	// live count inside the declared bounds; new Vsites start at the
	// declared resting size).
	names := set.Names()
	target := len(names)
	if !st.created || v.Autoscale == nil {
		target = v.DeclaredReplicas()
	} else {
		if a := v.Autoscale; target < a.Min {
			target = a.Min
		} else if target > a.Max {
			target = a.Max
		}
	}
	st.created = true

	// Autoscale signals: in-flight consigns (the njs_consign_inflight
	// gauge) plus queued work drive scale-up; an unchanged event log with
	// zero backlog and occupancy accumulates idle passes for scale-down.
	load := set.LoadInfo()
	inflight, depth := c.signals(set)
	backlog := inflight + float64(load.Pending)
	if a := v.Autoscale; a != nil {
		healthy := len(set.Healthy())
		if backlog == 0 && load.Load == 0 && depth == st.lastDepth {
			st.idle++
		} else {
			st.idle = 0
		}
		st.lastDepth = depth
		if a.BacklogPerReplica > 0 && healthy > 0 &&
			backlog > float64(a.BacklogPerReplica*healthy) && target < a.Max {
			target++
		}
	}

	// Grow to target.
	for len(names) < target {
		tag := c.freeTag(names)
		svc, err := c.cfg.Build(*v, tag)
		if err != nil {
			errs = append(errs, fmt.Errorf("controller: building %s/%s: %w", v.Name, tag, err))
			break
		}
		if err := set.Add(tag, svc); err != nil {
			errs = append(errs, err)
			break
		}
		resumeRecovered(svc)
		st.gens[tag] = v.Generation
		names = append(names, tag)
		res.ScaledUp++
		c.tel.Counter("controller_scale_up_total", "vsite", string(v.Name)).Inc()
	}

	// Rolling replacement: a generation bump replaces replicas one at a
	// time, drain-before-kill.
	c.roll(v, set, st, res, &errs)

	// Scale down after sustained idleness, also drain-before-kill, never
	// below the floor and never concurrently with a roll.
	c.shrink(v, set, st, target, res, &errs)

	// Spool hygiene: sweep each replica's staged uploads on the declared
	// TTL horizon.
	if ttl := v.SpoolTTL(); ttl > 0 {
		for _, tag := range set.Names() {
			if svc, ok := set.Service(tag); ok {
				if sw, ok := svc.(interface{ SweepStaging(time.Duration) int }); ok {
					sw.SweepStaging(ttl)
				}
			}
		}
	}

	names = set.Names()
	c.tel.Gauge("controller_replicas", "vsite", string(v.Name)).Set(int64(len(names)))
	converged := st.roll == nil && st.shrink == nil &&
		len(set.Healthy()) == len(names) && c.withinBounds(v, len(names))
	if converged {
		for _, tag := range names {
			if st.gens[tag] != v.Generation {
				converged = false
				break
			}
		}
	}
	return converged, errors.Join(errs...)
}

// withinBounds checks a live replica count against the declaration.
func (c *Controller) withinBounds(v *deploy.TopologyVsite, n int) bool {
	if a := v.Autoscale; a != nil {
		return n >= a.Min && n <= a.Max
	}
	return n == v.DeclaredReplicas()
}

// signals sums the autoscale inputs over the replicas' live metric
// snapshots: the njs_consign_inflight gauge and the event_log_depth gauge.
func (c *Controller) signals(set *pool.ReplicaSet) (inflight, depth float64) {
	for _, tag := range set.Names() {
		svc, ok := set.Service(tag)
		if !ok {
			continue
		}
		for _, snap := range svc.Metrics() {
			inflight += snap.Total("njs_consign_inflight")
			depth += snap.Total("event_log_depth")
		}
	}
	return inflight, depth
}

// heal recovers every crashed replica from its durable state and swaps it
// back in under the same pool name — the pool's rejoin reconciliation then
// re-homes its ack-index entries.
func (c *Controller) heal(v *deploy.TopologyVsite, set *pool.ReplicaSet, st *vsiteState, res *Result, errs *[]error) {
	for _, tag := range set.Names() {
		svc, ok := set.Service(tag)
		if !ok || svc.Ping() == nil {
			continue
		}
		recovered, err := c.cfg.Recover(*v, tag)
		if err != nil {
			*errs = append(*errs, fmt.Errorf("controller: healing %s/%s: %w", v.Name, tag, err))
			continue
		}
		if err := set.SetService(tag, recovered); err != nil {
			*errs = append(*errs, err)
			continue
		}
		resumeRecovered(recovered)
		res.Healed++
		c.tel.Counter("controller_heal_total", "vsite", string(v.Name)).Inc()
	}
}

// roll advances the rolling generation replacement by at most one step:
// start draining the first out-of-generation replica, or — once the drain
// has settled — retire the old instance, recover its journal, and rejoin.
func (c *Controller) roll(v *deploy.TopologyVsite, set *pool.ReplicaSet, st *vsiteState, res *Result, errs *[]error) {
	if st.roll == nil {
		for _, tag := range set.Names() {
			if st.gens[tag] != v.Generation {
				if err := set.Drain(tag); err != nil {
					*errs = append(*errs, err)
					return
				}
				st.roll = &drainOp{tag: tag, since: c.cfg.Clock.Now()}
				break
			}
		}
		if st.roll == nil {
			return
		}
	}
	op := st.roll
	status, err := set.DrainStatus(op.tag)
	if err != nil {
		*errs = append(*errs, err)
		st.roll = nil
		return
	}
	if status.Inflight > 0 {
		res.Draining++
		return // not settled; check again next pass
	}
	old, _ := set.Service(op.tag)
	if c.cfg.Retire != nil && old != nil {
		if err := c.cfg.Retire(*v, op.tag, old); err != nil {
			*errs = append(*errs, fmt.Errorf("controller: retiring %s/%s: %w", v.Name, op.tag, err))
		}
	}
	recovered, err := c.cfg.Recover(*v, op.tag)
	if err != nil {
		*errs = append(*errs, fmt.Errorf("controller: rolling %s/%s: %w", v.Name, op.tag, err))
		st.roll = nil
		return
	}
	if err := set.SetService(op.tag, recovered); err != nil {
		*errs = append(*errs, err)
		st.roll = nil
		return
	}
	resumeRecovered(recovered)
	if err := set.Undrain(op.tag); err != nil {
		*errs = append(*errs, err)
	}
	st.gens[op.tag] = v.Generation
	st.roll = nil
	res.Rolled++
	c.tel.Counter("controller_roll_total", "vsite", string(v.Name)).Inc()
	c.tel.Histogram("controller_drain_seconds", telemetry.ScaleSeconds).
		ObserveDuration(c.cfg.Clock.Now().Sub(op.since))
}

// shrink retires one replica after sustained idleness: drain the
// highest-numbered replica, and once nothing is in flight and its spool is
// empty, remove it from the set and hand the instance to Retire.
func (c *Controller) shrink(v *deploy.TopologyVsite, set *pool.ReplicaSet, st *vsiteState, target int, res *Result, errs *[]error) {
	a := v.Autoscale
	if a == nil || st.roll != nil {
		return
	}
	if st.shrink == nil {
		if st.idle <= a.IdleCycles || len(set.Names()) <= a.Min || target > len(set.Names()) {
			return
		}
		tag := c.lastTag(set.Names())
		if tag == "" {
			return
		}
		if err := set.Drain(tag); err != nil {
			*errs = append(*errs, err)
			return
		}
		st.shrink = &drainOp{tag: tag, since: c.cfg.Clock.Now()}
	}
	op := st.shrink
	if st.idle == 0 {
		// Load returned mid-drain: cancel the scale-down.
		if err := set.Undrain(op.tag); err != nil {
			*errs = append(*errs, err)
		}
		st.shrink = nil
		return
	}
	status, err := set.DrainStatus(op.tag)
	if err != nil {
		*errs = append(*errs, err)
		st.shrink = nil
		return
	}
	if status.Inflight > 0 || status.StagePins > 0 {
		res.Draining++
		return
	}
	old, _ := set.Service(op.tag)
	if err := set.Remove(op.tag); err != nil {
		*errs = append(*errs, err)
		st.shrink = nil
		return
	}
	if c.cfg.Retire != nil && old != nil {
		if err := c.cfg.Retire(*v, op.tag, old); err != nil {
			*errs = append(*errs, fmt.Errorf("controller: retiring %s/%s: %w", v.Name, op.tag, err))
		}
	}
	delete(st.gens, op.tag)
	st.shrink = nil
	res.ScaledDown++
	c.tel.Counter("controller_scale_down_total", "vsite", string(v.Name)).Inc()
	c.tel.Histogram("controller_drain_seconds", telemetry.ScaleSeconds).
		ObserveDuration(c.cfg.Clock.Now().Sub(op.since))
}

// freeTag picks the lowest conventional replica tag not in use.
func (c *Controller) freeTag(names []string) string {
	used := make(map[int]bool, len(names))
	for _, n := range names {
		if i, ok := pool.ParseReplicaTag(n); ok {
			used[i] = true
		}
	}
	for i := 0; ; i++ {
		if !used[i] {
			return pool.ReplicaTag(i)
		}
	}
}

// lastTag picks the highest conventional replica tag — the scale-down
// victim, so pools shrink from the top and tag reuse stays predictable.
func (c *Controller) lastTag(names []string) string {
	best, bestIdx := "", -1
	for _, n := range names {
		if i, ok := pool.ParseReplicaTag(n); ok && i > bestIdx {
			best, bestIdx = n, i
		}
	}
	return best
}

// resumeRecovered invokes the post-wiring resume hook on services that have
// one (*njs.NJS does: re-dispatch in-flight actions, re-arm poll timers).
func resumeRecovered(svc njs.Service) {
	if rr, ok := svc.(interface{ ResumeRecovered() }); ok {
		rr.ResumeRecovered()
	}
}
