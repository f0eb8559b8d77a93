package controller

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"unicore/internal/ajo"
	"unicore/internal/core"
	"unicore/internal/deploy"
	"unicore/internal/njs"
	"unicore/internal/pool"
	"unicore/internal/protocol"
	"unicore/internal/resources"
	"unicore/internal/sim"
	"unicore/internal/telemetry"
)

// fakeReplica is a minimal njs.Service whose health, backlog signals, and
// lifecycle hooks the tests steer directly.
type fakeReplica struct {
	mu       sync.Mutex
	vsite    core.Vsite
	tag      string
	down     bool
	inflight int // reported through the njs_consign_inflight gauge
	depth    int // reported through the event_log_depth gauge
	pending  int
	load     float64
	resumed  bool
	swept    []time.Duration
}

func (f *fakeReplica) set(fn func(*fakeReplica)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	fn(f)
}

func (f *fakeReplica) Ping() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.down {
		return njs.ErrDown
	}
	return nil
}

func (f *fakeReplica) Metrics() []telemetry.Snapshot {
	f.mu.Lock()
	defer f.mu.Unlock()
	reg := telemetry.New("fake/" + f.tag)
	reg.Gauge("njs_consign_inflight", "vsite", string(f.vsite)).Set(int64(f.inflight))
	reg.Gauge("event_log_depth").Set(int64(f.depth))
	return []telemetry.Snapshot{reg.Snapshot()}
}

func (f *fakeReplica) VsiteLoads() map[core.Vsite]njs.VsiteLoad {
	f.mu.Lock()
	defer f.mu.Unlock()
	return map[core.Vsite]njs.VsiteLoad{
		f.vsite: {Load: f.load, Pending: f.pending, Replicas: 1, Healthy: 1},
	}
}

func (f *fakeReplica) ResumeRecovered() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.resumed = true
}

func (f *fakeReplica) SweepStaging(ttl time.Duration) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.swept = append(f.swept, ttl)
	return 0
}

func (f *fakeReplica) Consign(context.Context, core.DN, string, *ajo.AbstractJob) (core.JobID, error) {
	return "", fmt.Errorf("fake: no admission")
}
func (f *fakeReplica) Poll(core.DN, bool, core.JobID) (protocol.PollReply, error) {
	return protocol.PollReply{}, nil
}
func (f *fakeReplica) Outcome(core.DN, bool, core.JobID) (*ajo.Outcome, bool, error) {
	return nil, false, nil
}
func (f *fakeReplica) List(core.DN) ([]protocol.JobInfo, error)               { return nil, nil }
func (f *fakeReplica) Control(core.DN, bool, core.JobID, ajo.ControlOp) error { return nil }
func (f *fakeReplica) FetchFileOwned(core.DN, bool, core.JobID, string, int64, int64) (protocol.TransferReply, error) {
	return protocol.TransferReply{}, nil
}
func (f *fakeReplica) StageOpen(core.DN, bool, protocol.PutOpenRequest) (protocol.PutOpenReply, error) {
	return protocol.PutOpenReply{}, nil
}
func (f *fakeReplica) StageChunk(core.DN, bool, protocol.PutChunkRequest) (protocol.PutChunkReply, error) {
	return protocol.PutChunkReply{}, nil
}
func (f *fakeReplica) StageCommit(core.DN, bool, protocol.PutCommitRequest) (protocol.PutCommitReply, error) {
	return protocol.PutCommitReply{}, nil
}
func (f *fakeReplica) Pages() []resources.Page        { return nil }
func (f *fakeReplica) SetLoginMapper(njs.LoginMapper) {}
func (f *fakeReplica) Events(core.DN, bool, protocol.SubscribeRequest) (protocol.EventsReply, error) {
	return protocol.EventsReply{}, nil
}
func (f *fakeReplica) EventsNotify(protocol.SubscribeRequest) (<-chan struct{}, func()) {
	ch := make(chan struct{})
	return ch, func() {}
}

var _ njs.Service = (*fakeReplica)(nil)

// harness wires a controller over an empty router with Build/Recover/Retire
// hooks that mint fakeReplicas and record lifecycle events.
type harness struct {
	router  *pool.Router
	clock   *sim.VirtualClock
	ctl     *Controller
	mu      sync.Mutex
	built   map[string]*fakeReplica // latest instance per vsite/tag key
	builds  int
	recover int
	retired []string
}

func (h *harness) key(v core.Vsite, tag string) string { return string(v) + "/" + tag }

func (h *harness) replica(t *testing.T, v core.Vsite, tag string) *fakeReplica {
	t.Helper()
	h.mu.Lock()
	defer h.mu.Unlock()
	f, ok := h.built[h.key(v, tag)]
	if !ok {
		t.Fatalf("no replica built for %s/%s", v, tag)
	}
	return f
}

func newHarness(t *testing.T, site deploy.TopologySite) *harness {
	t.Helper()
	router, err := pool.NewRouter(site.Usite)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	h := &harness{router: router, clock: sim.NewVirtualClock(), built: make(map[string]*fakeReplica)}
	mint := func(v deploy.TopologyVsite, tag string) (njs.Service, error) {
		f := &fakeReplica{vsite: v.Name, tag: tag}
		h.mu.Lock()
		h.built[h.key(v.Name, tag)] = f
		h.mu.Unlock()
		return f, nil
	}
	ctl, err := New(Config{
		Site:   site,
		Router: router,
		Clock:  h.clock,
		Build: func(v deploy.TopologyVsite, tag string) (njs.Service, error) {
			h.mu.Lock()
			h.builds++
			h.mu.Unlock()
			return mint(v, tag)
		},
		Recover: func(v deploy.TopologyVsite, tag string) (njs.Service, error) {
			h.mu.Lock()
			h.recover++
			h.mu.Unlock()
			return mint(v, tag)
		},
		Retire: func(v deploy.TopologyVsite, tag string, svc njs.Service) error {
			h.mu.Lock()
			h.retired = append(h.retired, h.key(v.Name, tag))
			h.mu.Unlock()
			return nil
		},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	h.ctl = ctl
	return h
}

func (h *harness) reconcile(t *testing.T) Result {
	t.Helper()
	res, err := h.ctl.ReconcileNow()
	if err != nil {
		t.Fatalf("ReconcileNow: %v", err)
	}
	return res
}

// gauge reads one labeled metric value out of a snapshot.
func gauge(t *testing.T, snap telemetry.Snapshot, name string, kv ...string) float64 {
	t.Helper()
	p, ok := snap.Get(name, kv...)
	if !ok {
		t.Fatalf("metric %s%v not in snapshot", name, kv)
	}
	return p.Value
}

func simpleSite(replicas int, auto *deploy.AutoscaleSpec) deploy.TopologySite {
	return deploy.TopologySite{
		Usite: "FZJ",
		Vsites: []deploy.TopologyVsite{{
			Name:      "T3E",
			Machine:   "t3e",
			Replicas:  replicas,
			Policy:    "round-robin",
			Autoscale: auto,
		}},
	}
}

// TestReconcileCreatesDeclaredTopology: a pass over an empty router builds
// the replica set and populates it to the declared count.
func TestReconcileCreatesDeclaredTopology(t *testing.T) {
	h := newHarness(t, simpleSite(3, nil))
	res := h.reconcile(t)
	if res.ScaledUp != 3 || !res.Converged {
		t.Fatalf("first pass = %+v, want 3 scale-ups and convergence", res)
	}
	set, ok := h.router.Set("T3E")
	if !ok {
		t.Fatal("reconcile did not create the T3E replica set")
	}
	if got := len(set.Names()); got != 3 {
		t.Fatalf("set has %d replicas, want 3", got)
	}
	for i := 0; i < 3; i++ {
		if !h.replica(t, "T3E", pool.ReplicaTag(i)).resumed {
			t.Fatalf("replica %d was not resumed after build", i)
		}
	}
	// A second pass changes nothing.
	res = h.reconcile(t)
	if res.ScaledUp != 0 || res.Healed != 0 || !res.Converged {
		t.Fatalf("steady-state pass = %+v, want no-op convergence", res)
	}
	snap := h.ctl.Telemetry().Snapshot()
	if got := snap.Total("controller_reconcile_total"); got != 2 {
		t.Fatalf("controller_reconcile_total = %v, want 2", got)
	}
	if got := gauge(t, snap, "controller_replicas", "vsite", "T3E"); got != 3 {
		t.Fatalf("controller_replicas{T3E} = %v, want 3", got)
	}
	if got := snap.Total("controller_scale_up_total"); got != 3 {
		t.Fatalf("controller_scale_up_total = %v, want 3", got)
	}
	if got := gauge(t, snap, "controller_converged"); got != 1 {
		t.Fatalf("controller_converged = %v, want 1", got)
	}
}

// TestSelfHealReplacesCrashedReplica: a replica whose Ping fails is
// recovered and swapped back in under the same tag.
func TestSelfHealReplacesCrashedReplica(t *testing.T) {
	h := newHarness(t, simpleSite(3, nil))
	h.reconcile(t)
	crashed := h.replica(t, "T3E", "r1")
	crashed.set(func(f *fakeReplica) { f.down = true })

	res := h.reconcile(t)
	if res.Healed != 1 || res.ScaledUp != 0 {
		t.Fatalf("heal pass = %+v, want exactly one heal", res)
	}
	replacement := h.replica(t, "T3E", "r1")
	if replacement == crashed {
		t.Fatal("crashed replica was not replaced")
	}
	if !replacement.resumed {
		t.Fatal("recovered replica was not resumed")
	}
	set, _ := h.router.Set("T3E")
	if svc, _ := set.Service("r1"); svc != njs.Service(replacement) {
		t.Fatal("the set does not serve the recovered instance under r1")
	}
	snap := h.ctl.Telemetry().Snapshot()
	if got := gauge(t, snap, "controller_heal_total", "vsite", "T3E"); got != 1 {
		t.Fatalf("controller_heal_total{T3E} = %v, want 1", got)
	}
}

// TestAutoscaleUpAndDown: backlog grows the pool one replica per pass up to
// the ceiling; sustained idleness drains it back to the floor.
func TestAutoscaleUpAndDown(t *testing.T) {
	auto := &deploy.AutoscaleSpec{Min: 1, Max: 3, BacklogPerReplica: 2, IdleCycles: 2}
	h := newHarness(t, simpleSite(1, auto))
	h.reconcile(t)
	set, _ := h.router.Set("T3E")
	if got := len(set.Names()); got != 1 {
		t.Fatalf("resting size = %d, want 1", got)
	}

	// Flood r0's inflight gauge past the per-replica backlog budget.
	h.replica(t, "T3E", "r0").set(func(f *fakeReplica) { f.inflight = 10 })
	if res := h.reconcile(t); res.ScaledUp != 1 {
		t.Fatalf("backlogged pass = %+v, want one scale-up", res)
	}
	if res := h.reconcile(t); res.ScaledUp != 1 {
		t.Fatalf("second backlogged pass = %+v, want one scale-up", res)
	}
	if got := len(set.Names()); got != 3 {
		t.Fatalf("scaled size = %d, want the declared max of 3", got)
	}
	// At the ceiling, backlog adds nothing more.
	if res := h.reconcile(t); res.ScaledUp != 0 {
		t.Fatalf("at-max pass scaled up: %+v", res)
	}

	// Idle out: zero backlog and a frozen event log shrink back to the
	// floor, one drained replica at a time, highest tag first.
	h.replica(t, "T3E", "r0").set(func(f *fakeReplica) { f.inflight = 0 })
	downs := 0
	for i := 0; i < 12 && len(set.Names()) > 1; i++ {
		res := h.reconcile(t)
		downs += res.ScaledDown
	}
	if got := len(set.Names()); got != 1 {
		t.Fatalf("idle pool holds %d replicas, want the floor of 1", got)
	}
	if downs != 2 {
		t.Fatalf("observed %d scale-downs, want 2", downs)
	}
	h.mu.Lock()
	retired := append([]string(nil), h.retired...)
	h.mu.Unlock()
	if len(retired) != 2 || retired[0] != "T3E/r2" || retired[1] != "T3E/r1" {
		t.Fatalf("retired = %v, want highest-tag-first [T3E/r2 T3E/r1]", retired)
	}
	snap := h.ctl.Telemetry().Snapshot()
	if got := snap.Total("controller_scale_down_total"); got != 2 {
		t.Fatalf("controller_scale_down_total = %v, want 2", got)
	}
	if got := snap.HistCount("controller_drain_seconds"); got != 2 {
		t.Fatalf("controller_drain_seconds count = %v, want 2", got)
	}
}

// TestIdleCounterResetsUnderLoad: a busy pool never starts a scale-down.
func TestIdleCounterResetsUnderLoad(t *testing.T) {
	auto := &deploy.AutoscaleSpec{Min: 1, Max: 3, BacklogPerReplica: 100, IdleCycles: 2}
	h := newHarness(t, simpleSite(2, auto))
	h.reconcile(t)
	set, _ := h.router.Set("T3E")
	// A trickle of inflight work on every pass keeps the idle counter at
	// zero: many passes later the pool still holds its resting size.
	h.replica(t, "T3E", "r0").set(func(f *fakeReplica) { f.inflight = 1 })
	for i := 0; i < 10; i++ {
		if res := h.reconcile(t); res.ScaledDown != 0 {
			t.Fatalf("pass %d scaled down under load: %+v", i, res)
		}
	}
	if got := len(set.Names()); got != 2 {
		t.Fatalf("busy pool shrank to %d replicas", got)
	}
}

// TestRollingGenerationBump: bumping the fleet generation replaces every
// replica, one drain-settle-retire-recover cycle per replica.
func TestRollingGenerationBump(t *testing.T) {
	site := simpleSite(2, nil)
	h := newHarness(t, site)
	h.reconcile(t)
	gen0 := []*fakeReplica{h.replica(t, "T3E", "r0"), h.replica(t, "T3E", "r1")}

	site.Vsites[0].Generation = 1
	if err := h.ctl.Apply(site); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	res := h.reconcile(t)
	if res.Rolled != 1 || res.Converged {
		t.Fatalf("first roll pass = %+v, want one roll and no convergence yet", res)
	}
	res = h.reconcile(t)
	if res.Rolled != 1 || !res.Converged {
		t.Fatalf("second roll pass = %+v, want the final roll and convergence", res)
	}
	for i, old := range gen0 {
		tag := pool.ReplicaTag(i)
		fresh := h.replica(t, "T3E", tag)
		if fresh == old {
			t.Fatalf("replica %s was not replaced by the roll", tag)
		}
		if !fresh.resumed {
			t.Fatalf("rolled replica %s was not resumed", tag)
		}
	}
	h.mu.Lock()
	retired := len(h.retired)
	h.mu.Unlock()
	if retired != 2 {
		t.Fatalf("retired %d instances, want 2", retired)
	}
	set, _ := h.router.Set("T3E")
	for _, tag := range set.Names() {
		if set.Draining(tag) {
			t.Fatalf("replica %s left draining after the roll completed", tag)
		}
	}
	snap := h.ctl.Telemetry().Snapshot()
	if got := gauge(t, snap, "controller_roll_total", "vsite", "T3E"); got != 2 {
		t.Fatalf("controller_roll_total{T3E} = %v, want 2", got)
	}
	if got := snap.HistCount("controller_drain_seconds"); got != 2 {
		t.Fatalf("controller_drain_seconds count = %v, want 2", got)
	}
	// Steady state again: no further rolls.
	if res := h.reconcile(t); res.Rolled != 0 || !res.Converged {
		t.Fatalf("post-roll pass = %+v, want converged no-op", res)
	}
}

// TestSpoolSweep: a declared spool TTL sweeps every replica each pass.
func TestSpoolSweep(t *testing.T) {
	site := simpleSite(2, nil)
	site.Vsites[0].SpoolTTLSec = 3600
	h := newHarness(t, site)
	h.reconcile(t)
	h.reconcile(t)
	for i := 0; i < 2; i++ {
		f := h.replica(t, "T3E", pool.ReplicaTag(i))
		f.mu.Lock()
		swept := append([]time.Duration(nil), f.swept...)
		f.mu.Unlock()
		if len(swept) == 0 || swept[0] != time.Hour {
			t.Fatalf("replica %d swept %v, want hourly sweeps each pass", i, swept)
		}
	}
}

// TestApplyRejectsForeignSite: the controller refuses a spec for a
// different Usite or an invalid one.
func TestApplyRejectsForeignSite(t *testing.T) {
	h := newHarness(t, simpleSite(1, nil))
	if err := h.ctl.Apply(deploy.TopologySite{Usite: "ZIB"}); err == nil {
		t.Fatal("Apply accepted a spec for a different usite")
	}
	bad := simpleSite(1, nil)
	bad.Vsites[0].Policy = "nonesuch"
	if err := h.ctl.Apply(bad); err == nil {
		t.Fatal("Apply accepted an invalid policy")
	}
}

// TestStartStopLoop: the armed loop reconciles on the clock cadence.
func TestStartStopLoop(t *testing.T) {
	h := newHarness(t, simpleSite(2, nil))
	h.ctl.Start()
	defer h.ctl.Stop()
	h.clock.Advance(DefaultInterval)
	set, ok := h.router.Set("T3E")
	if !ok || len(set.Names()) != 2 {
		t.Fatal("armed loop did not converge the topology after one interval")
	}
	// A crash heals on the next tick without manual passes.
	h.replica(t, "T3E", "r0").set(func(f *fakeReplica) { f.down = true })
	h.clock.Advance(DefaultInterval)
	if h.replica(t, "T3E", "r0").Ping() != nil {
		t.Fatal("armed loop did not heal the crashed replica")
	}
	h.ctl.Stop()
	snap := h.ctl.Telemetry().Snapshot()
	before := snap.Total("controller_reconcile_total")
	h.clock.Advance(10 * DefaultInterval)
	if got := h.ctl.Telemetry().Snapshot().Total("controller_reconcile_total"); got != before {
		t.Fatalf("reconcile ran after Stop: %v → %v", before, got)
	}
}
