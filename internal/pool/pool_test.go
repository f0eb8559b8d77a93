package pool

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"unicore/internal/ajo"
	"unicore/internal/core"
	"unicore/internal/njs"
	"unicore/internal/protocol"
	"unicore/internal/resources"
	"unicore/internal/sim"
	"unicore/internal/staging"
	"unicore/internal/telemetry"
)

// fakeService is a minimal in-memory njs.Service for pool routing tests. It
// reproduces the two NJS behaviours the pool depends on: idempotent
// consignment by consign ID, and the killed-NJS refusal (ErrDown) —
// optionally after admitting, which models the killed-between-admit-and-ack
// window of the durable consign path.
type fakeService struct {
	usite    core.Usite
	vsite    core.Vsite
	instance string

	mu           sync.Mutex
	seq          int
	jobs         map[core.JobID]core.DN // job → owner
	consigns     map[string]core.JobID  // consign ID → admitted job
	consignN     int                    // admissions performed
	pollN        int                    // polls served
	down         bool
	admitUnacked bool // admit the job, then refuse the ack (ErrDown)
	load         float64
	aborts       []core.JobID // jobs aborted via Control
	mapper       njs.LoginMapper
	stages       map[string]int64 // staged handle → chunk watermark
}

func newFake(usite core.Usite, vsite core.Vsite, instance string) *fakeService {
	return &fakeService{
		usite: usite, vsite: vsite, instance: instance,
		jobs:     make(map[core.JobID]core.DN),
		consigns: make(map[string]core.JobID),
	}
}

func (f *fakeService) Consign(ctx context.Context, user core.DN, consignID string, job *ajo.AbstractJob) (core.JobID, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.down && !f.admitUnacked {
		return "", njs.ErrDown
	}
	if consignID != "" {
		if id, dup := f.consigns[consignID]; dup {
			return id, nil
		}
	}
	f.seq++
	id := core.JobID(fmt.Sprintf("%s-%s-%06d", f.usite, f.instance, f.seq))
	f.jobs[id] = user
	f.consignN++
	if consignID != "" {
		f.consigns[consignID] = id
	}
	if f.down { // admitted, but the ack is refused — the unacked window
		return id, njs.ErrDown
	}
	return id, nil
}

func (f *fakeService) Poll(caller core.DN, asServer bool, id core.JobID) (protocol.PollReply, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.pollN++
	if _, ok := f.jobs[id]; !ok {
		return protocol.PollReply{Found: false}, nil
	}
	return protocol.PollReply{Found: true, Summary: ajo.Summary{Job: string(id)}}, nil
}

func (f *fakeService) Outcome(caller core.DN, asServer bool, id core.JobID) (*ajo.Outcome, bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.jobs[id]; !ok {
		return nil, false, nil
	}
	return &ajo.Outcome{}, true, nil
}

func (f *fakeService) List(caller core.DN) ([]protocol.JobInfo, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []protocol.JobInfo
	for id, owner := range f.jobs {
		if owner == caller {
			out = append(out, protocol.JobInfo{Job: id})
		}
	}
	return out, nil
}

func (f *fakeService) Control(caller core.DN, asServer bool, id core.JobID, op ajo.ControlOp) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.jobs[id]; !ok {
		return fmt.Errorf("%w: %s", njs.ErrUnknownJob, id)
	}
	if op == ajo.OpAbort {
		f.aborts = append(f.aborts, id)
	}
	return nil
}

// ConsignedJobs implements pool.ConsignReporter, mirroring the NJS index.
func (f *fakeService) ConsignedJobs() map[string]core.JobID {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string]core.JobID, len(f.consigns))
	for k, v := range f.consigns {
		out[k] = v
	}
	return out
}

func (f *fakeService) FetchFileOwned(caller core.DN, asServer bool, id core.JobID, file string, offset, limit int64) (protocol.TransferReply, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.jobs[id]; !ok {
		return protocol.TransferReply{Found: false}, nil
	}
	return protocol.TransferReply{Found: true}, nil
}

func (f *fakeService) Pages() []resources.Page {
	return []resources.Page{{Target: core.Target{Usite: f.usite, Vsite: f.vsite}}}
}

func (f *fakeService) VsiteLoads() map[core.Vsite]njs.VsiteLoad {
	f.mu.Lock()
	defer f.mu.Unlock()
	return map[core.Vsite]njs.VsiteLoad{
		f.vsite: {Load: f.load, Pending: 0, Replicas: 1, Healthy: 1},
	}
}

func (f *fakeService) SetLoginMapper(fn njs.LoginMapper) {
	f.mu.Lock()
	f.mapper = fn
	f.mu.Unlock()
}

func (f *fakeService) Ping() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.down {
		return njs.ErrDown
	}
	return nil
}

func (f *fakeService) Events(caller core.DN, asServer bool, req protocol.SubscribeRequest) (protocol.EventsReply, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if req.Job != "" {
		if _, ok := f.jobs[req.Job]; !ok {
			return protocol.EventsReply{}, fmt.Errorf("%w: %s", njs.ErrUnknownJob, req.Job)
		}
		return protocol.EventsReply{Cursor: req.Cursor}, nil
	}
	return protocol.EventsReply{Origins: map[string]uint64{f.instance: req.Cursor}}, nil
}

func (f *fakeService) EventsNotify(protocol.SubscribeRequest) (<-chan struct{}, func()) {
	return make(chan struct{}), func() {}
}

func (f *fakeService) StageOpen(caller core.DN, asServer bool, req protocol.PutOpenRequest) (protocol.PutOpenReply, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.down {
		return protocol.PutOpenReply{}, njs.ErrDown
	}
	f.seq++
	h := fmt.Sprintf("stg-%s-%06d", f.instance, f.seq)
	if f.stages == nil {
		f.stages = make(map[string]int64)
	}
	f.stages[h] = 0
	return protocol.PutOpenReply{Handle: h, ChunkSize: req.ChunkSize, Window: req.Window}, nil
}

func (f *fakeService) StageChunk(caller core.DN, asServer bool, req protocol.PutChunkRequest) (protocol.PutChunkReply, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.down {
		return protocol.PutChunkReply{}, njs.ErrDown
	}
	w, ok := f.stages[req.Handle]
	if !ok {
		return protocol.PutChunkReply{}, fmt.Errorf("%w: %q", staging.ErrUnknownHandle, req.Handle)
	}
	if req.Index == w {
		w++
		f.stages[req.Handle] = w
	}
	return protocol.PutChunkReply{Received: w}, nil
}

// StagedHandles implements pool.StageReporter, mirroring the NJS spool index.
func (f *fakeService) StagedHandles() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, 0, len(f.stages))
	for h := range f.stages {
		out = append(out, h)
	}
	return out
}

func (f *fakeService) StageCommit(caller core.DN, asServer bool, req protocol.PutCommitRequest) (protocol.PutCommitReply, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.down {
		return protocol.PutCommitReply{}, njs.ErrDown
	}
	w, ok := f.stages[req.Handle]
	if !ok {
		return protocol.PutCommitReply{}, fmt.Errorf("%w: %q", staging.ErrUnknownHandle, req.Handle)
	}
	return protocol.PutCommitReply{Chunks: w, CRC: req.CRC}, nil
}

func (f *fakeService) Metrics() []telemetry.Snapshot {
	return []telemetry.Snapshot{{Origin: "fake/" + string(f.usite) + "/" + f.instance}}
}

func (f *fakeService) setDown(down bool) {
	f.mu.Lock()
	f.down = down
	f.mu.Unlock()
}

func (f *fakeService) jobCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.jobs)
}

var _ njs.Service = (*fakeService)(nil)

func testJob(vsite core.Vsite) *ajo.AbstractJob {
	return &ajo.AbstractJob{Target: core.Target{Usite: "FZJ", Vsite: vsite}}
}

// newTestSet builds a 3-replica set over fakes under a virtual clock.
func newTestSet(t *testing.T, policy Policy) (*ReplicaSet, *sim.VirtualClock, []*fakeService) {
	t.Helper()
	clock := sim.NewVirtualClock()
	set, err := New(Config{Vsite: "CLUSTER", Policy: policy, Clock: clock})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var fakes []*fakeService
	for i := 0; i < 3; i++ {
		f := newFake("FZJ", "CLUSTER", Instance("CLUSTER", ReplicaTag(i)))
		fakes = append(fakes, f)
		if err := set.Add(ReplicaTag(i), f); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	return set, clock, fakes
}

// routerOver fronts sets with a Router, the pool's door for job- and
// handle-scoped calls.
func routerOver(t *testing.T, sets ...*ReplicaSet) *Router {
	t.Helper()
	r, err := NewRouter("FZJ")
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	for _, s := range sets {
		if err := r.AddSet(s); err != nil {
			t.Fatalf("AddSet: %v", err)
		}
	}
	return r
}

func TestRoundRobinSpreadsConsigns(t *testing.T) {
	set, _, fakes := newTestSet(t, RoundRobin)
	for i := 0; i < 9; i++ {
		if _, err := set.Consign(context.Background(), "CN=u", fmt.Sprintf("c%d", i), testJob("CLUSTER")); err != nil {
			t.Fatalf("Consign: %v", err)
		}
	}
	for i, f := range fakes {
		if got := f.jobCount(); got != 3 {
			t.Errorf("replica r%d admitted %d jobs, want 3", i, got)
		}
	}
}

func TestAllReplicasUnhealthyIsCleanErrNoReplica(t *testing.T) {
	for _, policy := range []Policy{RoundRobin, LeastLoaded, ConsistentHash} {
		set, _, fakes := newTestSet(t, policy)
		for _, f := range fakes {
			f.setDown(true)
		}
		set.CheckNow() // trip every breaker
		if h := set.Healthy(); len(h) != 0 {
			t.Fatalf("[%s] healthy after CheckNow on all-down pool: %v", policy, h)
		}
		if _, err := set.Consign(context.Background(), "CN=u", "c1", testJob("CLUSTER")); !errors.Is(err, ErrNoReplica) {
			t.Errorf("[%s] Consign on all-down pool: err = %v, want ErrNoReplica", policy, err)
		}
		if _, err := routerOver(t, set).Poll("CN=u", false, "FZJ-CLUSTER.r0-000001"); !errors.Is(err, ErrReplicaDown) {
			t.Errorf("[%s] Poll on all-down pool: err = %v, want ErrReplicaDown", policy, err)
		}
	}
}

// TestConsignFailoverDoesNotDuplicate is the unacked-admission retry
// contract: replica r0 admits a job but dies before acknowledging; the pool
// fails over to the next healthy replica, and a client retry with the same
// consign ID converges on the acknowledged admission instead of running the
// job a third time.
func TestConsignFailoverDoesNotDuplicate(t *testing.T) {
	set, _, fakes := newTestSet(t, RoundRobin)
	fakes[0].setDown(true)
	fakes[0].admitUnacked = true
	fakes[1].setDown(true) // plain refusal, nothing admitted
	set.rr.Store(-1)       // make r0 the first pick

	id, err := set.Consign(context.Background(), "CN=u", "retry-1", testJob("CLUSTER"))
	if err != nil {
		t.Fatalf("Consign with failover: %v", err)
	}
	if fakes[2].jobCount() != 1 {
		t.Fatalf("surviving replica admitted %d jobs, want 1", fakes[2].jobCount())
	}

	// Retry with the same consign ID: the ack index answers, nobody admits.
	id2, err := set.Consign(context.Background(), "CN=u", "retry-1", testJob("CLUSTER"))
	if err != nil || id2 != id {
		t.Fatalf("retry: id=%s err=%v, want converged id %s", id2, err, id)
	}
	if n := fakes[2].jobCount(); n != 1 {
		t.Fatalf("retry duplicated the job: surviving replica has %d jobs", n)
	}

	// Reads route to the acknowledged copy, never the unacked orphan on r0.
	reply, err := routerOver(t, set).Poll("CN=u", false, id)
	if err != nil || !reply.Found {
		t.Fatalf("Poll(%s): found=%v err=%v", id, reply.Found, err)
	}
	if fakes[0].pollN != 0 {
		t.Errorf("read was routed to the failed replica (%d polls)", fakes[0].pollN)
	}
}

// TestConsistentHashAffinitySurvivesReplicaRestart covers both restart
// flavours: a replica restart (SetService hot-swap under the same pool
// name) keeps job reads landing on the replica the job ID names, and a pool
// restart (fresh ReplicaSet) re-places the same consign ID on the same
// replica via the name-keyed hash ring.
func TestConsistentHashAffinitySurvivesReplicaRestart(t *testing.T) {
	set, clock, fakes := newTestSet(t, ConsistentHash)
	router := routerOver(t, set)
	id, err := set.Consign(context.Background(), "CN=u", "stable-key", testJob("CLUSTER"))
	if err != nil {
		t.Fatalf("Consign: %v", err)
	}
	var owner int
	for i, f := range fakes {
		if f.jobCount() == 1 {
			owner = i
		}
	}
	ownerName := fmt.Sprintf("r%d", owner)

	// Kill the owner: the health check trips its breaker and reads of its
	// jobs fail fast with ErrReplicaDown instead of consulting a stale copy.
	fakes[owner].setDown(true)
	set.CheckNow()
	if _, err := router.Poll("CN=u", false, id); !errors.Is(err, ErrReplicaDown) {
		t.Fatalf("Poll with owner down: err = %v, want ErrReplicaDown", err)
	}

	// Restart: a recovered service (same jobs) is swapped in under the same
	// replica name. The read by name works again without re-routing.
	recovered := newFake("FZJ", "CLUSTER", Instance("CLUSTER", ownerName))
	recovered.jobs[id] = "CN=u"
	recovered.consigns["stable-key"] = id
	if err := set.SetService(ownerName, recovered); err != nil {
		t.Fatalf("SetService: %v", err)
	}
	reply, err := router.Poll("CN=u", false, id)
	if err != nil || !reply.Found {
		t.Fatalf("Poll after restart: found=%v err=%v", reply.Found, err)
	}
	if recovered.pollN != 1 {
		t.Fatalf("restarted owner served %d polls, want 1", recovered.pollN)
	}

	// Pool restart: a fresh set over the same replica names, and the hash ring re-places the same consign key on the same
	// replica, where NJS-level idempotency converges on the admitted job.
	set2, err := New(Config{Vsite: "CLUSTER", Policy: ConsistentHash, Clock: clock})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i, f := range fakes {
		svc := njs.Service(f)
		if i == owner {
			svc = recovered
		}
		if err := set2.Add(fmt.Sprintf("r%d", i), svc); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	id2, err := set2.Consign(context.Background(), "CN=u", "stable-key", testJob("CLUSTER"))
	if err != nil || id2 != id {
		t.Fatalf("re-consign after pool restart: id=%s err=%v, want %s", id2, err, id)
	}
	if n := recovered.jobCount(); n != 1 {
		t.Fatalf("pool restart duplicated the job: owner has %d jobs", n)
	}
}

func TestBreakerBacksOffExponentiallyAndRecovers(t *testing.T) {
	set, clock, fakes := newTestSet(t, RoundRobin)
	fakes[0].setDown(true)
	const base = DefaultBackoffBase
	set.CheckNow() // trip r0: open for base

	if h := set.Healthy(); len(h) != 2 {
		t.Fatalf("healthy = %v, want 2 replicas", h)
	}
	// Backoff window holds: still excluded before expiry.
	clock.Advance(base / 2)
	for i := 0; i < 6; i++ {
		if _, err := set.Consign(context.Background(), "CN=u", fmt.Sprintf("b%d", i), testJob("CLUSTER")); err != nil {
			t.Fatalf("Consign: %v", err)
		}
	}
	if n := fakes[0].jobCount(); n != 0 {
		t.Fatalf("tripped replica received %d consigns inside the backoff window", n)
	}

	// Window expires, probe fails, window doubles: after the first re-trip
	// the replica is open for 2·base, so 1.5·base later it must still be
	// excluded.
	clock.Advance(base/2 + base/10) // t=1.1·base: half-open
	if _, err := set.Consign(context.Background(), "CN=u", "probe-1", testJob("CLUSTER")); err != nil {
		t.Fatalf("Consign: %v", err)
	}
	if n := fakes[0].jobCount(); n != 0 {
		t.Fatalf("half-open probe admitted %d jobs on a dead replica", n)
	}
	clock.Advance(base + base/2) // t=2.6·base: inside the doubled window
	if got := set.Healthy(); len(got) != 2 {
		t.Fatalf("healthy = %v inside doubled backoff window, want 2", got)
	}

	// Replica heals: once the window expires the probe closes the breaker.
	fakes[0].setDown(false)
	clock.Advance(base) // t=3.6·base: past 1.1·base + 2·base
	set.CheckNow()
	if got := set.Healthy(); len(got) != 3 {
		t.Fatalf("healthy = %v after recovery, want all 3", got)
	}
}

func TestLeastLoadedPrefersIdleReplica(t *testing.T) {
	set, _, fakes := newTestSet(t, LeastLoaded)
	fakes[0].load = 0.9
	fakes[1].load = 0.5
	fakes[2].load = 0.1
	for i := 0; i < 3; i++ {
		if _, err := set.Consign(context.Background(), "CN=u", fmt.Sprintf("l%d", i), testJob("CLUSTER")); err != nil {
			t.Fatalf("Consign: %v", err)
		}
	}
	if n := fakes[2].jobCount(); n != 3 {
		t.Fatalf("idle replica admitted %d jobs, want all 3", n)
	}
}

func TestRouterRoutesAcrossVsitesAndReportsHealth(t *testing.T) {
	clock := sim.NewVirtualClock()
	router, err := NewRouter("FZJ")
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	var all []*fakeService
	for _, vs := range []core.Vsite{"A", "B"} {
		set, err := New(Config{Vsite: vs, Clock: clock})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		for i := 0; i < 2; i++ {
			f := newFake("FZJ", vs, Instance(vs, ReplicaTag(i)))
			all = append(all, f)
			if err := set.Add(ReplicaTag(i), f); err != nil {
				t.Fatalf("Add: %v", err)
			}
		}
		if err := router.AddSet(set); err != nil {
			t.Fatalf("AddSet: %v", err)
		}
	}
	job := &ajo.AbstractJob{Target: core.Target{Usite: "FZJ", Vsite: "B"}}
	id, err := router.Consign(context.Background(), "CN=u", "x1", job)
	if err != nil {
		t.Fatalf("Consign: %v", err)
	}
	if reply, err := router.Poll("CN=u", false, id); err != nil || !reply.Found {
		t.Fatalf("Poll: found=%v err=%v", reply.Found, err)
	}
	if a := all[0].jobCount() + all[1].jobCount(); a != 0 {
		t.Fatalf("Vsite A admitted %d jobs for a Vsite B consign", a)
	}

	loads := router.VsiteLoads()
	if got := loads["A"]; got.Replicas != 2 || got.Healthy != 2 {
		t.Fatalf("VsiteLoads[A] = %+v, want 2/2 replicas healthy", got)
	}
	// Drain Vsite A entirely: the load report says 0 healthy, the router
	// still serves B.
	all[0].setDown(true)
	all[1].setDown(true)
	router.CheckNow()
	if got := router.VsiteLoads()["A"]; got.Healthy != 0 || got.Replicas != 2 {
		t.Fatalf("VsiteLoads[A] after drain = %+v, want 0 healthy of 2", got)
	}
	if err := router.Ping(); err != nil {
		t.Fatalf("Ping with one live Vsite: %v", err)
	}
	if _, err := router.Consign(context.Background(), "CN=u", "x2", job); err != nil {
		t.Fatalf("Consign to live Vsite after drain: %v", err)
	}
	if _, err := router.Consign(context.Background(), "CN=u", "x3", &ajo.AbstractJob{Target: core.Target{Usite: "FZJ", Vsite: "A"}}); !errors.Is(err, ErrNoReplica) {
		t.Fatalf("Consign to drained Vsite: err = %v, want ErrNoReplica", err)
	}
}

// TestRejoinAbortsOrphanAdmissions: a replica journals an admission, dies
// before acking, and consign failover re-admits the job elsewhere. When the
// replica rejoins (journal recovery + SetService), the pool must abort its
// orphan copy — the logical job never executes twice — while retries keep
// converging on the acknowledged admission.
func TestRejoinAbortsOrphanAdmissions(t *testing.T) {
	set, _, fakes := newTestSet(t, RoundRobin)
	fakes[0].setDown(true)
	fakes[0].admitUnacked = true // journals the admission, refuses the ack
	fakes[1].setDown(true)
	set.rr.Store(-1) // make r0 the first pick

	id, err := set.Consign(context.Background(), "CN=u", "orphan-1", testJob("CLUSTER"))
	if err != nil {
		t.Fatalf("Consign with failover: %v", err)
	}
	orphanID, ok := fakes[0].consigns["orphan-1"]
	if !ok {
		t.Fatal("victim did not journal the unacked admission")
	}

	// The victim recovers from its journal, orphan included, and rejoins.
	recovered := newFake("FZJ", "CLUSTER", Instance("CLUSTER", "r0"))
	recovered.jobs[orphanID] = "CN=u"
	recovered.consigns["orphan-1"] = orphanID
	if err := set.SetService("r0", recovered); err != nil {
		t.Fatalf("SetService: %v", err)
	}
	if len(recovered.aborts) != 1 || recovered.aborts[0] != orphanID {
		t.Fatalf("orphan %s not aborted on rejoin (aborts: %v)", orphanID, recovered.aborts)
	}
	// Retries still converge on the acknowledged copy, not the orphan.
	id2, err := set.Consign(context.Background(), "CN=u", "orphan-1", testJob("CLUSTER"))
	if err != nil || id2 != id {
		t.Fatalf("retry after rejoin: id=%s err=%v, want %s", id2, err, id)
	}
}

// TestPoolRestartAdoptsReplicaAdmissions: a fresh ReplicaSet (empty ack
// index) over already-running replicas adopts their admitted consign IDs at
// Add time, so retries converge under every routing policy — not just
// consistent hashing.
func TestPoolRestartAdoptsReplicaAdmissions(t *testing.T) {
	set, clock, fakes := newTestSet(t, RoundRobin)
	id, err := set.Consign(context.Background(), "CN=u", "adopt-1", testJob("CLUSTER"))
	if err != nil {
		t.Fatalf("Consign: %v", err)
	}

	set2, err := New(Config{Vsite: "CLUSTER", Policy: RoundRobin, Clock: clock})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i, f := range fakes {
		if err := set2.Add(fmt.Sprintf("r%d", i), f); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	// A retry through the rebuilt pool must not round-robin onto a second
	// replica: the adopted index answers.
	for i := 0; i < 3; i++ {
		id2, err := set2.Consign(context.Background(), "CN=u", "adopt-1", testJob("CLUSTER"))
		if err != nil || id2 != id {
			t.Fatalf("retry %d after pool restart: id=%s err=%v, want %s", i, id2, err, id)
		}
	}
	total := 0
	for _, f := range fakes {
		total += f.jobCount()
	}
	if total != 1 {
		t.Fatalf("pool restart duplicated the job: %d admissions across replicas", total)
	}
	// Reads route by the job's name on the rebuilt pool, with no warm-up.
	if reply, err := routerOver(t, set2).Poll("CN=u", false, id); err != nil || !reply.Found {
		t.Fatalf("Poll after adoption: found=%v err=%v", reply.Found, err)
	}
}

// TestConcurrentSameConsignIDSerializes: concurrent retries of one consign
// ID must not race onto different replicas; exactly one admission happens.
func TestConcurrentSameConsignIDSerializes(t *testing.T) {
	set, _, fakes := newTestSet(t, RoundRobin)
	const callers = 8
	ids := make([]core.JobID, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id, err := set.Consign(context.Background(), "CN=u", "same-id", testJob("CLUSTER"))
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
				return
			}
			ids[i] = id
		}(i)
	}
	wg.Wait()
	total := 0
	for _, f := range fakes {
		total += f.jobCount()
	}
	if total != 1 {
		t.Fatalf("%d admissions for one consign ID, want 1", total)
	}
	for i := 1; i < callers; i++ {
		if ids[i] != ids[0] {
			t.Fatalf("caller %d got %s, caller 0 got %s", i, ids[i], ids[0])
		}
	}
}

// TestEmptyConsignIDDoesNotFailOver: without a consign ID there is no
// idempotency to converge on, so an unacked admission must surface its
// error instead of risking a duplicate on another replica.
func TestEmptyConsignIDDoesNotFailOver(t *testing.T) {
	set, _, fakes := newTestSet(t, RoundRobin)
	fakes[0].setDown(true)
	fakes[0].admitUnacked = true // journals the admission, refuses the ack
	set.rr.Store(-1)             // make r0 the first pick

	if _, err := set.Consign(context.Background(), "CN=u", "", testJob("CLUSTER")); !errors.Is(err, njs.ErrDown) {
		t.Fatalf("ID-less consign on a dying replica: err = %v, want ErrDown surfaced", err)
	}
	if n := fakes[1].jobCount() + fakes[2].jobCount(); n != 0 {
		t.Fatalf("ID-less consign failed over anyway: %d admissions on other replicas", n)
	}
	// The failure still tripped the breaker.
	if h := set.Healthy(); len(h) != 2 {
		t.Fatalf("healthy = %v after the refused ack, want 2", h)
	}
}

// TestPoolRestartConflictAbortsNeitherCopy: after a full pool restart the
// ack index is rebuilt by adoption, so when two replicas both hold a copy
// of one consign ID (an orphaned failover from before the restart), the
// pool cannot know which copy the client was acknowledged — it must keep
// both reachable and abort neither.
func TestPoolRestartConflictAbortsNeitherCopy(t *testing.T) {
	clock := sim.NewVirtualClock()
	set, err := New(Config{Vsite: "CLUSTER", Policy: RoundRobin, Clock: clock})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Both replicas hold a copy of consign ID "dup-1" from before the pool
	// restart: r0's was the unacked orphan, r1's the acknowledged one — but
	// the rebuilt pool cannot tell.
	a := newFake("FZJ", "CLUSTER", "CLUSTER.r0")
	a.jobs["FZJ-CLUSTER.r0-000001"] = "CN=u"
	a.consigns["dup-1"] = "FZJ-CLUSTER.r0-000001"
	b := newFake("FZJ", "CLUSTER", "CLUSTER.r1")
	b.jobs["FZJ-CLUSTER.r1-000001"] = "CN=u"
	b.consigns["dup-1"] = "FZJ-CLUSTER.r1-000001"
	if err := set.Add("r0", a); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if err := set.Add("r1", b); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if len(a.aborts) != 0 || len(b.aborts) != 0 {
		t.Fatalf("a conflicting adopted copy was aborted (r0: %v, r1: %v)", a.aborts, b.aborts)
	}
	// Both job IDs stay reachable.
	router := routerOver(t, set)
	for _, id := range []core.JobID{"FZJ-CLUSTER.r0-000001", "FZJ-CLUSTER.r1-000001"} {
		if reply, err := router.Poll("CN=u", false, id); err != nil || !reply.Found {
			t.Fatalf("Poll(%s): found=%v err=%v", id, reply.Found, err)
		}
	}
}
