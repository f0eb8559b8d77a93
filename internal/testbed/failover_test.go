package testbed_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"
	"unicore/internal/testbed"
	"unicore/internal/testbed/testbedtest"

	"unicore/internal/ajo"
	"unicore/internal/client"
	"unicore/internal/core"
	"unicore/internal/deploy"
	"unicore/internal/njs"
	"unicore/internal/pool"
	"unicore/internal/protocol"
	"unicore/internal/resources"
	"unicore/internal/telemetry"
)

// probeRequest is the resource demand of the tiny probe jobs the failover
// tests consign.
func probeRequest() resources.Request {
	return resources.Request{Processors: 1, RunTime: 10 * time.Minute, MemoryMB: 16}
}

// probeJob builds a minimal script job for the pool's Vsite.
func probeJob(t *testing.T, name string) *ajo.AbstractJob {
	t.Helper()
	b := client.NewJob(name, core.Target{Usite: "POOL", Vsite: "CLUSTER"})
	b.Script("noop", "cpu 1m\necho "+name+" done\n", probeRequest())
	job, err := b.Build()
	if err != nil {
		t.Fatalf("building %s: %v", name, err)
	}
	return job
}

// failoverSpec is one Usite whose single Vsite is served by three NJS
// replicas behind a pool.Router — the scaled-out server tier, declared the
// way an operator would.
func failoverSpec() *deploy.TopologySpec {
	return &deploy.TopologySpec{
		Version: deploy.TopologyVersion,
		Sites: []deploy.TopologySite{{
			Usite: "POOL",
			Vsites: []deploy.TopologyVsite{{
				Name:          "CLUSTER",
				Machine:       "cluster",
				Processors:    16,
				Replicas:      3,
				SnapshotEvery: 256,
			}},
		}},
	}
}

// newFailoverSite boots failoverSpec as a controller-managed site with every
// replica journaled under a fresh state root.
func newFailoverSite(t *testing.T) (*testbed.Deployment, *testbed.ManagedSite) {
	t.Helper()
	d, m, err := testbed.NewManaged(failoverSpec(), "POOL", t.TempDir())
	if err != nil {
		t.Fatalf("NewManaged: %v", err)
	}
	t.Cleanup(d.Close)
	return d, m
}

// replicaNJS resolves the live NJS behind one pool tag.
func replicaNJS(t *testing.T, m *testbed.ManagedSite, tag string) *njs.NJS {
	t.Helper()
	for _, n := range m.Replicas() {
		if n.Instance() == pool.Instance("CLUSTER", tag) {
			return n
		}
	}
	t.Fatalf("no NJS replica %q in the pool", tag)
	return nil
}

// healReplica runs the one controller pass that recovers a crashed replica
// from its journal and swaps it back in under its stable pool tag.
func healReplica(t *testing.T, m *testbed.ManagedSite) {
	t.Helper()
	res, err := m.Reconcile()
	if err != nil {
		t.Fatalf("Reconcile: %v", err)
	}
	if res.Healed != 1 {
		t.Fatalf("reconcile = %+v, want exactly one heal", res)
	}
}

const failoverVictim = "r1" // pool tag of the replica killed mid-workload

// eventWatcher follows every workload job's event stream through the pool
// gateway with cursor-resumed fetches — the client half of the protocol-v2
// session API under failover.
type eventWatcher struct {
	sess    *client.Session
	ids     map[string]core.JobID
	cursors map[string]uint64
	events  map[string][]client.JobEvent
}

func newEventWatcher(sess *client.Session, ids map[string]core.JobID) *eventWatcher {
	return &eventWatcher{
		sess:    sess,
		ids:     ids,
		cursors: make(map[string]uint64),
		events:  make(map[string][]client.JobEvent),
	}
}

// drain pulls every job's stream to exhaustion from its last cursor. With
// tolerateDown set, jobs whose replica is unhealthy are skipped (their
// cursors stay put, to resume after the restart) instead of failing the
// test.
func (w *eventWatcher) drain(t *testing.T, tolerateDown bool) {
	t.Helper()
	for name, id := range w.ids {
		for {
			reply, err := w.sess.Events(context.Background(),
				protocol.SubscribeRequest{Job: id, Cursor: w.cursors[name]})
			if err != nil {
				if tolerateDown && strings.Contains(err.Error(), pool.ErrReplicaDown.Error()) {
					break // resume at the same cursor once the replica is back
				}
				t.Fatalf("Events(%s@%d): %v", name, w.cursors[name], err)
			}
			if reply.Gap {
				t.Fatalf("event stream of %s gapped at cursor %d", name, w.cursors[name])
			}
			w.events[name] = append(w.events[name], reply.Events...)
			if reply.Cursor > w.cursors[name] {
				w.cursors[name] = reply.Cursor
			}
			if len(reply.Events) == 0 {
				break
			}
		}
	}
}

// verify asserts event-stream continuity across the whole run: contiguous
// per-job sequences (nothing lost, nothing duplicated — the cursors span the
// replica kill and restart) and exactly one terminal event per job, last.
func (w *eventWatcher) verify(t *testing.T) {
	t.Helper()
	for name := range w.ids {
		evs := w.events[name]
		if len(evs) == 0 {
			t.Fatalf("watcher saw no events for job %s", name)
		}
		terminals := 0
		for i, ev := range evs {
			if ev.Seq != uint64(i+1) {
				t.Fatalf("job %s: event %d has Seq %d — events lost or duplicated across failover", name, i, ev.Seq)
			}
			if ev.Terminal {
				terminals++
			}
		}
		if terminals != 1 {
			t.Fatalf("job %s: watcher saw %d terminal events across the replica kill, want exactly 1", name, terminals)
		}
		if !evs[len(evs)-1].Terminal {
			t.Fatalf("job %s: terminal event is not the stream's last", name)
		}
	}
}

// runFailoverWorkload deploys the replicated site (every replica journaled),
// submits a deterministic workload, and — when kill is set — crashes one
// replica mid-workload, proves the pool stops routing to it, has the
// controller heal it from its journal, and lets the clock run dry. It returns
// the canonical outcome of every workload job, keyed by name.
func runFailoverWorkload(t *testing.T, kill bool) map[string]string {
	t.Helper()
	d, m := newFailoverSite(t)
	user, err := d.NewUser("Failover User", "Test", "failover")
	if err != nil {
		t.Fatalf("NewUser: %v", err)
	}

	cfg := testbed.DefaultWorkload(11, 24, d.Targets())
	cfg.MultiSiteFraction = 0 // one Usite: every job is local to the pool
	cfg.MeanCPU = 15 * time.Minute
	cfg.MaxProcs = 8
	jobs, err := testbed.GenerateWorkload(cfg)
	if err != nil {
		t.Fatalf("GenerateWorkload: %v", err)
	}
	sess := d.Session(user, "POOL")
	ids := make(map[string]core.JobID, len(jobs))
	for _, j := range jobs {
		id, err := sess.Submit(context.Background(), j)
		if err != nil {
			t.Fatalf("Submit(%s): %v", j.Name(), err)
		}
		ids[j.Name()] = id
	}

	// Run to mid-workload: staging done, batch jobs queued/running across
	// the three replicas.
	d.Clock.Advance(10 * time.Minute)

	// A protocol-v2 watcher follows every job's event stream through the
	// pool; its cursors must stay valid across the kill/restart below.
	watcher := newEventWatcher(d.Session(user, "POOL"), ids)
	watcher.drain(t, false)

	if kill {
		live := 0
		for name, id := range ids {
			sum, err := sess.Status(context.Background(), id)
			if err != nil {
				t.Fatalf("Status(%s) at kill point: %v", name, err)
			}
			if !sum.Status.Terminal() {
				live++
			}
		}
		if live == 0 {
			t.Fatal("kill point is not mid-workload: every job already terminal")
		}

		victim := replicaNJS(t, m, failoverVictim)
		ownedBefore, err := victim.List(user.DN())
		if err != nil {
			t.Fatalf("List on victim: %v", err)
		}

		// Crash right after the last fsync, as a real process restart would.
		if err := victim.SyncJournal(); err != nil {
			t.Fatalf("SyncJournal: %v", err)
		}
		// Kill the NJS but delay the health sweep, so the next traced
		// consigns discover the death themselves: the pool's failover then
		// runs under a live distributed trace, and the victim's refused hop
		// and the survivor's admission land in the same trace.
		victim.Kill()
		var failoverTrace string
		for i := 0; i < 3 && failoverTrace == ""; i++ {
			id, err := watcher.sess.Submit(context.Background(), probeJob(t, fmt.Sprintf("traced-%02d", i)))
			if err != nil {
				t.Fatalf("Submit(traced-%02d) against the un-swept pool: %v", i, err)
			}
			tr, _ := watcher.sess.Trace(id)
			spans, err := testbedtest.Trace(d, "POOL", tr)
			if err != nil {
				t.Fatalf("Trace: %v", err)
			}
			var consigns []telemetry.Span
			for _, sp := range spans {
				if sp.Name == "pool.consign" {
					consigns = append(consigns, sp)
				}
			}
			if len(consigns) < 2 {
				continue // round robin started on a healthy replica; try again
			}
			failoverTrace = tr
			// The failed-over consign's trace names both replicas…
			if consigns[0].Note == consigns[1].Note {
				t.Fatalf("failed-over consign recorded one replica twice: %q", consigns[0].Note)
			}
			// …with monotonic hop timestamps under the virtual clock.
			for j := 1; j < len(spans); j++ {
				if spans[j].Start.Before(spans[j-1].Start) {
					t.Fatalf("trace %s hops not monotonic: %s@%v after %s@%v",
						tr, spans[j].Name, spans[j].Start, spans[j-1].Name, spans[j-1].Start)
				}
			}
		}
		if failoverTrace == "" {
			t.Fatal("no traced submit failed over across replicas (round robin never hit the victim first)")
		}
		if err := m.KillReplica("CLUSTER", failoverVictim); err != nil {
			t.Fatalf("KillReplica: %v", err)
		}

		// The health check has tripped the victim's breaker: no new
		// admission may reach it, and reads of its jobs fail fast
		// instead of consulting the frozen corpse.
		set, _ := d.Sites["POOL"].Pool.Set("CLUSTER")
		if h := set.Healthy(); len(h) != 2 {
			t.Fatalf("healthy after kill = %v, want 2 replicas", h)
		}
		for i := 0; i < 6; i++ {
			if _, err := sess.Submit(context.Background(), probeJob(t, fmt.Sprintf("probe-%02d", i))); err != nil {
				t.Fatalf("Submit(probe-%02d) during outage: %v", i, err)
			}
		}
		ownedDuring, err := victim.List(user.DN())
		if err != nil {
			t.Fatalf("List on dead victim: %v", err)
		}
		if len(ownedDuring) != len(ownedBefore) {
			t.Fatalf("dead replica admitted %d jobs after its health check tripped",
				len(ownedDuring)-len(ownedBefore))
		}
		if len(ownedBefore) > 0 {
			_, err := sess.Status(context.Background(), ownedBefore[0].Job)
			if err == nil || !strings.Contains(err.Error(), pool.ErrReplicaDown.Error()) {
				t.Fatalf("Status of a job on the dead replica: err = %v, want ErrReplicaDown", err)
			}
		}

		// Mid-outage the watcher keeps consuming the healthy replicas'
		// streams; jobs behind the tripped breaker fail fast and resume at
		// their cursors after the restart.
		watcher.drain(t, true)

		// The controller recovers the victim from its journal and swaps it
		// back in under its stable pool name.
		healReplica(t, m)
	}

	if fired := d.Run(10_000_000); fired >= 10_000_000 {
		t.Fatal("clock never went idle")
	}

	// Event-stream continuity: resuming every cursor now must close each
	// stream with exactly one terminal event and no gaps or duplicates.
	watcher.drain(t, false)
	watcher.verify(t)

	// Zero duplicated jobs: the merged pool listing reports every workload
	// job exactly once across the three replicas.
	listed, err := d.Sites["POOL"].Pool.List(user.DN())
	if err != nil {
		t.Fatalf("pool List: %v", err)
	}
	seen := make(map[string]int)
	for _, ji := range listed {
		seen[ji.Name]++
	}
	for name := range ids {
		if seen[name] != 1 {
			t.Fatalf("job %s listed %d times across the pool, want exactly 1", name, seen[name])
		}
	}

	out := make(map[string]string, len(ids))
	for name, id := range ids {
		o, err := sess.Outcome(context.Background(), id)
		if err != nil {
			t.Fatalf("Outcome(%s): %v", name, err)
		}
		if !o.Status.Terminal() {
			t.Fatalf("job %s (%s) never finished: %s", name, id, o.Status)
		}
		out[name] = canonicalOutcome(o)
	}
	return out
}

// TestReplicaFailoverMidWorkload is the acceptance test for the replica
// pool: with 3 replicas serving one Vsite, killing one mid-workload (health
// check trips, traffic fails over, the controller heals the victim from its
// journal) yields
// outcomes identical to an uninterrupted run, with zero duplicated jobs and
// no request routed to the dead replica while its breaker is open.
func TestReplicaFailoverMidWorkload(t *testing.T) {
	base := runFailoverWorkload(t, false)
	failed := runFailoverWorkload(t, true)
	if len(base) != len(failed) {
		t.Fatalf("job counts differ: %d vs %d", len(base), len(failed))
	}
	for name, want := range base {
		got, ok := failed[name]
		if !ok {
			t.Fatalf("job %s missing from failover run", name)
		}
		if got != want {
			t.Errorf("job %s diverged across replica failover:\n--- uninterrupted ---\n%s--- failover ---\n%s", name, want, got)
		}
	}
	for _, s := range base {
		if strings.Contains(s, "FAILED") || strings.Contains(s, "NOT_DONE") {
			t.Fatalf("baseline workload has failures:\n%s", s)
		}
	}
}

// TestConsignFailoverAcrossRealReplicas drives the pool's consign failover
// against real NJS replicas: the first-choice replica is killed between two
// submissions, and the next submission lands on a healthy replica without
// the client seeing an error.
func TestConsignFailoverAcrossRealReplicas(t *testing.T) {
	d, m := newFailoverSite(t)
	user, err := d.NewUser("Failover User", "Test", "failover")
	if err != nil {
		t.Fatalf("NewUser: %v", err)
	}
	sess := d.Session(user, "POOL")
	// Kill all but one replica: wherever the round-robin walk starts, the
	// submission must still succeed on the survivor.
	survivor := replicaNJS(t, m, "r2")
	for _, tag := range []string{"r0", "r1"} {
		if err := m.KillReplica("CLUSTER", tag); err != nil {
			t.Fatalf("KillReplica(%s): %v", tag, err)
		}
	}
	id, err := sess.Submit(context.Background(), probeJob(t, "solo"))
	if err != nil {
		t.Fatalf("Submit with 2 of 3 replicas dead: %v", err)
	}
	if jobs, _ := survivor.List(user.DN()); len(jobs) != 1 || jobs[0].Job != id {
		t.Fatalf("survivor does not own the failed-over job %s", id)
	}
	// Kill the survivor too: a fresh consign now fails cleanly.
	if err := m.KillReplica("CLUSTER", "r2"); err != nil {
		t.Fatalf("KillReplica(r2): %v", err)
	}
	if _, err := sess.Submit(context.Background(), probeJob(t, "solo2")); err == nil || !strings.Contains(err.Error(), pool.ErrNoReplica.Error()) {
		t.Fatalf("Submit on fully drained pool: err = %v, want ErrNoReplica", err)
	}
}
