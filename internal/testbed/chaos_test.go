package testbed_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
	"unicore/internal/testbed"

	"unicore/internal/core"
	"unicore/internal/deploy"
	"unicore/internal/protocol"
	"unicore/internal/staging"
)

// chaosCycles is how many kill/heal cycles the soak runs — the acceptance
// floor is 30; CI runs the same count (see the chaos-soak job).
const chaosCycles = 32

// chaosSpec declares the soak topology: one durable 3-replica pool. No
// autoscale block — the count is pinned, so every convergence check below
// is exact.
func chaosSpec() *deploy.TopologySpec {
	return &deploy.TopologySpec{
		Version: deploy.TopologyVersion,
		Sites: []deploy.TopologySite{{
			Usite: "POOL",
			Vsites: []deploy.TopologyVsite{{
				Name:          "CLUSTER",
				Machine:       "cluster",
				Processors:    16,
				Replicas:      3,
				Policy:        "round-robin",
				SnapshotEvery: 64,
			}},
		}},
	}
}

// TestChaosSoakUnderLoad is the acceptance soak for the topology
// controller: a controller-managed durable 3-replica site runs a sustained
// submit/await/stage workload while a chaos sequence kills a random
// replica every few virtual seconds for chaosCycles cycles. After every
// kill the controller must restore the declared replica count by healing
// the victim from its journal; at the end, no acked job may be lost or
// duplicated, every event stream must be contiguous, and the controller's
// reconcile/heal metrics must be visible through the gateway scrape.
func TestChaosSoakUnderLoad(t *testing.T) {
	d, m, err := testbed.NewManaged(chaosSpec(), "POOL", t.TempDir())
	if err != nil {
		t.Fatalf("NewManaged: %v", err)
	}
	defer d.Close()
	user, err := d.NewUser("Chaos User", "Test", "chaos")
	if err != nil {
		t.Fatalf("NewUser: %v", err)
	}
	sess := d.Session(user, "POOL")
	set, ok := d.Sites["POOL"].Pool.Set("CLUSTER")
	if !ok {
		t.Fatal("managed site has no CLUSTER pool")
	}
	if h := set.Healthy(); len(h) != 3 {
		t.Fatalf("boot healthy = %v, want the declared 3 replicas", h)
	}

	rng := rand.New(rand.NewSource(0x5eed))
	ids := make(map[string]core.JobID)
	watcher := newEventWatcher(sess, ids)
	ctx := context.Background()

	for cycle := 0; cycle < chaosCycles; cycle++ {
		// Sustained load: two fresh submissions and one staged upload per
		// cycle, all through the pool gateway. Once acked, they must
		// survive every later kill.
		for k := 0; k < 2; k++ {
			name := fmt.Sprintf("soak-%02d-%d", cycle, k)
			id, err := sess.Submit(ctx, probeJob(t, name))
			if err != nil {
				t.Fatalf("cycle %d: Submit(%s): %v", cycle, name, err)
			}
			ids[name] = id
		}
		payload := []byte(fmt.Sprintf("chaos payload %02d", cycle))
		if _, err := sess.Upload(ctx, "CLUSTER", fmt.Sprintf("up-%02d.dat", cycle), bytes.NewReader(payload)); err != nil {
			t.Fatalf("cycle %d: Upload: %v", cycle, err)
		}

		// A few virtual seconds of progress, then the chaos strike: kill a
		// random healthy replica (journal synced — the crash loses nothing
		// that was acked).
		d.Clock.Advance(3 * time.Second)
		healthy := set.Healthy()
		if len(healthy) == 0 {
			t.Fatalf("cycle %d: pool has no healthy replica before the kill", cycle)
		}
		victim := healthy[rng.Intn(len(healthy))]
		if err := m.KillReplica("CLUSTER", victim); err != nil {
			t.Fatalf("cycle %d: KillReplica(%s): %v", cycle, victim, err)
		}

		// One reconcile pass must heal the victim and restore the declared
		// replica count — every cycle.
		res, err := m.Reconcile()
		if err != nil {
			t.Fatalf("cycle %d: Reconcile: %v", cycle, err)
		}
		if res.Healed != 1 {
			t.Fatalf("cycle %d: reconcile = %+v, want exactly one heal of %s", cycle, res, victim)
		}
		if h := set.Healthy(); len(h) != 3 {
			t.Fatalf("cycle %d: healthy after heal = %v, want the declared 3", cycle, h)
		}
		d.Clock.Advance(2 * time.Second)
		watcher.drain(t, true)
	}

	// Let the surviving workload run dry, then audit the whole soak.
	if fired := d.Run(50_000_000); fired >= 50_000_000 {
		t.Fatal("clock never went idle after the soak")
	}
	watcher.drain(t, false)
	watcher.verify(t)

	// Zero lost or duplicated acked jobs: the merged pool listing holds
	// every submission exactly once, and each reached a terminal state.
	listed, err := d.Sites["POOL"].Pool.List(user.DN())
	if err != nil {
		t.Fatalf("pool List: %v", err)
	}
	seen := make(map[string]int)
	for _, ji := range listed {
		seen[ji.Name]++
	}
	for name, id := range ids {
		if seen[name] != 1 {
			t.Fatalf("job %s listed %d times across the pool, want exactly 1", name, seen[name])
		}
		sum, err := sess.Status(ctx, id)
		if err != nil {
			t.Fatalf("Status(%s): %v", name, err)
		}
		if !sum.Status.Terminal() {
			t.Fatalf("job %s (%s) never finished: %s", name, id, sum.Status)
		}
	}

	// Controller metrics ride the same scrape as the serving tiers.
	snaps, err := d.Metrics("POOL")
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	var heals, reconciles float64
	for _, snap := range snaps {
		if snap.Origin == "controller/POOL" {
			heals = snap.Total("controller_heal_total")
			reconciles = snap.Total("controller_reconcile_total")
		}
	}
	if heals < chaosCycles {
		t.Fatalf("controller_heal_total = %v through the gateway scrape, want >= %d", heals, chaosCycles)
	}
	if reconciles < chaosCycles {
		t.Fatalf("controller_reconcile_total = %v, want >= %d", reconciles, chaosCycles)
	}
}

// TestDrainBeforeKillLosesNothing rolls a replica fleet that is holding
// live state: jobs admitted everywhere and a held (uncommitted) staged
// upload. The generation bump must replace every replica drain-first, with
// no duplicate or aborted jobs, and the upload re-homed onto the
// journal-recovered instance so the client can finish it afterwards.
func TestDrainBeforeKillLosesNothing(t *testing.T) {
	spec := chaosSpec()
	d, m, err := testbed.NewManaged(spec, "POOL", t.TempDir())
	if err != nil {
		t.Fatalf("NewManaged: %v", err)
	}
	defer d.Close()
	user, err := d.NewUser("Drain User", "Test", "drain")
	if err != nil {
		t.Fatalf("NewUser: %v", err)
	}
	sess := d.Session(user, "POOL")
	set, _ := d.Sites["POOL"].Pool.Set("CLUSTER")
	ctx := context.Background()

	// Load every replica with admitted jobs; remember one consign the pool
	// acked so we can prove retries converge across the roll.
	ids := make(map[string]core.JobID)
	for i := 0; i < 9; i++ {
		name := fmt.Sprintf("roll-%02d", i)
		id, err := sess.Submit(ctx, probeJob(t, name))
		if err != nil {
			t.Fatalf("Submit(%s): %v", name, err)
		}
		ids[name] = id
	}
	const retryCID = "drain-retry-cid"
	ackedID, err := d.Sites["POOL"].Pool.Consign(ctx, user.DN(), retryCID, probeJob(t, "roll-retry"))
	if err != nil {
		t.Fatalf("Consign(%s): %v", retryCID, err)
	}

	// Open a staged upload and leave it uncommitted — a held spool handle
	// the roll must carry across the replacement of its owning replica.
	open, err := sess.PutOpen(ctx, protocol.PutOpenRequest{Vsite: "CLUSTER", Name: "pinned.dat", ChunkSize: 16})
	if err != nil {
		t.Fatalf("PutOpen: %v", err)
	}
	chunk := []byte("0123456789abcdef") // one full 16-byte chunk
	if _, err := sess.PutChunk(ctx, protocol.PutChunkRequest{
		Handle: open.Handle, Index: 0, Data: chunk, CRC: staging.Checksum(chunk),
	}); err != nil {
		t.Fatalf("PutChunk: %v", err)
	}
	// The handle names the replica that holds it.
	pinOwner := staging.HandleTag(open.Handle)
	if !spoolHolds(m, pinOwner, open.Handle) {
		t.Fatalf("replica %q does not hold the upload its handle %s names", pinOwner, open.Handle)
	}

	d.Clock.Advance(2 * time.Second)

	// Declare generation 1 and converge: one drain-settle-retire-recover
	// cycle per replica, at most one replica out of rotation at a time.
	spec.Sites[0].Vsites[0].Generation = 1
	if _, err := d.ApplySpec(spec, "POOL", ""); err != nil {
		t.Fatalf("ApplySpec(gen 1): %v", err)
	}
	rolled := 1 // ApplySpec reconciles once
	for i := 0; i < 8; i++ {
		res, err := m.Reconcile()
		if err != nil {
			t.Fatalf("roll pass %d: %v", i, err)
		}
		rolled += res.Rolled
		if h := set.Healthy(); len(h) < 2 {
			t.Fatalf("roll pass %d: %d replicas in rotation — drained more than one at a time", i, len(h))
		}
		if res.Converged {
			break
		}
	}
	if rolled != 3 {
		t.Fatalf("roll replaced %d replicas, want all 3", rolled)
	}

	// The pinned upload survived its owner's replacement: same handle, held
	// by the recovered instance it names, and the client can finish the
	// transfer.
	if !spoolHolds(m, pinOwner, open.Handle) {
		t.Fatalf("after the roll replica %q does not hold %s, want it re-homed onto the recovered instance", pinOwner, open.Handle)
	}
	rest := []byte(" and the rest")
	if _, err := sess.PutChunk(ctx, protocol.PutChunkRequest{
		Handle: open.Handle, Index: 1, Data: rest, CRC: staging.Checksum(rest),
	}); err != nil {
		t.Fatalf("PutChunk after roll: %v", err)
	}
	whole := append(append([]byte(nil), chunk...), rest...)
	if _, err := sess.PutCommit(ctx, protocol.PutCommitRequest{
		Handle: open.Handle, CRC: staging.Checksum(whole),
	}); err != nil {
		t.Fatalf("PutCommit after roll: %v", err)
	}

	// Idempotent retries still converge: re-consigning the acked ID on the
	// rolled fleet returns the recorded job instead of duplicating it.
	retryID, err := d.Sites["POOL"].Pool.Consign(ctx, user.DN(), retryCID, probeJob(t, "roll-retry"))
	if err != nil {
		t.Fatalf("retry Consign(%s): %v", retryCID, err)
	}
	if retryID != ackedID {
		t.Fatalf("retry re-admitted as %s, want convergence on %s", retryID, ackedID)
	}

	// No aborted or duplicated jobs: everything runs to a terminal state
	// and lists exactly once.
	if fired := d.Run(20_000_000); fired >= 20_000_000 {
		t.Fatal("clock never went idle after the roll")
	}
	ids["roll-retry"] = ackedID
	listed, err := d.Sites["POOL"].Pool.List(user.DN())
	if err != nil {
		t.Fatalf("pool List: %v", err)
	}
	seen := make(map[string]int)
	for _, ji := range listed {
		seen[ji.Name]++
	}
	for name, id := range ids {
		if seen[name] != 1 {
			t.Fatalf("job %s listed %d times after the roll, want exactly 1", name, seen[name])
		}
		sum, err := sess.Status(ctx, id)
		if err != nil {
			t.Fatalf("Status(%s): %v", name, err)
		}
		if !sum.Status.Terminal() {
			t.Fatalf("job %s aborted or stalled across the roll: %s", name, sum.Status)
		}
	}

	// Drain telemetry: three observed drains, three rolls.
	snap := m.Controller.Telemetry().Snapshot()
	if got := snap.Total("controller_roll_total"); got != 3 {
		t.Fatalf("controller_roll_total = %v, want 3", got)
	}
	if got := snap.HistCount("controller_drain_seconds"); got != 3 {
		t.Fatalf("controller_drain_seconds count = %v, want 3", got)
	}
}

// TestManagedSiteSurfacesRetireAndCloseFailures loses replicas' journal
// directories out from under a live managed site — the volume went away — so
// the snapshot that retiring a replica or closing the site owes the next
// recovery cannot be written. The site must say so: a roll that retires the
// replica reports the failure from the reconcile pass that hit it, and Close
// reports every replica it could not shut down cleanly, not just the first.
func TestManagedSiteSurfacesRetireAndCloseFailures(t *testing.T) {
	root := t.TempDir()
	spec := chaosSpec()
	d, m, err := testbed.NewManaged(spec, "POOL", root)
	if err != nil {
		t.Fatalf("NewManaged: %v", err)
	}
	defer d.Close()
	lose := func(tag string) string {
		dir := filepath.Join(root, "POOL", "CLUSTER", tag)
		if err := os.RemoveAll(dir); err != nil {
			t.Fatalf("removing %s: %v", dir, err)
		}
		return dir
	}

	// The generation bump rolls r0 first: drain, retire (snapshot fails),
	// recover, rejoin — all inside the pass ApplySpec runs.
	r0 := lose("r0")
	spec.Sites[0].Vsites[0].Generation = 1
	_, err = d.ApplySpec(spec, "POOL", "")
	if err == nil || !strings.Contains(err.Error(), "retiring CLUSTER/r0") || !strings.Contains(err.Error(), r0) {
		t.Fatalf("ApplySpec after losing %s = %v, want the failed retire of CLUSTER/r0", r0, err)
	}
	// The roll itself went on: r0 is back (empty — its journal is gone).
	set, _ := d.Sites["POOL"].Pool.Set("CLUSTER")
	if h := set.Healthy(); len(h) != 3 {
		t.Fatalf("healthy after the failed retire = %v, want all 3 serving", h)
	}

	r1, r2 := lose("r1"), lose("r2")
	err = m.Close()
	if err == nil || !strings.Contains(err.Error(), r1) || !strings.Contains(err.Error(), r2) {
		t.Fatalf("Close after losing %s and %s = %v, want both failures", r1, r2, err)
	}
}
