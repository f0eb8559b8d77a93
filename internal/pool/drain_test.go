package pool

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"unicore/internal/core"
	"unicore/internal/njs"
	"unicore/internal/protocol"
	"unicore/internal/staging"
)

// TestDrainStopsNewWorkKeepsOwnedWork: a drained replica takes no new
// consigns or staged-upload opens, but everything it already owns — jobs,
// held uploads — stays reachable through the pool by name.
func TestDrainStopsNewWorkKeepsOwnedWork(t *testing.T) {
	set, _, fakes := newTestSet(t, RoundRobin)
	router := routerOver(t, set)
	r1 := Instance("CLUSTER", "r1")
	// Land a job and an upload on r1 so it owns something before draining.
	var owned core.JobID
	for i := 0; owned == "" && i < 6; i++ {
		id, err := set.Consign(context.Background(), "CN=A", fmt.Sprintf("pre-%d", i), testJob("CLUSTER"))
		if err != nil {
			t.Fatalf("Consign(pre-%d): %v", i, err)
		}
		if njs.JobInstance("FZJ", id) == r1 {
			owned = id
		}
	}
	if owned == "" {
		t.Fatal("round robin never landed a job on r1")
	}
	// Fresh callers dodge the last-open preference so round robin walks the
	// set; one open lands on r1 within a lap's worth of callers.
	var handle string
	var stager core.DN
	for i := 0; handle == "" && i < 9; i++ {
		caller := core.DN(fmt.Sprintf("CN=B%d", i))
		reply, err := set.StageOpen(caller, false, protocol.PutOpenRequest{Vsite: "CLUSTER", Name: "in.dat"})
		if err != nil {
			t.Fatalf("StageOpen: %v", err)
		}
		if staging.HandleTag(reply.Handle) == r1 {
			handle, stager = reply.Handle, caller
		}
	}
	if handle == "" {
		t.Fatal("no staged upload landed on r1")
	}

	if err := set.Drain("r1"); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if !set.Draining("r1") {
		t.Fatal("Draining(r1) = false after Drain")
	}
	if h := set.Healthy(); len(h) != 2 {
		t.Fatalf("Healthy() = %v, want the two undrained replicas", h)
	}

	// New work avoids r1 across a full lap of every policy's pick loop.
	before := fakes[1].jobCount()
	for i := 0; i < 9; i++ {
		if _, err := set.Consign(context.Background(), "CN=A", fmt.Sprintf("during-%d", i), testJob("CLUSTER")); err != nil {
			t.Fatalf("Consign(during-%d): %v", i, err)
		}
		if reply, err := set.StageOpen(stager, false, protocol.PutOpenRequest{Vsite: "CLUSTER", Name: "more.dat"}); err != nil {
			t.Fatalf("StageOpen during drain: %v", err)
		} else if staging.HandleTag(reply.Handle) == r1 {
			t.Fatal("drained replica took a new staged-upload open (last-open preference not revoked)")
		}
	}
	if got := fakes[1].jobCount(); got != before {
		t.Fatalf("drained replica admitted %d new jobs", got-before)
	}

	// Owned work still routes to r1: a poll of its job, chunks of its upload.
	if reply, err := router.Poll("CN=A", false, owned); err != nil || !reply.Found {
		t.Fatalf("Poll of drained replica's job: found=%v err=%v", reply.Found, err)
	}
	if _, err := router.StageChunk(stager, false, protocol.PutChunkRequest{Handle: handle, Index: 0, Data: []byte("x")}); err != nil {
		t.Fatalf("StageChunk to drained replica: %v", err)
	}

	st, err := set.DrainStatus("r1")
	if err != nil {
		t.Fatalf("DrainStatus: %v", err)
	}
	if !st.Draining || st.Inflight != 0 || st.StagePins == 0 {
		t.Fatalf("DrainStatus = %+v, want settled-but-owning", st)
	}

	// Undrain returns it to rotation.
	if err := set.Undrain("r1"); err != nil {
		t.Fatalf("Undrain: %v", err)
	}
	if h := set.Healthy(); len(h) != 3 {
		t.Fatalf("Healthy() after undrain = %v, want 3", h)
	}
	before = fakes[1].jobCount()
	for i := 0; i < 3; i++ {
		if _, err := set.Consign(context.Background(), "CN=A", fmt.Sprintf("after-%d", i), testJob("CLUSTER")); err != nil {
			t.Fatalf("Consign(after-%d): %v", i, err)
		}
	}
	if fakes[1].jobCount() == before {
		t.Fatal("undrained replica took no work across a full lap")
	}
}

// TestRemoveRetiresReplica: a removed replica leaves routing entirely (its
// job IDs name no replica of the pool), and — the duplicate-prevention half
// of the contract — an acked consign ID it served still converges on the
// recorded job.
func TestRemoveRetiresReplica(t *testing.T) {
	set, _, fakes := newTestSet(t, RoundRobin)
	var acked core.JobID
	var ackedCID string
	consigned := 0
	for i := 0; acked == "" && i < 6; i++ {
		cid := fmt.Sprintf("rm-%d", i)
		id, err := set.Consign(context.Background(), "CN=A", cid, testJob("CLUSTER"))
		if err != nil {
			t.Fatalf("Consign: %v", err)
		}
		consigned++
		if njs.JobInstance("FZJ", id) == Instance("CLUSTER", "r2") {
			acked, ackedCID = id, cid
		}
	}
	if acked == "" {
		t.Fatal("no consign landed on r2")
	}

	if err := set.Remove("r2"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if err := set.Remove("r2"); !errors.Is(err, ErrUnknownReplica) {
		t.Fatalf("second Remove err = %v, want ErrUnknownReplica", err)
	}
	if got := len(set.Names()); got != 2 {
		t.Fatalf("Names() has %d entries after Remove, want 2", got)
	}
	if reply, err := routerOver(t, set).Poll("CN=A", false, acked); reply.Found || err != nil {
		t.Fatalf("Poll of a removed replica's job: found=%v err=%v, want a clean not-found", reply.Found, err)
	}
	// The ack index survives retirement: a client retry of the consign the
	// retired replica acked converges instead of duplicating the job.
	id, err := set.Consign(context.Background(), "CN=A", ackedCID, testJob("CLUSTER"))
	if err != nil {
		t.Fatalf("retry of retired ack: %v", err)
	}
	if id != acked {
		t.Fatalf("retry re-admitted as %s, want convergence on %s", id, acked)
	}
	// And no replica admitted a duplicate: total admissions still equal
	// the unique consign IDs issued.
	total := 0
	for _, f := range fakes {
		total += f.jobCount()
	}
	if total != consigned {
		t.Fatalf("pool holds %d jobs for %d unique consigns", total, consigned)
	}

	// New work spreads over the survivors only.
	retiredJobs := fakes[2].jobCount()
	for i := 0; i < 4; i++ {
		if _, err := set.Consign(context.Background(), "CN=A", fmt.Sprintf("post-rm-%d", i), testJob("CLUSTER")); err != nil {
			t.Fatalf("Consign after Remove: %v", err)
		}
	}
	if got := fakes[2].jobCount(); got != retiredJobs {
		t.Fatalf("removed replica admitted %d new jobs", got-retiredJobs)
	}
}

// TestParseReplicaTag round-trips the conventional replica namespace.
func TestParseReplicaTag(t *testing.T) {
	for i := 0; i < 5; i++ {
		got, ok := ParseReplicaTag(ReplicaTag(i))
		if !ok || got != i {
			t.Fatalf("ParseReplicaTag(ReplicaTag(%d)) = %d, %v", i, got, ok)
		}
	}
	for _, bad := range []string{"", "r", "x3", "r-1", "rX", "3"} {
		if _, ok := ParseReplicaTag(bad); ok {
			t.Fatalf("ParseReplicaTag(%q) accepted", bad)
		}
	}
}

// TestDrainUnknownReplica: the drain surface rejects unknown names.
func TestDrainUnknownReplica(t *testing.T) {
	set, _, _ := newTestSet(t, RoundRobin)
	if err := set.Drain("ghost"); !errors.Is(err, ErrUnknownReplica) {
		t.Fatalf("Drain(ghost) = %v", err)
	}
	if err := set.Undrain("ghost"); !errors.Is(err, ErrUnknownReplica) {
		t.Fatalf("Undrain(ghost) = %v", err)
	}
	if _, err := set.DrainStatus("ghost"); !errors.Is(err, ErrUnknownReplica) {
		t.Fatalf("DrainStatus(ghost) = %v", err)
	}
}

// TestDrainedSetReportsNoHealthyReplica: the load report counts what
// Healthy lists, so a Vsite whose replicas are all draining (a one-replica
// Vsite mid-roll) reads as drained to the §6 broker instead of drawing
// consigns that can only fail with ErrNoReplica.
func TestDrainedSetReportsNoHealthyReplica(t *testing.T) {
	set, _, _ := newTestSet(t, RoundRobin)
	for _, name := range set.Names() {
		if err := set.Drain(name); err != nil {
			t.Fatalf("Drain(%s): %v", name, err)
		}
	}
	if got := routerOver(t, set).VsiteLoads()["CLUSTER"]; got.Healthy != len(set.Healthy()) || got.Healthy != 0 || got.Replicas != 3 {
		t.Fatalf("VsiteLoads[CLUSTER] with every replica draining = %+v, want 0 healthy of 3", got)
	}
	if _, err := set.Consign(context.Background(), "CN=A", "drained", testJob("CLUSTER")); !errors.Is(err, ErrNoReplica) {
		t.Fatalf("Consign on a drained set: err = %v, want ErrNoReplica", err)
	}
}
