package pool

import (
	"context"
	"errors"
	"strings"
	"testing"

	"unicore/internal/ajo"
	"unicore/internal/core"
	"unicore/internal/protocol"
	"unicore/internal/staging"
)

// stagedJob builds an AJO whose single ImportTask references a staged handle.
func stagedJob(vsite core.Vsite, handle string) *ajo.AbstractJob {
	return &ajo.AbstractJob{
		Target: core.Target{Usite: "FZJ", Vsite: vsite},
		Actions: ajo.ActionList{&ajo.ImportTask{
			Header: ajo.Header{ActionID: "imp"},
			Source: ajo.ImportSource{Staged: handle},
			To:     "in.dat",
		}},
	}
}

func TestStageCallsFollowTheHandlePin(t *testing.T) {
	set, _, fakes := newTestSet(t)
	router := routerOver(t, set)
	open, err := set.StageOpen("CN=u", false, protocol.PutOpenRequest{Vsite: "CLUSTER", ChunkSize: 8, Window: 2})
	if err != nil {
		t.Fatalf("StageOpen: %v", err)
	}
	// Every chunk and the commit must land on the replica the handle names,
	// which holds the spool entry, regardless of the round-robin cursor.
	for i := int64(0); i < 4; i++ {
		if _, err := router.StageChunk("CN=u", false, protocol.PutChunkRequest{Handle: open.Handle, Index: i}); err != nil {
			t.Fatalf("StageChunk(%d): %v", i, err)
		}
	}
	commit, err := router.StageCommit("CN=u", false, protocol.PutCommitRequest{Handle: open.Handle})
	if err != nil {
		t.Fatalf("StageCommit: %v", err)
	}
	if commit.Chunks != 4 {
		t.Fatalf("commit saw %d chunks, want 4 (calls routed off the handle's replica?)", commit.Chunks)
	}
	holders := 0
	for _, f := range fakes {
		f.mu.Lock()
		if _, ok := f.stages[open.Handle]; ok {
			holders++
		}
		f.mu.Unlock()
	}
	if holders != 1 {
		t.Fatalf("%d replicas hold handle %s, want exactly 1", holders, open.Handle)
	}
}

func TestStageOpenFailsOverToHealthyReplica(t *testing.T) {
	set, _, fakes := newTestSet(t)
	fakes[0].setDown(true)
	fakes[1].setDown(true)
	open, err := set.StageOpen("CN=u", false, protocol.PutOpenRequest{Vsite: "CLUSTER"})
	if err != nil {
		t.Fatalf("StageOpen with 2 of 3 replicas dead: %v", err)
	}
	if staging.HandleTag(open.Handle) != "FZJ-"+Instance("CLUSTER", "r2") {
		t.Fatalf("handle %s not minted by the sole healthy replica", open.Handle)
	}
	fakes[2].setDown(true)
	if _, err := set.StageOpen("CN=u", false, protocol.PutOpenRequest{Vsite: "CLUSTER"}); !errors.Is(err, ErrNoReplica) {
		t.Fatalf("StageOpen on drained pool: err = %v, want ErrNoReplica", err)
	}
}

func TestStagedConsignPinsToHoldingReplica(t *testing.T) {
	// Round-robin would spread admissions; the staged handle must override it.
	set, _, fakes := newTestSet(t)
	open, err := set.StageOpen("CN=u", false, protocol.PutOpenRequest{Vsite: "CLUSTER"})
	if err != nil {
		t.Fatalf("StageOpen: %v", err)
	}
	holder := -1
	for i, f := range fakes {
		f.mu.Lock()
		if _, ok := f.stages[open.Handle]; ok {
			holder = i
		}
		f.mu.Unlock()
	}
	if holder < 0 {
		t.Fatal("no replica holds the opened handle")
	}
	for i := 0; i < 3; i++ {
		if _, err := set.Consign(context.Background(), "CN=u", "", stagedJob("CLUSTER", open.Handle)); err != nil {
			t.Fatalf("Consign(%d): %v", i, err)
		}
	}
	if got := fakes[holder].jobCount(); got != 3 {
		t.Fatalf("holding replica admitted %d of 3 staged jobs", got)
	}

	// With the holder down, the consign must fail with ErrReplicaDown — not
	// fail over to a replica that cannot satisfy the import.
	fakes[holder].setDown(true)
	set.CheckNow()
	if _, err := set.Consign(context.Background(), "CN=u", "retry", stagedJob("CLUSTER", open.Handle)); !errors.Is(err, ErrReplicaDown) {
		t.Fatalf("staged consign with holder down: err = %v, want ErrReplicaDown", err)
	}
}

func TestStageOpenPrefersCallersPreviousReplica(t *testing.T) {
	// Round-robin would spread sequential opens across replicas; one user's
	// uploads must land together, because a job referencing them all can
	// only be admitted where ALL the bytes are.
	set, _, fakes := newTestSet(t)
	first, err := set.StageOpen("CN=u", false, protocol.PutOpenRequest{Vsite: "CLUSTER"})
	if err != nil {
		t.Fatalf("StageOpen: %v", err)
	}
	for i := 0; i < 3; i++ {
		next, err := set.StageOpen("CN=u", false, protocol.PutOpenRequest{Vsite: "CLUSTER"})
		if err != nil {
			t.Fatalf("StageOpen(%d): %v", i, err)
		}
		if a, b := staging.HandleTag(first.Handle), staging.HandleTag(next.Handle); a != b {
			t.Fatalf("open %d landed on %s, first on %s — one user's uploads split across replicas", i, b, a)
		}
	}
	holders := 0
	for _, f := range fakes {
		if len(f.StagedHandles()) > 0 {
			holders++
		}
	}
	if holders != 1 {
		t.Fatalf("%d replicas hold this user's uploads, want 1", holders)
	}
}

func TestStagedConsignAcrossReplicasIsRefused(t *testing.T) {
	set, _, _ := newTestSet(t)
	a, err := set.StageOpen("CN=u", false, protocol.PutOpenRequest{Vsite: "CLUSTER"})
	if err != nil {
		t.Fatalf("StageOpen: %v", err)
	}
	b, err := set.StageOpen("CN=other", false, protocol.PutOpenRequest{Vsite: "CLUSTER"})
	if err != nil {
		t.Fatalf("StageOpen: %v", err)
	}
	if staging.HandleTag(a.Handle) == staging.HandleTag(b.Handle) {
		t.Skip("round-robin placed both opens on one replica")
	}
	job := stagedJob("CLUSTER", a.Handle)
	job.Actions = append(job.Actions, &ajo.ImportTask{
		Header: ajo.Header{ActionID: "imp2"},
		Source: ajo.ImportSource{Staged: b.Handle},
		To:     "other.dat",
	})
	if _, err := set.Consign(context.Background(), "CN=u", "", job); err == nil || !strings.Contains(err.Error(), "different replicas") {
		t.Fatalf("consign with uploads on two replicas: err = %v, want a loud refusal", err)
	}
}

func TestRebuiltPoolRoutesStagedWorkByHandle(t *testing.T) {
	// A pool rebuilt from scratch (gateway restart) knows nothing of the
	// upload, yet routes a chunk and a staged consign to the replica that
	// minted the handle, with no reconcile and no search.
	set, clock, fakes := newTestSet(t)
	open, err := set.StageOpen("CN=u", false, protocol.PutOpenRequest{Vsite: "CLUSTER"})
	if err != nil {
		t.Fatalf("StageOpen: %v", err)
	}
	rebuilt, err := New(Config{Vsite: "CLUSTER", Clock: clock})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i, f := range fakes {
		if err := rebuilt.Add(ReplicaTag(i), f); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	if _, err := routerOver(t, rebuilt).StageChunk("CN=u", false, protocol.PutChunkRequest{Handle: open.Handle, Index: 0}); err != nil {
		t.Fatalf("StageChunk on rebuilt pool: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := rebuilt.Consign(context.Background(), "CN=u", "", stagedJob("CLUSTER", open.Handle)); err != nil {
			t.Fatalf("staged consign on rebuilt pool: %v", err)
		}
	}
	for i, f := range fakes {
		want := 0
		if staging.HandleTag(open.Handle) == "FZJ-"+Instance("CLUSTER", ReplicaTag(i)) {
			want = 3
		}
		if got := f.jobCount(); got != want {
			t.Fatalf("replica r%d admitted %d staged jobs, want %d", i, got, want)
		}
	}
}

func TestUnknownHandleIsErrUnknownHandle(t *testing.T) {
	set, _, _ := newTestSet(t)
	router := routerOver(t, set)
	// No such name in the pool, no name at all, and a name whose replica
	// never minted the handle: each is the same clean refusal.
	for _, h := range []string{"stg-FZJ-CLUSTER.r9-00000001", "stg-nowhere", "stg-FZJ-CLUSTER.r1-99999999"} {
		if _, err := router.StageChunk("CN=u", false, protocol.PutChunkRequest{Handle: h, Index: 0}); !errors.Is(err, staging.ErrUnknownHandle) {
			t.Fatalf("StageChunk(%s): err = %v, want ErrUnknownHandle", h, err)
		}
		if _, err := router.StageCommit("CN=u", false, protocol.PutCommitRequest{Handle: h}); !errors.Is(err, staging.ErrUnknownHandle) {
			t.Fatalf("StageCommit(%s): err = %v, want ErrUnknownHandle", h, err)
		}
	}
}
