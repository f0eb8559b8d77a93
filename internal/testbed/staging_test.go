package testbed_test

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"
	"unicore/internal/testbed"

	"unicore/internal/ajo"
	"unicore/internal/client"
	"unicore/internal/core"
	"unicore/internal/njs"
	"unicore/internal/pool"
	"unicore/internal/protocol"
	"unicore/internal/resources"
	"unicore/internal/staging"
)

// stagedPayload returns n deterministic, position-dependent bytes — any
// reordering, loss, or duplication of a chunk changes the checksum.
func stagedPayload(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(i*31 + i/509)
	}
	return out
}

// killHealReplica crashes one replica right after an fsync and has the
// controller swap in a journal-recovered replacement, exactly as the failover
// workload test does.
func killHealReplica(t *testing.T, m *testbed.ManagedSite, tag string) {
	t.Helper()
	if err := m.KillReplica("CLUSTER", tag); err != nil {
		t.Fatalf("KillReplica(%s): %v", tag, err)
	}
	healReplica(t, m)
}

// spoolHolds reports whether the live replica named inst holds a transfer
// handle in its spool.
func spoolHolds(m *testbed.ManagedSite, inst, handle string) bool {
	for _, n := range m.Replicas() {
		if sp, ok := n.StagingSpool("CLUSTER"); ok && n.Instance() == inst {
			_, held := sp.Stat(handle)
			return held
		}
	}
	return false
}

// triggerWriter forwards to a buffer and fires hook (once) as soon as more
// than threshold bytes have passed through — the mid-transfer crash point.
type triggerWriter struct {
	buf       bytes.Buffer
	threshold int
	hook      func()
	once      sync.Once
}

func (w *triggerWriter) Write(p []byte) (int, error) {
	n, err := w.buf.Write(p)
	if w.buf.Len() > w.threshold && w.hook != nil {
		w.once.Do(w.hook)
	}
	return n, err
}

// TestStagedTransferSurvivesReplicaKill is the staging acceptance scenario:
// a large file is uploaded in chunks into a replica's spool with the owning
// replica crash-recovered mid-upload (acknowledged chunks survive via the
// journal), the AJO referencing the staged handle is consigned to the
// replica that holds the bytes, and the result is pulled back through the
// windowed parallel download engine with the owning replica killed and
// journal-recovered mid-download — chunk-level retries ride out the outage
// and the assembled bytes still verify against the whole-file checksum.
func TestStagedTransferSurvivesReplicaKill(t *testing.T) {
	const (
		chunkSize = 64 << 10
		fileSize  = 4 << 20 // 64 chunks
	)
	d, m := newFailoverSite(t, pool.RoundRobin)
	user, err := d.NewUser("Stage User", "Test", "stage")
	if err != nil {
		t.Fatalf("NewUser: %v", err)
	}

	sess := d.Session(user, "POOL")
	sess.Transfer = staging.Options{ChunkSize: chunkSize, Window: 4, Retries: 30, Backoff: 10 * time.Millisecond}
	ctx := context.Background()
	payload := stagedPayload(fileSize)

	// --- Phase 1: chunked upload, owning replica crash-recovered halfway ---
	open, err := sess.PutOpen(ctx, protocol.PutOpenRequest{
		Vsite: "CLUSTER", Name: "in.dat", ChunkSize: chunkSize, Window: 4,
	})
	if err != nil {
		t.Fatalf("PutOpen: %v", err)
	}
	// The handle names the replica holding the upload: the victim.
	holder := staging.HandleTag(open.Handle)
	if !spoolHolds(m, holder, open.Handle) {
		t.Fatalf("replica %q does not hold the upload its handle %s names", holder, open.Handle)
	}
	victim := strings.TrimPrefix(holder, "CLUSTER.")
	nChunks := fileSize / chunkSize
	sendChunk := func(i int) {
		t.Helper()
		piece := payload[i*chunkSize : (i+1)*chunkSize]
		reply, err := sess.PutChunk(ctx, protocol.PutChunkRequest{
			Handle: open.Handle, Index: int64(i), Data: piece, CRC: staging.Checksum(piece),
		})
		if err != nil {
			t.Fatalf("PutChunk(%d): %v", i, err)
		}
		if reply.Received != int64(i)+1 {
			t.Fatalf("PutChunk(%d): watermark %d, want %d", i, reply.Received, i+1)
		}
	}
	for i := 0; i < nChunks/2; i++ {
		sendChunk(i)
	}
	// Crash the replica holding the half-received upload and recover it from
	// its journal: every acknowledged chunk must still be there.
	killHealReplica(t, m, victim)
	for i := nChunks / 2; i < nChunks; i++ {
		sendChunk(i)
	}
	commit, err := sess.PutCommit(ctx, protocol.PutCommitRequest{Handle: open.Handle, CRC: staging.Checksum(payload)})
	if err != nil {
		t.Fatalf("PutCommit after crash recovery: %v", err)
	}
	if commit.Size != fileSize || commit.CRC != staging.Checksum(payload) {
		t.Fatalf("commit sealed %d/%#x, want %d/%#x", commit.Size, commit.CRC, fileSize, staging.Checksum(payload))
	}

	// --- Phase 2: consign the AJO referencing the handle (payload not inline)
	b := client.NewJob("staged-transfer", core.Target{Usite: "POOL", Vsite: "CLUSTER"})
	imp := b.ImportStaged("stage", open.Handle, "in.dat")
	run := b.Script("copy", "cat in.dat > out.dat\n",
		resources.Request{Processors: 1, RunTime: time.Hour})
	b.After(imp, run)
	job, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	id, err := sess.Submit(ctx, job)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// The consign-affinity hint must have routed the admission to the
	// replica whose spool holds the chunks.
	if njs.JobInstance("POOL", id) != holder {
		t.Fatalf("staged job %s not admitted on holding replica %s", id, victim)
	}
	if fired := d.Run(10_000_000); fired >= 10_000_000 {
		t.Fatal("clock never went idle")
	}
	sum, err := sess.Status(ctx, id)
	if err != nil {
		t.Fatalf("Status: %v", err)
	}
	if sum.Status != ajo.StatusSuccessful {
		o, _ := sess.Outcome(ctx, id)
		t.Fatalf("staged job finished %s:\n%s", sum.Status, o.Render())
	}

	// --- Phase 3: parallel download with a mid-transfer replica kill -------
	w := &triggerWriter{threshold: fileSize / 4}
	w.hook = func() {
		killHealReplica(t, m, victim)
	}
	if _, err := sess.Download(ctx, id, "out.dat", w); err != nil {
		t.Fatalf("Download across replica kill: %v", err)
	}
	if !bytes.Equal(w.buf.Bytes(), payload) {
		t.Fatal("downloaded result differs from the staged input across the failover")
	}
}
