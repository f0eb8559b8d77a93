package client

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"unicore/internal/ajo"
	"unicore/internal/core"
	"unicore/internal/protocol"
	"unicore/internal/resources"
	"unicore/internal/staging"
	"unicore/internal/uudb"
)

// bigPattern returns n deterministic bytes.
func bigPattern(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(i*13 + i/257)
	}
	return out
}

// TestSessionStagedUploadRoundTrip drives the whole bulk path through the
// authenticated gateway: chunked upload into the spool, consign of an AJO
// whose ImportTask references the handle (no payload inline), batch run, and
// a windowed parallel download of the result.
func TestSessionStagedUploadRoundTrip(t *testing.T) {
	r := newRig(t)
	sess := NewSession(r.c, "LRZ")
	sess.Transfer = staging.Options{ChunkSize: 32 << 10, Window: 4}
	payload := bigPattern(300_000) // ~10 chunks

	handle, err := sess.Upload(context.Background(), "VPP", "in.dat", bytes.NewReader(payload))
	if err != nil {
		t.Fatalf("Upload: %v", err)
	}

	b := NewJob("staged", vpp)
	imp := b.ImportStaged("stage", handle, "in.dat")
	run := b.Script("copy", "cat in.dat > out.dat\n", resources.Request{Processors: 1, RunTime: time.Minute})
	b.After(imp, run)
	job, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	// The consign envelope must not carry the payload: the AJO stays small.
	raw, err := ajo.Marshal(job)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	if len(raw) >= len(payload)/2 {
		t.Fatalf("staged AJO serialises to %d bytes — payload travelled inline", len(raw))
	}
	id, err := sess.Submit(context.Background(), job)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	r.clock.RunUntilIdle(1_000_000)
	sum, err := sess.Status(context.Background(), id)
	if err != nil || sum.Status != ajo.StatusSuccessful {
		t.Fatalf("job finished %s (%v)", sum.Status, err)
	}

	var got bytes.Buffer
	if _, err := sess.Download(context.Background(), id, "out.dat", &got); err != nil {
		t.Fatalf("Download: %v", err)
	}
	if !bytes.Equal(got.Bytes(), payload) {
		t.Fatal("downloaded result differs from the staged input")
	}

	// The spool entry was consumed by the import; a sweep collects it.
	sp, ok := r.njs.StagingSpool("VPP")
	if !ok {
		t.Fatal("no spool for VPP")
	}
	info, ok := sp.Stat(handle)
	if !ok || !info.Consumed {
		t.Fatalf("spool entry after the run: %+v, ok %v; want consumed", info, ok)
	}
	if swept := r.njs.SweepStaging(time.Hour); swept != 1 {
		t.Fatalf("sweep removed %d entries, want 1", swept)
	}
}

// TestStagedHandleOfAnotherUserIsRefused: consigning an AJO that references
// someone else's staged upload must fail the import, not leak the bytes.
func TestStagedHandleOfAnotherUserIsRefused(t *testing.T) {
	r := newRig(t)
	sess := NewSession(r.c, "LRZ")
	handle, err := sess.Upload(context.Background(), "VPP", "secret.dat", bytes.NewReader([]byte("secret")))
	if err != nil {
		t.Fatalf("Upload: %v", err)
	}

	// Map a second user so their consignment itself is admitted.
	mallory, err := r.ca.IssueUser("Mallory", "Evil Org")
	if err != nil {
		t.Fatalf("IssueUser: %v", err)
	}
	r.users.AddUser(mallory.DN(), "")
	if err := r.users.AddMapping(mallory.DN(), "VPP", uudb.Login{UID: "mallory"}); err != nil {
		t.Fatalf("mapping mallory: %v", err)
	}

	b := NewJob("steal", vpp)
	b.ImportStaged("grab", handle, "loot.dat")
	job, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	msess := NewSession(protocol.NewClient(r.net, mallory, r.ca, r.reg), "LRZ")
	id, err := msess.Submit(context.Background(), job)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	r.clock.RunUntilIdle(1_000_000)
	sum, err := msess.Status(context.Background(), id)
	if err != nil {
		t.Fatalf("Status: %v", err)
	}
	if sum.Status == ajo.StatusSuccessful {
		t.Fatal("a job consuming another user's staged upload succeeded")
	}
}

// mutatingWriter fires a hook when it is handed its first bytes — after the
// first chunk of a windowed fetch has been delivered, before the later ones
// are asked for.
type mutatingWriter struct {
	bytes.Buffer
	once   sync.Once
	mutate func()
}

func (m *mutatingWriter) Write(p []byte) (int, error) {
	m.once.Do(m.mutate)
	return m.Buffer.Write(p)
}

// TestFetchFileSurfacesMidTransferMutation is the client-level regression
// test for the seed fetch loop: a Uspace file rewritten between two chunks
// must surface as a checksum/mutation error through the engine under
// Session.FetchFile — never loop, never return mixed bytes.
func TestFetchFileSurfacesMidTransferMutation(t *testing.T) {
	r := newRig(t)
	content := bigPattern(300_000)
	id := runProducerJob(t, r, content)

	vs, ok := r.njs.Vsite("VPP")
	if !ok {
		t.Fatal("no VPP vsite")
	}
	var sink mutatingWriter
	sink.mutate = func() {
		changed := bigPattern(300_000)
		for i := range changed {
			changed[i] ^= 0xff
		}
		if err := vs.Space.WriteJobFile(id, "out.dat", changed); err != nil {
			t.Errorf("mutating out.dat: %v", err)
		}
	}
	sess := NewSession(protocol.NewClient(r.net, r.user, r.ca, r.reg), "LRZ")
	sess.Transfer = staging.Options{ChunkSize: 64 << 10, Window: 2, Retries: -1}
	_, err := sess.Download(context.Background(), id, "out.dat", &sink)
	if !errors.Is(err, staging.ErrMutated) && !errors.Is(err, staging.ErrChecksum) {
		t.Fatalf("fetch of a mutating file: err = %v, want ErrMutated/ErrChecksum", err)
	}
}

// runProducerJob runs a job writing content to out.dat and returns its ID.
func runProducerJob(t *testing.T, r *rig, content []byte) core.JobID {
	t.Helper()
	b := NewJob("producer", vpp)
	b.ImportBytes("stage", content, "out.dat")
	job, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	id, err := r.jpa.Submit(job)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	r.clock.RunUntilIdle(1_000_000)
	sum, err := r.sess.Status(context.Background(), id)
	if err != nil || sum.Status != ajo.StatusSuccessful {
		t.Fatalf("producer finished %s (%v)", sum.Status, err)
	}
	return id
}
