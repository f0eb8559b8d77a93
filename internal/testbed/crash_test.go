package testbed

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"unicore/internal/ajo"
	"unicore/internal/core"
	"unicore/internal/journal"
	"unicore/internal/machine"
	"unicore/internal/njs"
)

// storeHandle pairs a journal store with its directory so a simulated crash
// can drop the handle and reopen the same state.
type storeHandle struct {
	dir   string
	store *journal.Store
}

func journalReopen(dir string) (*journal.Store, error) { return journal.Open(dir) }

// crashSpecs is a two-Usite deployment: jobs flow both directions, so a
// crash at ALPHA exercises every recovery edge — local jobs mid-batch,
// sub-jobs ALPHA consigned to BETA (poll loops to re-arm), and sub-jobs BETA
// consigned to ALPHA (peer-side survival + idempotent re-consign).
func crashSpecs() []SiteSpec {
	return []SiteSpec{
		{Usite: "ALPHA", Vsites: []njs.VsiteConfig{{Name: "CLUSTER", Profile: machine.GenericCluster(16)}}},
		{Usite: "BETA", Vsites: []njs.VsiteConfig{{Name: "CLUSTER", Profile: machine.GenericCluster(8)}}},
	}
}

// canonicalOutcome renders an outcome tree without timestamps or job IDs
// (re-dispatched sub-jobs are re-admitted under fresh IDs), so a recovered
// run can be compared action-by-action with an uninterrupted one.
func canonicalOutcome(o *ajo.Outcome) string {
	var b strings.Builder
	var rec func(o *ajo.Outcome, depth int)
	rec = func(o *ajo.Outcome, depth int) {
		// Job-group nodes carry process-global generated IDs (ajo.NewID),
		// which differ between two runs in the same test binary; name them
		// by their human label instead.
		action := string(o.Action)
		if o.Kind == ajo.KindJob {
			action = "job(" + o.Name + ")"
		}
		fmt.Fprintf(&b, "%s%s [%s] %s exit=%d stdout=%q files=%d\n",
			strings.Repeat("  ", depth), action, o.Kind, o.Status, o.ExitCode, o.Stdout, len(o.Files))
		for _, c := range o.Children {
			rec(c, depth+1)
		}
	}
	rec(o, 0)
	return b.String()
}

// runCrashWorkload deploys the two sites, submits a mixed workload, and —
// when crash is set — kills the ALPHA NJS mid-workload and recovers it from
// its journal before letting the clock run dry. It returns the canonical
// outcome of every job, keyed by workload name.
func runCrashWorkload(t *testing.T, crash bool) map[string]string {
	t.Helper()
	d, err := New(crashSpecs()...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer d.Close()
	user, err := d.NewUser("Crash User", "Test", "crash")
	if err != nil {
		t.Fatalf("NewUser: %v", err)
	}
	// Durability on in both runs so the clock traces stay comparable.
	const snapshotEvery = 256
	stores := map[core.Usite]storeHandle{}
	for _, u := range d.Usites() {
		dir := t.TempDir()
		store, err := d.EnableDurability(u, dir, snapshotEvery)
		if err != nil {
			t.Fatalf("EnableDurability(%s): %v", u, err)
		}
		stores[u] = storeHandle{dir: dir, store: store}
	}
	defer func() {
		for _, h := range stores {
			h.store.Close()
		}
	}()

	cfg := DefaultWorkload(7, 24, d.Targets())
	cfg.MultiSiteFraction = 0.35
	cfg.MeanCPU = 15 * time.Minute
	cfg.MaxProcs = 8
	jobs, err := GenerateWorkload(cfg)
	if err != nil {
		t.Fatalf("GenerateWorkload: %v", err)
	}
	jpa := d.JPA(user)
	type consigned struct {
		name  string
		usite core.Usite
		id    core.JobID
	}
	var ids []consigned
	for _, j := range jobs {
		id, err := jpa.Submit(j)
		if err != nil {
			t.Fatalf("Submit(%s): %v", j.Name(), err)
		}
		ids = append(ids, consigned{name: j.Name(), usite: j.Target.Usite, id: id})
	}

	// Run to mid-workload: staging done, batch jobs queued/running, remote
	// sub-jobs in flight.
	d.Clock.Advance(10 * time.Minute)

	if crash {
		// Prove the crash point is mid-workload in the surviving trace.
		live := 0
		for _, c := range ids {
			sum, err := d.Session(user, c.usite).Status(context.Background(), c.id)
			if err != nil {
				t.Fatalf("Status(%s) at crash point: %v", c.id, err)
			}
			if !sum.Status.Terminal() {
				live++
			}
		}
		if live == 0 {
			t.Fatal("crash point is not mid-workload: every job already terminal")
		}

		h := stores["ALPHA"]
		// The crash point is "right after the last fsync": flush, kill the
		// NJS, drop the store handle, and recover from the directory — the
		// same sequence a real process restart goes through.
		if err := h.store.Sync(); err != nil {
			t.Fatalf("Sync: %v", err)
		}
		if err := d.KillSite("ALPHA"); err != nil {
			t.Fatalf("KillSite: %v", err)
		}
		if err := h.store.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		store, err := journalReopen(h.dir)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		stores["ALPHA"] = storeHandle{dir: h.dir, store: store}
		if err := d.RestartSite("ALPHA", store, snapshotEvery); err != nil {
			t.Fatalf("RestartSite: %v", err)
		}
	}

	if fired := d.Run(10_000_000); fired >= 10_000_000 {
		t.Fatal("clock never went idle")
	}

	out := make(map[string]string, len(ids))
	for _, c := range ids {
		o, err := d.Session(user, c.usite).Outcome(context.Background(), c.id)
		if err != nil {
			t.Fatalf("Outcome(%s): %v", c.id, err)
		}
		if !o.Status.Terminal() {
			t.Fatalf("job %s (%s) never finished: %s", c.name, c.id, o.Status)
		}
		out[c.name] = canonicalOutcome(o)
	}
	return out
}

// TestCrashRecoveryMidWorkload is the acceptance test for the durable NJS:
// kill a site mid-workload, recover from journal+snapshot, and every
// surviving job must reach the same terminal outcome as an uninterrupted
// run of the identical workload.
func TestCrashRecoveryMidWorkload(t *testing.T) {
	base := runCrashWorkload(t, false)
	crashed := runCrashWorkload(t, true)
	if len(base) != len(crashed) {
		t.Fatalf("job counts differ: %d vs %d", len(base), len(crashed))
	}
	for name, want := range base {
		got, ok := crashed[name]
		if !ok {
			t.Fatalf("job %s missing from crashed run", name)
		}
		if got != want {
			t.Errorf("job %s diverged after crash recovery:\n--- uninterrupted ---\n%s--- recovered ---\n%s", name, want, got)
		}
	}
	for _, s := range base {
		if strings.Contains(s, "FAILED") || strings.Contains(s, "NOT_DONE") {
			t.Fatalf("baseline workload has failures:\n%s", s)
		}
	}
}
