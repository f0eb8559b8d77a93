package testbed

import (
	"context"
	"testing"

	"unicore/internal/pool"
	"unicore/internal/telemetry"
)

// TestTraceSpansSubmitAcrossTiers is the observability acceptance test: one
// Session.Submit on a 3-replica pooled site yields a retrievable distributed
// trace whose spans cover gateway dispatch → pool routing → NJS admission →
// journal sync, every hop with a nonzero wall duration even though the
// deployment runs on a frozen virtual clock; and a live scrape reports the
// headline counters nonzero.
func TestTraceSpansSubmitAcrossTiers(t *testing.T) {
	d, _ := newFailoverSite(t, pool.RoundRobin)
	user, err := d.NewUser("Trace User", "Test", "trace")
	if err != nil {
		t.Fatalf("NewUser: %v", err)
	}
	sess := d.Session(user, "POOL")

	id, err := sess.Submit(context.Background(), probeJob(t, "traced"))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if fired := d.Run(1_000_000); fired >= 1_000_000 {
		t.Fatal("clock never went idle")
	}
	sum, err := sess.Await(context.Background(), id)
	if err != nil {
		t.Fatalf("Await: %v", err)
	}
	if !sum.Status.Terminal() {
		t.Fatalf("job not terminal after Await: %s", sum.Status)
	}

	trace, ok := sess.Trace(id)
	if !ok || trace == "" {
		t.Fatal("Session.Trace: no trace recorded for the submitted job")
	}
	spans, err := d.Trace("POOL", trace)
	if err != nil {
		t.Fatalf("Trace: %v", err)
	}
	// Every tier of the admission path must have recorded a hop.
	want := []string{"gateway.dispatch", "pool.consign", "njs.consign", "njs.journal.sync"}
	byName := make(map[string][]telemetry.Span)
	for _, sp := range spans {
		byName[sp.Name] = append(byName[sp.Name], sp)
	}
	for _, name := range want {
		hops := byName[name]
		if len(hops) == 0 {
			t.Fatalf("trace %s has no %q span (got %d spans: %v)", trace, name, len(spans), spanNames(spans))
		}
		for _, sp := range hops {
			if sp.Dur <= 0 {
				t.Errorf("span %s at %s has non-positive duration %v", sp.Name, sp.Origin, sp.Dur)
			}
			if sp.Trace != trace {
				t.Errorf("span %s carries trace %q, want %q", sp.Name, sp.Trace, trace)
			}
		}
	}
	// SortSpans ordered the hops on (virtual) start time: non-decreasing.
	for i := 1; i < len(spans); i++ {
		if spans[i].Start.Before(spans[i-1].Start) {
			t.Fatalf("spans not in start order: %s@%v after %s@%v",
				spans[i].Name, spans[i].Start, spans[i-1].Name, spans[i-1].Start)
		}
	}

	// The scrape path: merged site-wide metrics report the headline figures.
	snaps, err := d.Metrics("POOL")
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	merged := telemetry.Merge("site", snaps...)
	if got := merged.Total("pki_verify_total"); got == 0 {
		t.Error("pki_verify_total is zero after a submit")
	}
	if got := merged.HistCount("consign_ack_seconds"); got == 0 {
		t.Error("consign_ack_seconds has no observations after a submit")
	}
	if got := merged.HistCount("journal_sync_seconds"); got == 0 {
		t.Error("journal_sync_seconds has no observations on a journaled site")
	}
}

// spanNames lists span names for failure messages.
func spanNames(spans []telemetry.Span) []string {
	out := make([]string, len(spans))
	for i, sp := range spans {
		out[i] = sp.Origin + "/" + sp.Name
	}
	return out
}
