package broker

import (
	"errors"
	"testing"
	"time"

	"unicore/internal/ajo"
	"unicore/internal/core"
	"unicore/internal/machine"
	"unicore/internal/resources"
)

var (
	fzjT3E = core.Target{Usite: "FZJ", Vsite: "T3E"}
	lrzVPP = core.Target{Usite: "LRZ", Vsite: "VPP"}
	dwdSX4 = core.Target{Usite: "DWD", Vsite: "SX4"}
)

// inventory builds a broker stocked with the three-machine test inventory,
// each Vsite served by one idle, healthy NJS. Every load report in these
// tests states Replicas and Healthy: a Vsite with no healthy replica is
// drained.
func inventory(p Policy) *Broker {
	b := New(p)
	t3e := machine.CrayT3E(512).ResourcePage()
	t3e.Target = fzjT3E
	vpp := machine.FujitsuVPP700(52).ResourcePage()
	vpp.Target = lrzVPP
	sx4 := machine.NECSX4(16).ResourcePage()
	sx4.Target = dwdSX4
	b.AddPage(&t3e)
	b.AddPage(&vpp)
	b.AddPage(&sx4)
	for _, t := range []core.Target{fzjT3E, lrzVPP, dwdSX4} {
		b.SetLoad(t, Load{Replicas: 1, Healthy: 1})
	}
	return b
}

func TestCapabilityFilter(t *testing.T) {
	b := inventory(LeastLoaded)
	// 100 processors only fit the T3E (512); VPP has 52, SX4 has 16.
	got, err := b.Choose(resources.Request{Processors: 100, RunTime: time.Hour})
	if err != nil {
		t.Fatalf("Choose: %v", err)
	}
	if got != fzjT3E {
		t.Fatalf("choice = %s, want %s", got, fzjT3E)
	}
	// 4096 processors fit nowhere.
	_, err = b.Choose(resources.Request{Processors: 4096, RunTime: time.Hour})
	if !errors.Is(err, ErrNoCandidate) {
		t.Fatalf("err = %v, want ErrNoCandidate", err)
	}
}

func TestSoftwareFilter(t *testing.T) {
	b := inventory(LeastLoaded)
	// Every profile lists f90; none lists Gaussian.
	if _, err := b.Choose(resources.Request{Processors: 1, RunTime: time.Hour},
		resources.Software{Kind: resources.KindCompiler, Name: "f90"}); err != nil {
		t.Fatalf("f90 filter: %v", err)
	}
	_, err := b.Choose(resources.Request{Processors: 1, RunTime: time.Hour},
		resources.Software{Kind: resources.KindPackage, Name: "Gaussian94"})
	if !errors.Is(err, ErrNoCandidate) {
		t.Fatalf("err = %v, want ErrNoCandidate", err)
	}
}

func TestLeastLoadedPrefersIdleSite(t *testing.T) {
	b := inventory(LeastLoaded)
	b.SetLoad(fzjT3E, Load{Load: 0.9, Pending: 40, Replicas: 1, Healthy: 1})
	b.SetLoad(lrzVPP, Load{Load: 0.1, Replicas: 1, Healthy: 1})
	b.SetLoad(dwdSX4, Load{Load: 0.5, Replicas: 1, Healthy: 1})
	got, err := b.Choose(resources.Request{Processors: 8, RunTime: time.Hour})
	if err != nil {
		t.Fatalf("Choose: %v", err)
	}
	if got != lrzVPP {
		t.Fatalf("choice = %s, want the idle VPP", got)
	}
}

// TestInflightConsignsCountAsLoad: a Vsite with idle queues but a burst of
// admissions in flight (the live njs_consign_inflight gauge a telemetry
// scrape carries into LoadReply) ranks below a genuinely idle one — the
// broker sees the burst before the batch queues do.
func TestInflightConsignsCountAsLoad(t *testing.T) {
	b := inventory(LeastLoaded)
	// Both SX4-sized sites report empty queues and identical occupancy, but
	// the SX4 is absorbing an admission burst right now.
	b.SetLoad(fzjT3E, Load{Load: 0.9, Pending: 40, Replicas: 1, Healthy: 1})
	b.SetLoad(lrzVPP, Load{Load: 0.1, Replicas: 1, Healthy: 1})
	b.SetLoad(dwdSX4, Load{Load: 0.1, Inflight: 30, Replicas: 1, Healthy: 1})
	got, err := b.Choose(resources.Request{Processors: 8, RunTime: time.Hour})
	if err != nil {
		t.Fatalf("Choose: %v", err)
	}
	if got != lrzVPP {
		t.Fatalf("choice = %s, want the idle VPP over the consign-loaded SX4", got)
	}
	// The loaded-but-healthy SX4 is still a candidate, just ranked lower.
	cands, err := b.Candidates(resources.Request{Processors: 8, RunTime: time.Hour})
	if err != nil {
		t.Fatalf("Candidates: %v", err)
	}
	var vppScore, sx4Score float64
	for _, c := range cands {
		switch c.Target {
		case lrzVPP:
			vppScore = c.Score
		case dwdSX4:
			sx4Score = c.Score
		}
	}
	if !(vppScore < sx4Score) {
		t.Fatalf("idle VPP score %v not below in-flight-loaded SX4 score %v", vppScore, sx4Score)
	}
}

func TestFastestMachineIgnoresLoad(t *testing.T) {
	b := inventory(FastestMachine)
	b.SetLoad(fzjT3E, Load{Load: 1, Pending: 100, Replicas: 1, Healthy: 1})
	b.SetLoad(lrzVPP, Load{Load: 0, Replicas: 1, Healthy: 1})
	got, err := b.Choose(resources.Request{Processors: 8, RunTime: time.Hour})
	if err != nil {
		t.Fatalf("Choose: %v", err)
	}
	// Aggregate peak: T3E 512*600, VPP 52*2200, SX4 16*2000 — T3E wins.
	if got != fzjT3E {
		t.Fatalf("choice = %s, want the T3E", got)
	}
}

func TestBestTurnaroundBalancesWaitAndSpeed(t *testing.T) {
	b := inventory(BestTurnaround)
	// The T3E is saturated with a deep backlog; the slower SX4 is empty.
	b.SetLoad(fzjT3E, Load{Load: 1, Pending: 64, Replicas: 1, Healthy: 1})
	b.SetLoad(lrzVPP, Load{Load: 1, Pending: 64, Replicas: 1, Healthy: 1})
	b.SetLoad(dwdSX4, Load{Replicas: 1, Healthy: 1})
	got, err := b.Choose(resources.Request{Processors: 8, RunTime: time.Hour})
	if err != nil {
		t.Fatalf("Choose: %v", err)
	}
	if got != dwdSX4 {
		t.Fatalf("choice = %s, want the idle SX4", got)
	}

	cands, err := b.Candidates(resources.Request{Processors: 8, RunTime: time.Hour})
	if err != nil {
		t.Fatalf("Candidates: %v", err)
	}
	if cands[0].Target != dwdSX4 {
		t.Fatalf("best candidate = %s", cands[0].Target)
	}
	if cands[0].EstWait != 0 {
		t.Fatalf("idle site estimated wait = %s, want 0", cands[0].EstWait)
	}
	for _, c := range cands[1:] {
		if c.EstWait == 0 {
			t.Fatalf("saturated site %s has zero estimated wait", c.Target)
		}
	}
}

func TestCandidatesSortedAndDeterministic(t *testing.T) {
	b := inventory(LeastLoaded)
	cands, err := b.Candidates(resources.Request{Processors: 1, RunTime: time.Hour})
	if err != nil {
		t.Fatalf("Candidates: %v", err)
	}
	if len(cands) != 3 {
		t.Fatalf("candidates = %d, want 3", len(cands))
	}
	for i := 1; i < len(cands); i++ {
		if cands[i-1].Score > cands[i].Score {
			t.Fatalf("candidates not sorted: %v", cands)
		}
	}
	// Equal loads: ties break lexicographically by target, so repeated
	// calls give the same order.
	again, _ := b.Candidates(resources.Request{Processors: 1, RunTime: time.Hour})
	for i := range cands {
		if cands[i].Target != again[i].Target {
			t.Fatal("candidate order is not deterministic")
		}
	}
}

func TestPolicyString(t *testing.T) {
	for p, want := range map[Policy]string{
		LeastLoaded:    "least-loaded",
		FastestMachine: "fastest-machine",
		BestTurnaround: "best-turnaround",
		Policy(42):     "Policy(42)",
	} {
		if got := p.String(); got != want {
			t.Fatalf("Policy(%d).String() = %q, want %q", int(p), got, want)
		}
	}
}

func TestRetarget(t *testing.T) {
	b := inventory(LeastLoaded)
	tgt, err := b.Choose(resources.Request{Processors: 1, RunTime: time.Hour})
	if err != nil {
		t.Fatalf("Choose: %v", err)
	}
	job := &ajo.AbstractJob{
		Header: ajo.Header{ActionID: "j", ActionName: "retargeted"},
		Target: core.Target{Usite: "X", Vsite: "Y"},
	}
	Retarget(job, tgt)
	if job.Target != tgt {
		t.Fatalf("target = %s, want %s", job.Target, tgt)
	}
}

func TestZeroRequestUsesPageDefaults(t *testing.T) {
	b := inventory(BestTurnaround)
	b.SetLoad(fzjT3E, Load{Load: 0.5, Pending: 4, Replicas: 1, Healthy: 1})
	cands, err := b.Candidates(resources.Request{})
	if err != nil {
		t.Fatalf("Candidates: %v", err)
	}
	for _, c := range cands {
		if c.EstRun <= 0 {
			t.Fatalf("candidate %s has no estimated run time", c.Target)
		}
	}
}

func TestDrainedSiteIsNeverSelected(t *testing.T) {
	b := inventory(LeastLoaded)
	// The idle VPP would win on load alone, but its replica pool is fully
	// drained — every NJS replica is failing health checks — so the broker
	// must not select it.
	b.SetLoad(lrzVPP, Load{Load: 0.1, Replicas: 3, Healthy: 0})
	b.SetLoad(dwdSX4, Load{Load: 0.5, Replicas: 3, Healthy: 3})
	b.SetLoad(fzjT3E, Load{Load: 0.9, Pending: 40, Replicas: 1, Healthy: 1})
	got, err := b.Choose(resources.Request{Processors: 8, RunTime: time.Hour})
	if err != nil {
		t.Fatalf("Choose: %v", err)
	}
	if got == lrzVPP {
		t.Fatalf("broker selected the drained site %s", got)
	}
	if got != dwdSX4 {
		t.Fatalf("choice = %s, want the healthy SX4", got)
	}
	// A drained-only inventory yields a clean no-candidate error.
	b.SetLoad(dwdSX4, Load{Replicas: 2, Healthy: 0})
	b.SetLoad(fzjT3E, Load{Replicas: 2, Healthy: 0})
	if _, err := b.Choose(resources.Request{Processors: 8, RunTime: time.Hour}); !errors.Is(err, ErrNoCandidate) {
		t.Fatalf("err = %v, want ErrNoCandidate when every pool is drained", err)
	}
}

// TestZeroReplicaPoolIsDrained: a Vsite whose pool reports no replica at
// all has no NJS to take a job, so the broker skips it like a pool whose
// every replica fails its health check — even when it would win on load.
func TestZeroReplicaPoolIsDrained(t *testing.T) {
	b := inventory(LeastLoaded)
	b.SetLoad(lrzVPP, Load{Replicas: 0, Healthy: 0}) // idle, but nobody serves it
	b.SetLoad(dwdSX4, Load{Load: 0.5, Replicas: 1, Healthy: 1})
	b.SetLoad(fzjT3E, Load{Load: 0.9, Replicas: 1, Healthy: 1})
	cands, err := b.Candidates(resources.Request{Processors: 8, RunTime: time.Hour})
	if err != nil {
		t.Fatalf("Candidates: %v", err)
	}
	for _, c := range cands {
		if c.Target == lrzVPP {
			t.Fatalf("the zero-replica Vsite %s is a candidate: %+v", lrzVPP, c)
		}
	}
	if len(cands) != 2 || cands[0].Target != dwdSX4 {
		t.Fatalf("candidates = %+v, want the SX4 then the T3E", cands)
	}
}

// TestRemovedVsiteEvictedAfterRefresh drives the eviction pass a clean
// per-site refresh runs: a Vsite the gateway no longer reports loses both
// its resource page and its load record, instead of competing forever.
func TestRemovedVsiteEvictedAfterRefresh(t *testing.T) {
	b := inventory(LeastLoaded)
	b.SetLoad(lrzVPP, Load{Load: 0.0, Replicas: 1, Healthy: 1}) // the would-be winner
	b.evictStaleSite("LRZ", nil)                                // LRZ answered and reports nothing
	cands, err := b.Candidates(resources.Request{Processors: 8, RunTime: time.Hour})
	if err != nil {
		t.Fatalf("Candidates: %v", err)
	}
	for _, c := range cands {
		if c.Target == lrzVPP {
			t.Fatalf("removed Vsite %s still competing", lrzVPP)
		}
	}
	if len(cands) != 2 {
		t.Fatalf("candidates = %v, want the two surviving sites", cands)
	}
}

// TestSiteCostBiasesPlacement: an idle Vsite at a cost-laden Usite loses to
// a busier free one — the federation layer's hop/charge weighting lever.
func TestSiteCostBiasesPlacement(t *testing.T) {
	b := inventory(LeastLoaded)
	b.SetLoad(fzjT3E, Load{Load: 0.9, Pending: 40, Replicas: 1, Healthy: 1})
	b.SetLoad(lrzVPP, Load{Load: 0.1, Replicas: 1, Healthy: 1})
	b.SetLoad(dwdSX4, Load{Load: 0.5, Replicas: 1, Healthy: 1})
	b.SetSiteCost("LRZ", 2) // two machines' worth of occupancy penalty
	got, err := b.Choose(resources.Request{Processors: 8, RunTime: time.Hour})
	if err != nil {
		t.Fatalf("Choose: %v", err)
	}
	if got == lrzVPP {
		t.Fatal("cost-laden site still chosen")
	}
	if got != dwdSX4 {
		t.Fatalf("choice = %s, want the cheaper SX4", got)
	}
	// Clearing the cost restores the idle site's win.
	b.SetSiteCost("LRZ", 0)
	if got, _ := b.Choose(resources.Request{Processors: 8, RunTime: time.Hour}); got != lrzVPP {
		t.Fatalf("choice after clearing cost = %s, want %s", got, lrzVPP)
	}
}

func TestPartiallyDrainedPoolWeighsBacklogHarder(t *testing.T) {
	score := func(healthy int) float64 {
		b := inventory(LeastLoaded)
		b.SetLoad(fzjT3E, Load{Load: 0.4, Pending: 64, Replicas: 4, Healthy: healthy})
		cands, err := b.Candidates(resources.Request{Processors: 8, RunTime: time.Hour})
		if err != nil {
			t.Fatalf("Candidates: %v", err)
		}
		for _, c := range cands {
			if c.Target == fzjT3E {
				return c.Score
			}
		}
		t.Fatalf("FZJ missing from candidates")
		return 0
	}
	// The same queue depth presses four times as hard on a pool that has
	// lost 3 of its 4 replicas: the backlog is carried by a quarter of the
	// capacity, so the degraded pool must score strictly worse.
	intact, degraded := score(4), score(1)
	if degraded <= intact {
		t.Fatalf("degraded pool scored %.3f, intact %.3f; want degraded > intact", degraded, intact)
	}
}
