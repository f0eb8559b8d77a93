package federation

// Unit coverage for the gossip state machine: epoch precedence, hop-count
// preference, receiver-clock staleness, Vsite host resolution, consign-ID
// namespacing, and the staged-input placement constraint.

import (
	"strings"
	"testing"
	"time"

	"unicore/internal/ajo"
	"unicore/internal/core"
	"unicore/internal/pki"
	"unicore/internal/protocol"
	"unicore/internal/sim"
)

// newFed builds an idle federation over an empty in-process network — enough
// for everything that does not actually dial a peer.
func newFed(t *testing.T, clock *sim.VirtualClock) *Federation {
	t.Helper()
	ca, err := pki.NewAuthority("Test-CA")
	if err != nil {
		t.Fatalf("NewAuthority: %v", err)
	}
	cred, err := ca.IssueServer("gateway.fzj", "gw.fzj.unicore")
	if err != nil {
		t.Fatalf("IssueServer: %v", err)
	}
	f, err := New(Config{
		Usite:  "FZJ",
		URL:    "https://gw.fzj.unicore",
		Client: protocol.NewClient(protocol.NewInProc(), cred, ca, protocol.NewRegistry()),
		Clock:  clock,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return f
}

// ad builds a peer advertisement as it would arrive on the wire.
func ad(origin core.Usite, epoch uint64, hops int, vsites ...string) protocol.FedAd {
	a := protocol.FedAd{
		Origin: origin,
		URL:    "https://gw." + strings.ToLower(string(origin)) + ".unicore",
		Epoch:  epoch,
		Hops:   hops,
		Loads:  map[string]protocol.VsiteLoad{},
	}
	for _, v := range vsites {
		a.Loads[v] = protocol.VsiteLoad{Replicas: 1, Healthy: 1}
	}
	return a
}

// peerAds returns the non-self ads a gossip reply would carry, keyed by
// origin.
func peerAds(f *Federation) map[core.Usite]protocol.FedAd {
	out := map[core.Usite]protocol.FedAd{}
	for _, a := range f.KnownAds() {
		if a.Origin != f.cfg.Usite {
			out[a.Origin] = a
		}
	}
	return out
}

func TestIngestPrefersNewerEpochAndShorterPath(t *testing.T) {
	clock := sim.NewVirtualClock()
	f := newFed(t, clock)
	f.HandleAdvertise(protocol.FedAdvertiseRequest{From: "DWD", Ads: []protocol.FedAd{
		ad("DWD", 5, 0, "SX4"),
	}})
	got := peerAds(f)["DWD"]
	if got.Epoch != 5 || got.Hops != 1 {
		t.Fatalf("after direct ad: epoch %d hops %d, want 5/1", got.Epoch, got.Hops)
	}

	// An older epoch never replaces a newer one, whatever the path.
	f.HandleAdvertise(protocol.FedAdvertiseRequest{From: "LRZ", Ads: []protocol.FedAd{
		ad("DWD", 4, 0, "SX4", "GHOST"),
	}})
	if got := peerAds(f)["DWD"]; got.Epoch != 5 || len(got.Loads) != 1 {
		t.Fatalf("stale epoch overwrote: %+v", got)
	}

	// The same epoch through a longer relay path loses too...
	f.HandleAdvertise(protocol.FedAdvertiseRequest{From: "LRZ", Ads: []protocol.FedAd{
		ad("DWD", 5, 3, "SX4", "GHOST"),
	}})
	if got := peerAds(f)["DWD"]; got.Hops != 1 || len(got.Loads) != 1 {
		t.Fatalf("longer path overwrote: %+v", got)
	}

	// ...but a newer epoch wins even through more hops.
	f.HandleAdvertise(protocol.FedAdvertiseRequest{From: "LRZ", Ads: []protocol.FedAd{
		ad("DWD", 6, 2, "SX4", "VEC"),
	}})
	if got := peerAds(f)["DWD"]; got.Epoch != 6 || got.Hops != 3 || len(got.Loads) != 2 {
		t.Fatalf("newer epoch did not win: %+v", got)
	}
}

func TestStalenessJudgedByReceiverClock(t *testing.T) {
	clock := sim.NewVirtualClock()
	f := newFed(t, clock)
	// A peer whose ad claims a far-future stamp still goes stale on the
	// receiver's clock: sender clocks are not trusted.
	future := ad("DWD", 1, 0, "SX4")
	future.Stamp = clock.Now().Add(24 * time.Hour)
	f.HandleAdvertise(protocol.FedAdvertiseRequest{From: "DWD", Ads: []protocol.FedAd{future}})
	if _, ok := peerAds(f)["DWD"]; !ok {
		t.Fatal("fresh ad missing from KnownAds")
	}
	clock.Advance(DefaultStaleAfter + time.Second)
	if _, ok := peerAds(f)["DWD"]; ok {
		t.Fatal("expired ad still in KnownAds")
	}
	if _, err := f.VsiteHost("SX4"); err == nil {
		t.Fatal("VsiteHost resolved through a stale ad")
	}

	// A same-epoch renewal (the origin is alive behind a relay) un-stales it.
	f.HandleAdvertise(protocol.FedAdvertiseRequest{From: "LRZ", Ads: []protocol.FedAd{
		ad("DWD", 1, 2, "SX4"),
	}})
	if _, ok := peerAds(f)["DWD"]; !ok {
		t.Fatal("renewed ad still stale")
	}
}

func TestVsiteHostAmbiguity(t *testing.T) {
	clock := sim.NewVirtualClock()
	f := newFed(t, clock)
	f.HandleAdvertise(protocol.FedAdvertiseRequest{From: "DWD", Ads: []protocol.FedAd{
		ad("DWD", 1, 0, "SX4"),
		ad("RUS", 1, 1, "SX4", "VPP"),
	}})
	if _, err := f.VsiteHost("SX4"); err == nil {
		t.Fatal("ambiguous Vsite resolved")
	}
	u, err := f.VsiteHost("VPP")
	if err != nil || u != "RUS" {
		t.Fatalf("VsiteHost(VPP) = %s, %v; want RUS", u, err)
	}
	if _, err := f.VsiteHost("NONE"); err == nil {
		t.Fatal("unknown Vsite resolved")
	}
}

func TestJobSiteLongestPrefix(t *testing.T) {
	clock := sim.NewVirtualClock()
	f := newFed(t, clock)
	if err := f.AddPeer("DWD", "https://gw.dwd.unicore"); err != nil {
		t.Fatalf("AddPeer: %v", err)
	}
	if err := f.AddPeer("DWD-WEST", "https://gw.dwd-west.unicore"); err != nil {
		t.Fatalf("AddPeer: %v", err)
	}
	cases := map[core.JobID]core.Usite{
		"DWD-000001":      "DWD",
		"DWD-WEST-000001": "DWD-WEST",
		"FZJ-000001":      "", // local
		"ZIB-000001":      "", // unknown
	}
	for id, want := range cases {
		if got := f.JobSite(id); got != want {
			t.Fatalf("JobSite(%s) = %q, want %q", id, got, want)
		}
	}
	// A handle is minted under its Usite as a job ID is, and routes by the
	// same rule after its prefix.
	handles := map[string]core.Usite{
		"stg-DWD-SP2-00000001":           "DWD",
		"stg-DWD-WEST-SP2-00000001":      "DWD-WEST",
		"stg-DWD-CLUSTER.r1-00000001":    "DWD",
		"stg-DWD-WEST-CLUSTER.r1-000001": "DWD-WEST",
		"stg-FZJ-T3E-00000001":           "", // local
		"stg-ZIB-T3E-00000001":           "", // unknown
		"stg-T3E-00000001":               "", // names no Usite
		"DWD-000001":                     "", // a job ID is no handle
	}
	for h, want := range handles {
		if got := f.HandleSite(h); got != want {
			t.Fatalf("HandleSite(%s) = %q, want %q", h, got, want)
		}
	}
}

func TestNamespaceConsignID(t *testing.T) {
	if got := NamespaceConsignID("FZJ", "abc"); got != "fed/FZJ/abc" {
		t.Fatalf("NamespaceConsignID = %q", got)
	}
	if got := NamespaceConsignID("FZJ", ""); got != "" {
		t.Fatalf("empty consign ID namespaced to %q — dedupe would engage on no-ID consigns", got)
	}
}

func TestStagedSiteConstraint(t *testing.T) {
	clock := sim.NewVirtualClock()
	f := newFed(t, clock)
	for _, u := range []core.Usite{"DWD", "RUS"} {
		if err := f.AddPeer(u, "https://gw."+strings.ToLower(string(u))+".unicore"); err != nil {
			t.Fatalf("AddPeer: %v", err)
		}
	}
	const dwd1, dwd2, rus, local = "stg-DWD-SP2-00000001", "stg-DWD-SP2-00000002", "stg-RUS-VPP-00000001", "stg-FZJ-T3E-00000001"

	jobWith := func(handles ...string) *ajo.AbstractJob {
		j := &ajo.AbstractJob{Target: core.Target{Usite: "FZJ", Vsite: "T3E"}}
		for i, h := range handles {
			j.Actions = append(j.Actions, &ajo.ImportTask{
				Header: ajo.Header{ActionID: ajo.ActionID("imp" + string(rune('a'+i)))},
				Source: ajo.ImportSource{Staged: h},
				To:     "in.dat",
			})
		}
		return j
	}

	if s, err := f.StagedSite(jobWith()); err != nil || s != "" {
		t.Fatalf("no handles: %q, %v", s, err)
	}
	if s, err := f.StagedSite(jobWith(local)); err != nil || s != "" {
		t.Fatalf("local handle: %q, %v", s, err)
	}
	if s, err := f.StagedSite(jobWith(dwd1, dwd2)); err != nil || s != "DWD" {
		t.Fatalf("one peer: %q, %v", s, err)
	}
	if _, err := f.StagedSite(jobWith(dwd1, rus)); err == nil {
		t.Fatal("two peers accepted")
	}
	if _, err := f.StagedSite(jobWith(dwd1, local)); err == nil {
		t.Fatal("peer+local straddle accepted")
	}
}

func TestSelfAdEpochsIncrease(t *testing.T) {
	clock := sim.NewVirtualClock()
	f := newFed(t, clock)
	a, b := f.SelfAd(), f.SelfAd()
	if b.Epoch <= a.Epoch {
		t.Fatalf("epochs not increasing: %d then %d", a.Epoch, b.Epoch)
	}
	if a.Origin != "FZJ" || a.Hops != 0 {
		t.Fatalf("self ad wrong: %+v", a)
	}
}
