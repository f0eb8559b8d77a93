package controller

import (
	"context"
	"testing"

	"time"

	"unicore/internal/ajo"
	"unicore/internal/client"
	"unicore/internal/core"
	"unicore/internal/deploy"
	"unicore/internal/njs"
	"unicore/internal/pki"
	"unicore/internal/protocol"
	"unicore/internal/resources"
	"unicore/internal/sim"
	"unicore/internal/uudb"
)

// stackJob builds a minimal script job for the stack's Vsite.
func stackJob(t *testing.T, name string) *ajo.AbstractJob {
	t.Helper()
	b := client.NewJob(name, core.Target{Usite: "FZJ", Vsite: "T3E"})
	b.Script("noop", "echo "+name+"\n", resources.Request{Processors: 1, RunTime: 10 * time.Minute, MemoryMB: 16})
	job, err := b.Build()
	if err != nil {
		t.Fatalf("building %s: %v", name, err)
	}
	return job
}

// TestStackBootHealRoll drives the spec-booted stack through its whole
// lifecycle: boot to the declared topology, survive a replica crash by
// journal recovery, and roll the fleet on a generation bump — all with the
// admitted job's state intact throughout.
func TestStackBootHealRoll(t *testing.T) {
	clock := sim.NewVirtualClock()
	ca, err := pki.NewAuthority("DFN-PCA")
	if err != nil {
		t.Fatalf("NewAuthority: %v", err)
	}
	cred, err := ca.IssueServer("gateway.fzj", "gw.fzj")
	if err != nil {
		t.Fatalf("IssueServer: %v", err)
	}
	alice, err := ca.IssueUser("Alice Ahlmann", "FZJ")
	if err != nil {
		t.Fatalf("IssueUser: %v", err)
	}
	spec := &deploy.TopologySpec{
		Version: deploy.TopologyVersion,
		Sites: []deploy.TopologySite{{
			Usite: "FZJ",
			Vsites: []deploy.TopologyVsite{{
				Name: "T3E", Machine: "t3e", Replicas: 2,
				Policy: "round-robin", SnapshotEvery: 64,
			}},
			Users: []deploy.UserMapping{{
				DN:     alice.DN(),
				Logins: map[core.Vsite]uudb.Login{"T3E": {UID: "aahlm"}},
			}},
		}},
	}
	stack, err := NewStack(StackConfig{
		Spec: spec, Usite: "FZJ", Cred: cred, CA: ca,
		Clock: clock, StateRoot: t.TempDir(),
	})
	if err != nil {
		t.Fatalf("NewStack: %v", err)
	}
	defer stack.Close()

	set, ok := stack.Router.Set("T3E")
	if !ok || len(set.Names()) != 2 {
		t.Fatal("boot did not populate the declared 2-replica T3E pool")
	}

	// Controller metrics ride the gateway scrape.
	found := false
	for _, snap := range stack.Gateway.Metrics() {
		if snap.Origin == "controller/FZJ" && snap.Total("controller_reconcile_total") > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("controller metrics are not visible through the gateway scrape")
	}

	// Admit a job through the pool, then crash its owning replica.
	id, err := stack.Router.Consign(context.Background(), alice.DN(), "stack-cid-1", stackJob(t, "probe"))
	if err != nil {
		t.Fatalf("Consign: %v", err)
	}
	var crashed *njs.NJS
	for _, n := range stack.Replicas() {
		if n.Instance() == njs.JobInstance("FZJ", id) {
			crashed = n
		}
	}
	if crashed == nil {
		t.Fatalf("admitted job %s names no replica", id)
	}
	if err := crashed.SyncJournal(); err != nil {
		t.Fatalf("SyncJournal: %v", err)
	}
	crashed.Kill()

	res, err := stack.Controller.ReconcileNow()
	if err != nil {
		t.Fatalf("heal pass: %v", err)
	}
	if res.Healed != 1 {
		t.Fatalf("heal pass = %+v, want one heal", res)
	}
	if reply, err := stack.Router.Poll(alice.DN(), false, id); err != nil || !reply.Found {
		t.Fatalf("job lost across crash+heal: found=%v err=%v", reply.Found, err)
	}

	// Roll the fleet: generation bump replaces both replicas one at a time,
	// and the journal-recovered instances still hold the job.
	spec.Sites[0].Vsites[0].Generation = 1
	if err := stack.Apply(spec); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	for i := 0; i < 4; i++ {
		if res, err := stack.Controller.ReconcileNow(); err != nil {
			t.Fatalf("roll pass %d: %v", i, err)
		} else if res.Converged {
			break
		}
	}
	snap := stack.Controller.Telemetry().Snapshot()
	if got := snap.Total("controller_roll_total"); got != 2 {
		t.Fatalf("controller_roll_total = %v, want 2", got)
	}
	if reply, err := stack.Router.Poll(alice.DN(), false, id); err != nil || !reply.Found {
		t.Fatalf("job lost across the rolling replacement: err=%v", err)
	}
	if err := stack.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestStackReplicasReachPeerSites boots two sites of one shared spec as two
// stacks and runs a job group across them: the main job at FZJ needs a file
// its sub-job produces at ZIB. Every replica a stack builds must carry a peer
// client routed by the spec's peers block, or the FZJ replica can neither
// consign the sub-job to ZIB nor pull the file back from ZIB's Uspace.
func TestStackReplicasReachPeerSites(t *testing.T) {
	clock := sim.NewVirtualClock()
	ca, err := pki.NewAuthority("DFN-PCA")
	if err != nil {
		t.Fatalf("NewAuthority: %v", err)
	}
	alice, err := ca.IssueUser("Alice Ahlmann", "FZJ")
	if err != nil {
		t.Fatalf("IssueUser: %v", err)
	}
	users := []deploy.UserMapping{{
		DN:     alice.DN(),
		Logins: map[core.Vsite]uudb.Login{"T3E": {UID: "aahlm"}},
	}}
	t3e := []deploy.TopologyVsite{{Name: "T3E", Machine: "t3e", Replicas: 2}}
	spec := &deploy.TopologySpec{
		Version: deploy.TopologyVersion,
		Sites: []deploy.TopologySite{
			{Usite: "FZJ", Vsites: t3e, Users: users},
			{Usite: "ZIB", Vsites: t3e, Users: users},
		},
		Peers: []deploy.TopologyPeer{
			{Usite: "FZJ", URL: "https://gw.fzj"},
			{Usite: "ZIB", URL: "https://gw.zib"},
		},
	}
	net := protocol.NewInProc()
	stacks := map[core.Usite]*Stack{}
	for usite, host := range map[core.Usite]string{"FZJ": "gw.fzj", "ZIB": "gw.zib"} {
		cred, err := ca.IssueServer("gateway."+string(usite), host)
		if err != nil {
			t.Fatalf("IssueServer: %v", err)
		}
		stack, err := NewStack(StackConfig{
			Spec: spec, Usite: usite, Cred: cred, CA: ca, Clock: clock, FedTransport: net,
		})
		if err != nil {
			t.Fatalf("NewStack(%s): %v", usite, err)
		}
		defer stack.Close()
		// The gossip loop re-arms forever; under the virtual clock that
		// would keep RunUntilIdle from ever going idle.
		stack.Federation.Stop()
		net.Register(host, stack.Gateway)
		stacks[usite] = stack
	}

	pre := client.NewJob("pre", core.Target{Usite: "ZIB", Vsite: "T3E"})
	pre.Script("prepare", "write grid.dat 4096\n", resources.Request{Processors: 1, RunTime: 10 * time.Minute})
	b := client.NewJob("coupled", core.Target{Usite: "FZJ", Vsite: "T3E"})
	sub := b.SubJob(pre)
	tr := b.Transfer("fetch grid", sub, "grid.dat")
	run := b.Script("main", "cat grid.dat > used.tmp\n", resources.Request{Processors: 1, RunTime: 10 * time.Minute})
	b.Chain(sub, tr, run)
	job, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	id, err := stacks["FZJ"].Router.Consign(context.Background(), alice.DN(), "coupled-1", job)
	if err != nil {
		t.Fatalf("Consign: %v", err)
	}
	if fired := clock.RunUntilIdle(1_000_000); fired >= 1_000_000 {
		t.Fatal("clock never went idle")
	}
	o, found, err := stacks["FZJ"].Router.Outcome(alice.DN(), false, id)
	if err != nil || !found {
		t.Fatalf("Outcome: found=%v err=%v", found, err)
	}
	if o.Status != ajo.StatusSuccessful {
		t.Fatalf("job group across two stacks = %s, want SUCCESSFUL:\n%s", o.Status, o.Render())
	}
	// The sub-job really ran behind ZIB's gateway.
	if jobs, err := stacks["ZIB"].Router.List(alice.DN()); err != nil || len(jobs) != 1 {
		t.Fatalf("ZIB lists %v (err %v), want the 1 sub-job", jobs, err)
	}
}
