package testbed_test

// End-to-end coverage of the federated multi-gateway grid: broker-driven
// placement across gateways, the cross-gateway durable-ack contract under
// the worst-timed gateway failures, DAGs spanning gateways, and a soak that
// kills a peer gateway mid-workload.

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
	"time"
	"unicore/internal/testbed"
	"unicore/internal/testbed/testbedtest"

	"unicore/internal/ajo"
	"unicore/internal/client"
	"unicore/internal/core"
	"unicore/internal/machine"
	"unicore/internal/njs"
	"unicore/internal/protocol"
	"unicore/internal/resources"
)

// fedPair deploys a small FZJ (2 PEs) next to a large DWD (32 PEs), federated
// and gossiped: a job needing more than 2 PEs consigned at FZJ can only run
// behind DWD's gateway.
func fedPair(t *testing.T) (*testbed.Deployment, *testbedtest.Mesh) {
	t.Helper()
	d, err := testbed.New(
		testbed.SiteSpec{Usite: "FZJ", Vsites: []njs.VsiteConfig{{Name: "SMALL", Profile: machine.GenericCluster(2)}}},
		testbed.SiteSpec{Usite: "DWD", Vsites: []njs.VsiteConfig{{Name: "BIG", Profile: machine.GenericCluster(32)}}},
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(d.Close)
	mesh, err := testbedtest.EnableFederation(d)
	if err != nil {
		t.Fatalf("EnableFederation: %v", err)
	}
	mesh.GossipAll()
	mesh.GossipAll()
	return d, mesh
}

// bigJob builds a job only DWD's 32-PE cluster can satisfy, targeted at the
// origin Usite with no Vsite — the `unicore-submit -site auto` shape.
func bigJob(name string) (*ajo.AbstractJob, error) {
	b := client.NewJob(name, core.Target{Usite: "FZJ"})
	b.Script("main", "write out.dat 512\necho ran remotely\n",
		resources.Request{Processors: 8, RunTime: 30 * time.Minute})
	return b.Build()
}

// TestFederatedAutoPlacement is the acceptance scenario: a job consigned at
// gateway A with no explicit Vsite lands on a Vsite fronted by gateway B,
// completes there, and is awaitable and fetchable from A.
func TestFederatedAutoPlacement(t *testing.T) {
	d, mesh := fedPair(t)
	user, err := d.NewUser("Fed User", "Grid", "fed")
	if err != nil {
		t.Fatalf("NewUser: %v", err)
	}
	sess := d.Session(user, "FZJ")

	job, err := bigJob("auto-placed")
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	id, err := sess.Submit(context.Background(), job)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if !strings.HasPrefix(string(id), "DWD-") {
		t.Fatalf("job ID %s: auto placement did not forward to DWD", id)
	}
	d.Run(1_000_000)

	// Status, outcome, and file fetch all resolve through the origin.
	sum, err := d.Session(user, "FZJ").Status(context.Background(), id)
	if err != nil {
		t.Fatalf("Status via origin: %v", err)
	}
	if sum.Status != ajo.StatusSuccessful {
		t.Fatalf("status = %s, want SUCCESSFUL", sum.Status)
	}
	if _, err := d.Session(user, "FZJ").Outcome(context.Background(), id); err != nil {
		t.Fatalf("Outcome via origin: %v", err)
	}
	var data bytes.Buffer
	if _, err := d.Session(user, "FZJ").Download(context.Background(), id, "out.dat", &data); err != nil {
		t.Fatalf("Download via origin: %v", err)
	}
	if data.Len() != 512 {
		t.Fatalf("fetched %d bytes, want 512", data.Len())
	}

	// The work was charged where it ran.
	if recs := d.SiteAccounting("DWD"); len(recs) == 0 {
		t.Fatal("no accounting at DWD after a forwarded job ran there")
	}
	// And the forward shows in the origin's federation telemetry.
	snap := mesh.Federation("FZJ").Registry().Snapshot()
	forwards := -1.0
	for _, p := range snap.Metrics {
		if p.Name == "fed_forward_total" && len(p.Labels) == 1 && p.Labels["peer"] == "DWD" {
			forwards = p.Value
		}
	}
	if forwards != 1 {
		t.Fatalf("fed_forward_total{peer=DWD} = %v, want 1", forwards)
	}
}

// TestFederatedPlacementRefusedByStranger checks the placement record is the
// authorization boundary: a user who did not forward the job through this
// gateway cannot reach it by ID.
func TestFederatedPlacementRefusedByStranger(t *testing.T) {
	d, _ := fedPair(t)
	owner, err := d.NewUser("Owner", "Grid", "owner")
	if err != nil {
		t.Fatalf("NewUser: %v", err)
	}
	eve, err := d.NewUser("Eve", "Grid", "eve")
	if err != nil {
		t.Fatalf("NewUser: %v", err)
	}
	job, err := bigJob("private")
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	id, err := d.Session(owner, "FZJ").Submit(context.Background(), job)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := d.Session(eve, "FZJ").Status(context.Background(), id); err == nil {
		t.Fatal("stranger polled a remotely-placed job through the origin gateway")
	}
}

// TestFederatedConsignSurvivesPeerGatewayRestart exercises the cross-gateway
// durable-ack contract: the remote gateway processes the forwarded consign
// but its ack is lost, then the gateway dies and restarts — the origin must
// never have acked, the client's retry with the same consign ID must
// converge on the single admitted job, and the job must complete with a
// contiguous event stream readable from the origin.
func TestFederatedConsignSurvivesPeerGatewayRestart(t *testing.T) {
	d, mesh := fedPair(t)
	store, err := d.EnableDurability("DWD", t.TempDir(), 0)
	if err != nil {
		t.Fatalf("EnableDurability: %v", err)
	}
	defer store.Close()
	user, err := d.NewUser("Ack User", "Grid", "ack")
	if err != nil {
		t.Fatalf("NewUser: %v", err)
	}
	raw := d.UserClient(user)
	job, err := bigJob("survives-restart")
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	ajoRaw, err := ajo.Marshal(job)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	const consignID = "fed-restart-1"
	consign := func() (protocol.ConsignReply, error) {
		var reply protocol.ConsignReply
		err := protocol.Do(context.Background(), raw, "FZJ", protocol.OpConsign,
			protocol.ConsignRequest{ConsignID: consignID, AJO: ajoRaw}, &reply)
		return reply, err
	}

	// The remote gateway admits the job but the ack is lost in transit: the
	// origin must answer not-accepted (it cannot know the admission stuck).
	if err := mesh.BlackholeGateway("DWD"); err != nil {
		t.Fatalf("BlackholeGateway: %v", err)
	}
	reply, err := consign()
	if err != nil {
		t.Fatalf("consign during blackhole: %v", err)
	}
	if reply.Accepted {
		t.Fatal("origin acked a forward whose reply was lost — double-ack risk")
	}
	if admitted, err := d.Sites["DWD"].NJS.List(user.DN()); err != nil || len(admitted) != 1 {
		t.Fatalf("DWD admitted %d jobs (%v) behind the blackhole, want the 1 whose ack was lost", len(admitted), err)
	}

	// Then the gateway process dies outright; a retry still must not ack.
	if err := mesh.KillGateway("DWD"); err != nil {
		t.Fatalf("KillGateway: %v", err)
	}
	reply, err = consign()
	if err != nil {
		t.Fatalf("consign while peer dead: %v", err)
	}
	if reply.Accepted {
		t.Fatal("origin acked a forward to a dead gateway")
	}

	// Gateway back: the retry with the same consign ID converges on the job
	// the blackholed forward already admitted — accepted exactly once.
	if err := mesh.RestartGateway("DWD"); err != nil {
		t.Fatalf("RestartGateway: %v", err)
	}
	reply, err = consign()
	if err != nil {
		t.Fatalf("consign after restart: %v", err)
	}
	if !reply.Accepted || reply.Job == "" {
		t.Fatalf("retry after restart not accepted: %+v", reply)
	}
	id := reply.Job

	// Exactly one job exists at the remote site: the retries deduplicated.
	jobs, err := d.Session(user, "DWD").List(context.Background())
	if err != nil {
		t.Fatalf("List at DWD: %v", err)
	}
	if len(jobs) != 1 || jobs[0].Job != id {
		t.Fatalf("DWD holds %+v, want exactly [%s]", jobs, id)
	}

	d.Run(1_000_000)
	sum, err := d.Session(user, "FZJ").Status(context.Background(), id)
	if err != nil {
		t.Fatalf("Status via origin: %v", err)
	}
	if sum.Status != ajo.StatusSuccessful {
		t.Fatalf("status = %s, want SUCCESSFUL", sum.Status)
	}

	// The event stream read through the origin is complete and contiguous.
	sess := d.Session(user, "FZJ")
	ev, err := sess.Events(context.Background(), protocol.SubscribeRequest{Job: id})
	if err != nil {
		t.Fatalf("Events via origin: %v", err)
	}
	if len(ev.Events) == 0 || ev.Gap {
		t.Fatalf("event stream empty or gapped: %+v", ev)
	}
	for i, e := range ev.Events {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d — stream not contiguous", i, e.Seq)
		}
	}
	onlyGossipIsPosted(t, d, "DWD")
}

// onlyGossipIsPosted requires that every hop a site served rode the frame
// stream through its gate: the only envelopes its gateway counted are gossip.
func onlyGossipIsPosted(t *testing.T, d *testbed.Deployment, u core.Usite) {
	t.Helper()
	gw := d.Sites[u].Gateway
	for _, p := range gw.Telemetry().Snapshot().Metrics {
		if typ := p.Labels["type"]; p.Name == "gateway_requests_total" && typ != string(protocol.MsgFedAdvertise) && p.Value != 0 {
			t.Errorf("%s served %v %s envelopes; every forwarded hop rides the stream", u, p.Value, typ)
		}
	}
	if gw.Telemetry().Snapshot().Total("gateway_stream_frames_total") == 0 {
		t.Errorf("%s served no stream frames", u)
	}
}

// TestDagSpansGateways runs a DAG whose parent is auto-placed behind the
// peer gateway while an explicit sub-job runs back at the origin site, with
// a Uspace-to-Uspace transfer fanning the sub-job's output in.
func TestDagSpansGateways(t *testing.T) {
	d, _ := fedPair(t)
	user, err := d.NewUser("DAG User", "Grid", "dag")
	if err != nil {
		t.Fatalf("NewUser: %v", err)
	}
	sess := d.Session(user, "FZJ")

	pre := client.NewJob("pre", core.Target{Usite: "FZJ", Vsite: "SMALL"})
	pre.Script("prepare", "write grid.dat 2048\necho prepared\n",
		resources.Request{Processors: 1, RunTime: 10 * time.Minute})

	b := client.NewJob("spanning", core.Target{Usite: "FZJ"})
	sub := b.SubJob(pre)
	tr := b.Transfer("fetch grid", sub, "grid.dat")
	run := b.Script("main", "cat grid.dat > used.tmp\ncpu 10m\necho main done\n",
		resources.Request{Processors: 8, RunTime: time.Hour})
	b.Chain(sub, tr, run)
	job, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	id, err := sess.Submit(context.Background(), job)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if !strings.HasPrefix(string(id), "DWD-") {
		t.Fatalf("job ID %s: parent was not auto-placed at DWD", id)
	}
	d.Run(2_000_000)

	sum, err := d.Session(user, "FZJ").Status(context.Background(), id)
	if err != nil {
		t.Fatalf("Status via origin: %v", err)
	}
	if sum.Status != ajo.StatusSuccessful {
		if o, oerr := d.Session(user, "FZJ").Outcome(context.Background(), id); oerr == nil {
			t.Logf("outcome:\n%s", o.Render())
		}
		t.Fatalf("status = %s, want SUCCESSFUL", sum.Status)
	}
	// Both sides of the grid did work: the sub-job at FZJ, the main at DWD.
	if recs := d.SiteAccounting("FZJ"); len(recs) == 0 {
		t.Fatal("no accounting at FZJ — the sub-job did not run at the origin site")
	}
	if recs := d.SiteAccounting("DWD"); len(recs) == 0 {
		t.Fatal("no accounting at DWD — the parent did not run at the peer")
	}
}

// TestFederationSoakPeerKilledMidWorkload is the chaos soak the CI job
// drives: a stream of auto-placed jobs across two gateways while the peer
// gateway is killed and restarted mid-workload. Every job the origin acked
// must complete exactly once; refused forwards must converge on retry.
func TestFederationSoakPeerKilledMidWorkload(t *testing.T) {
	d, mesh := fedPair(t)
	user, err := d.NewUser("Soak User", "Grid", "soak")
	if err != nil {
		t.Fatalf("NewUser: %v", err)
	}
	sess := d.Session(user, "FZJ")

	submit := func(i int) (core.JobID, error) {
		job, err := bigJob(fmt.Sprintf("soak-%03d", i))
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		return sess.Submit(context.Background(), job)
	}

	accepted := make(map[core.JobID]bool)
	var refused []int
	for i := 0; i < 8; i++ {
		id, err := submit(i)
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		accepted[id] = true
	}
	// Kill the peer gateway mid-workload: forwards fail, the origin must
	// refuse (never ack) but keep serving.
	if err := mesh.KillGateway("DWD"); err != nil {
		t.Fatalf("KillGateway: %v", err)
	}
	for i := 8; i < 12; i++ {
		if _, err := submit(i); err == nil {
			t.Fatalf("Submit %d acked while the peer gateway was dead", i)
		} else {
			refused = append(refused, i)
		}
	}
	if err := mesh.RestartGateway("DWD"); err != nil {
		t.Fatalf("RestartGateway: %v", err)
	}
	for _, i := range refused {
		id, err := submit(i)
		if err != nil {
			t.Fatalf("re-Submit %d after restart: %v", i, err)
		}
		accepted[id] = true
	}
	if len(accepted) != 12 {
		t.Fatalf("accepted %d distinct jobs, want 12", len(accepted))
	}
	d.Run(5_000_000)
	for id := range accepted {
		sum, err := d.Session(user, "FZJ").Status(context.Background(), id)
		if err != nil {
			t.Fatalf("Status %s: %v", id, err)
		}
		if sum.Status != ajo.StatusSuccessful {
			t.Fatalf("job %s = %s, want SUCCESSFUL", id, sum.Status)
		}
	}
	// No duplicate admissions slipped through the failures.
	jobs, err := d.Session(user, "DWD").List(context.Background())
	if err != nil {
		t.Fatalf("List at DWD: %v", err)
	}
	if len(jobs) != len(accepted) {
		t.Fatalf("DWD holds %d jobs, want %d", len(jobs), len(accepted))
	}
	onlyGossipIsPosted(t, d, "DWD")
}
