package testbed_test

import (
	"context"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
	"unicore/internal/testbed"

	"unicore/internal/accounting"
	"unicore/internal/ajo"
	"unicore/internal/client"
	"unicore/internal/core"
	"unicore/internal/deploy"
	"unicore/internal/pki"
	"unicore/internal/protocol"
	"unicore/internal/resources"
)

func TestSingleSiteQuickJob(t *testing.T) {
	d, err := testbed.SingleSite("DEMO", "CLUSTER", 8)
	if err != nil {
		t.Fatalf("SingleSite: %v", err)
	}
	defer d.Close()
	user, err := d.NewUser("Demo User", "Demo", "demo")
	if err != nil {
		t.Fatalf("NewUser: %v", err)
	}
	sess := d.Session(user, "DEMO")

	b := client.NewJob("hello", core.Target{Usite: "DEMO", Vsite: "CLUSTER"})
	b.Script("greet", "echo hello from the testbed\n", resources.Request{Processors: 1, RunTime: time.Minute})
	job, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	id, err := sess.Submit(context.Background(), job)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	d.Run(100000)
	sum, err := d.Session(user, "DEMO").Status(context.Background(), id)
	if err != nil {
		t.Fatalf("Status: %v", err)
	}
	if sum.Status != ajo.StatusSuccessful {
		t.Fatalf("status = %s", sum.Status)
	}
}

// TestSessionsShareOneClientPerCredential: one-off sessions of one user
// share that user's client, so five of them open one stream and verify one
// certificate, not five.
func TestSessionsShareOneClientPerCredential(t *testing.T) {
	d, err := testbed.SingleSite("DEMO", "CLUSTER", 4)
	if err != nil {
		t.Fatalf("SingleSite: %v", err)
	}
	defer d.Close()
	user, err := d.NewUser("Demo User", "Demo", "demo")
	if err != nil {
		t.Fatalf("NewUser: %v", err)
	}
	verifies := func() float64 {
		snaps, err := d.Metrics("DEMO")
		if err != nil {
			t.Fatalf("Metrics: %v", err)
		}
		total := 0.0
		for _, s := range snaps {
			total += s.Total("pki_verify_total")
		}
		return total
	}
	for i := 0; i < 5; i++ {
		if _, err := d.Session(user, "DEMO").List(context.Background()); err != nil {
			t.Fatalf("List %d: %v", i, err)
		}
	}
	if n := verifies(); n != 1 {
		t.Fatalf("five one-off sessions cost %v certificate verifies, want 1", n)
	}
	// Sessions opened from several goroutines at once share the same client.
	var wg sync.WaitGroup
	for i := 0; i < 5; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := d.Session(user, "DEMO").List(context.Background()); err != nil {
				t.Errorf("concurrent List: %v", err)
			}
		}()
	}
	wg.Wait()
	if n := verifies(); n != 1 {
		t.Fatalf("ten sessions cost %v certificate verifies, want 1", n)
	}
}

// sessions opens one session per Usite of the deployment for a user, so a
// workload that spans sites submits each job at its own Usite.
func sessions(d *testbed.Deployment, user *pki.Credential) map[core.Usite]*client.Session {
	out := make(map[core.Usite]*client.Session)
	for _, u := range d.Usites() {
		out[u] = d.Session(user, u)
	}
	return out
}

func TestGermanTopology(t *testing.T) {
	d, err := testbed.German()
	if err != nil {
		t.Fatalf("German: %v", err)
	}
	defer d.Close()
	if got := len(d.Sites); got != 6 {
		t.Fatalf("sites = %d, want 6", got)
	}
	wantArch := map[core.Usite]string{
		"FZJ": "Cray T3E", "RUS": "NEC SX-4", "RUKA": "IBM SP-2",
		"LRZ": "Fujitsu VPP700", "ZIB": "Cray T3E", "DWD": "NEC SX-4",
	}
	for u, arch := range wantArch {
		site, ok := d.Sites[u]
		if !ok {
			t.Fatalf("missing site %s", u)
		}
		pages := site.NJS.Pages()
		if len(pages) != 1 || pages[0].Architecture != arch {
			t.Fatalf("%s architecture = %+v, want %s", u, pages, arch)
		}
	}
	if got := len(d.Targets()); got != 6 {
		t.Fatalf("targets = %d, want 6", got)
	}
	// Every gateway serves the two signed applets.
	for u, site := range d.Sites {
		names := site.Gateway.AppletNames()
		if len(names) != 2 || names[0] != "jmc" || names[1] != "jpa" {
			t.Fatalf("%s applets = %v", u, names)
		}
	}
}

func TestMultiSiteJobAcrossGermany(t *testing.T) {
	d, err := testbed.German()
	if err != nil {
		t.Fatalf("German: %v", err)
	}
	defer d.Close()
	user, err := d.NewUser("Grid User", "GCS", "grid")
	if err != nil {
		t.Fatalf("NewUser: %v", err)
	}
	sess := d.Session(user, "FZJ")

	// Pre-processing at ZIB, main run at FZJ, with a Uspace-to-Uspace
	// transfer between them (§5.6).
	pre := client.NewJob("pre", core.Target{Usite: "ZIB", Vsite: "T3E"})
	pre.Script("prepare", "write grid.dat 4096\necho prepared\n",
		resources.Request{Processors: 1, RunTime: 10 * time.Minute})

	b := client.NewJob("coupled", core.Target{Usite: "FZJ", Vsite: "T3E"})
	sub := b.SubJob(pre)
	tr := b.Transfer("fetch grid", sub, "grid.dat")
	run := b.Script("main", "cat grid.dat > used.tmp\ncpu 30m\necho main done\n",
		resources.Request{Processors: 8, RunTime: 2 * time.Hour})
	b.Chain(sub, tr, run)
	job, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	id, err := sess.Submit(context.Background(), job)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	d.Run(1000000)

	sum, err := d.Session(user, "FZJ").Status(context.Background(), id)
	if err != nil {
		t.Fatalf("Status: %v", err)
	}
	if sum.Status != ajo.StatusSuccessful {
		o, oerr := d.Session(user, "FZJ").Outcome(context.Background(), id)
		if oerr == nil {
			t.Logf("outcome:\n%s", o.Render())
		}
		t.Fatalf("status = %s, want SUCCESSFUL", sum.Status)
	}

	// The ZIB batch system must have run the pre job: cross-site accounting.
	recs := d.Accounting()
	var zibJobs int
	for _, r := range recs {
		if r.Target.Usite == "ZIB" {
			zibJobs++
		}
	}
	if zibJobs != 1 {
		t.Fatalf("ZIB accounting shows %d jobs, want 1", zibJobs)
	}
}

// TestManagedSiteReachesLaterSite deploys two controller-managed sites one
// after the other: the first stack's registry was seeded before the second
// site existed, and its replicas must still be able to consign a sub-job to
// it and pull the result back (§5.6) through the second site's pool.
func TestManagedSiteReachesLaterSite(t *testing.T) {
	spec := &deploy.TopologySpec{Version: deploy.TopologyVersion}
	for _, u := range []core.Usite{"FIRST", "LATER"} {
		spec.Sites = append(spec.Sites, deploy.TopologySite{
			Usite:  u,
			Vsites: []deploy.TopologyVsite{{Name: "CLUSTER", Machine: "cluster", Replicas: 2}},
		})
	}
	d, _, err := testbed.NewManaged(spec, "FIRST", "")
	if err != nil {
		t.Fatalf("NewManaged: %v", err)
	}
	defer d.Close()
	if _, err := d.ApplySpec(spec, "LATER", ""); err != nil {
		t.Fatalf("ApplySpec(LATER): %v", err)
	}
	user, err := d.NewUser("Late User", "Test", "late")
	if err != nil {
		t.Fatalf("NewUser: %v", err)
	}

	pre := client.NewJob("pre", core.Target{Usite: "LATER", Vsite: "CLUSTER"})
	pre.Script("prepare", "write grid.dat 4096\n", resources.Request{Processors: 1, RunTime: 10 * time.Minute})
	b := client.NewJob("coupled", core.Target{Usite: "FIRST", Vsite: "CLUSTER"})
	sub := b.SubJob(pre)
	tr := b.Transfer("fetch grid", sub, "grid.dat")
	run := b.Script("main", "cat grid.dat > used.tmp\n", resources.Request{Processors: 1, RunTime: time.Hour})
	b.Chain(sub, tr, run)
	job, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	sess := d.Session(user, "FIRST")
	id, err := sess.Submit(context.Background(), job)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	d.Run(1_000_000)
	o, err := sess.Outcome(context.Background(), id)
	if err != nil {
		t.Fatalf("Outcome: %v", err)
	}
	if o.Status != ajo.StatusSuccessful {
		t.Fatalf("job at FIRST with a sub-job for LATER finished %s:\n%s", o.Status, o.Render())
	}
}

func TestSplitSiteInDeployment(t *testing.T) {
	specs := testbed.GermanSpecs()[:2]
	specs[0].Split = true
	d, err := testbed.New(specs...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer d.Close()
	if d.Sites[specs[0].Usite].Front == nil {
		t.Fatal("split site has no front")
	}
	user, err := d.NewUser("Split User", "FZJ", "split")
	if err != nil {
		t.Fatalf("NewUser: %v", err)
	}
	sess := d.Session(user, specs[0].Usite)
	b := client.NewJob("via-firewall", core.Target{Usite: specs[0].Usite, Vsite: "T3E"})
	b.Script("hello", "echo hello\n", resources.Request{Processors: 1, RunTime: time.Minute})
	job, _ := b.Build()
	id, err := sess.Submit(context.Background(), job)
	if err != nil {
		t.Fatalf("Submit through split gateway: %v", err)
	}
	d.Run(100000)
	sum, err := d.Session(user, specs[0].Usite).Status(context.Background(), id)
	if err != nil || sum.Status != ajo.StatusSuccessful {
		t.Fatalf("status = %v (err %v)", sum.Status, err)
	}
}

// TestSplitSiteRidesTheStream: a Session behind a §5.2 firewall front is on
// the same door as everyone else. It submits, watches to the terminal event,
// lists and fetches an outcome over one spliced stream — one hello and one
// chain verify at the inner gateway, no envelopes, and a watch that is its
// synchronous first fetch plus one push subscription however many batches
// arrive — and every reply is what the combined site gives.
func TestSplitSiteRidesTheStream(t *testing.T) {
	type replies struct {
		Events  []client.JobEvent
		Jobs    []protocol.JobInfo
		Outcome []byte // the tree, marshalled: its times compare by instant
	}
	// One job for both sites: action IDs are minted per process, not per site.
	b := client.NewJob("via-firewall", core.Target{Usite: testbed.GermanSpecs()[0].Usite, Vsite: "T3E"})
	one := b.Script("one", "cpu 5m\necho a > x.txt\n", resources.Request{Processors: 1, RunTime: time.Hour})
	two := b.Script("two", "cpu 5m\ncat x.txt\n", resources.Request{Processors: 1, RunTime: time.Hour})
	b.After(one, two, "x.txt")
	job, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	run := func(t *testing.T, split bool) replies {
		specs := testbed.GermanSpecs()[:1]
		specs[0].Split = split
		d, err := testbed.New(specs...)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		defer d.Close()
		usite := specs[0].Usite
		user, err := d.NewUser("Stream User", "FZJ", "stream")
		if err != nil {
			t.Fatalf("NewUser: %v", err)
		}
		c := d.UserClient(user)
		defer c.Close()
		sess := client.NewSession(c, usite)
		ctx := context.Background()

		id, err := sess.Submit(ctx, job)
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		events, err := sess.Watch(ctx, id)
		if err != nil {
			t.Fatalf("Watch: %v", err)
		}
		// Run the job only once the push subscription is parked inside, so
		// everything past the first fetch has to be pushed.
		gw := d.Sites[usite].Gateway
		gauge := func(name string, kv ...string) float64 {
			for _, p := range gw.Telemetry().Snapshot().Metrics {
				if p.Name == name && len(p.Labels) == len(kv)/2 && (len(kv) == 0 || p.Labels[kv[0]] == kv[1]) {
					return p.Value
				}
			}
			return 0
		}
		for gauge("gateway_longpoll_active") < 1 {
			time.Sleep(time.Millisecond)
		}
		go d.Run(1_000_000)
		var got replies
		for ev := range events {
			got.Events = append(got.Events, ev)
		}
		if n := len(got.Events); n == 0 || !got.Events[n-1].Terminal {
			t.Fatalf("watch ended after %d events without the terminal one", n)
		}
		if got.Jobs, err = sess.List(ctx); err != nil || len(got.Jobs) != 1 {
			t.Fatalf("List: %+v, %v", got.Jobs, err)
		}
		tree, err := sess.Outcome(ctx, id)
		if err != nil || tree.Status != ajo.StatusSuccessful {
			t.Fatalf("Outcome: %+v, %v", tree, err)
		}
		if got.Outcome, err = ajo.MarshalOutcome(tree); err != nil {
			t.Fatalf("MarshalOutcome: %v", err)
		}

		for _, series := range []struct {
			name string
			kv   []string
			want float64
		}{
			{"gateway_stream_hellos_total", []string{"role", "user"}, 1},
			{"pki_verify_total", nil, 1},
			{"gateway_stream_frames_total", []string{"kind", "sub"}, 2},
		} {
			if got := gauge(series.name, series.kv...); got != series.want {
				t.Errorf("inner gateway %s%v = %v, want %v", series.name, series.kv, got, series.want)
			}
		}
		if n := gw.Telemetry().Snapshot().Total("gateway_requests_total"); n != 0 {
			t.Errorf("inner gateway counted %v envelopes, want 0: an op fell off the stream", n)
		}
		return got
	}
	split, combined := run(t, true), run(t, false)
	if !reflect.DeepEqual(split, combined) {
		t.Fatalf("replies differ behind the front:\n  split:    %+v\n  combined: %+v", split.Events, combined.Events)
	}
	if len(split.Events) < 4 {
		t.Fatalf("only %d events watched: %+v", len(split.Events), split.Events)
	}
}

// TestSplitSiteServesTheWebPage: the front is "the https Web server which
// provides the UNICORE Web page" (§4.2) — its index lists the site's Vsites
// and signed applets exactly as the combined gateway's does.
func TestSplitSiteServesTheWebPage(t *testing.T) {
	page := func(split bool) string {
		specs := testbed.GermanSpecs()[:1]
		specs[0].Split = split
		d, err := testbed.New(specs...)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		defer d.Close()
		base, _ := d.Registry.Lookup(specs[0].Usite)
		req, _ := http.NewRequest(http.MethodGet, base+"/", nil)
		resp, err := d.Net.RoundTrip(req)
		if err != nil {
			t.Fatalf("GET /: %v", err)
		}
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET / (split=%v) = %d: %s", split, resp.StatusCode, body)
		}
		return string(body)
	}
	split, combined := page(true), page(false)
	if split != combined {
		t.Fatalf("the split site's page differs:\n%s\nwant\n%s", split, combined)
	}
	for _, want := range []string{"T3E", "jpa", "jmc"} {
		if !strings.Contains(split, want) {
			t.Errorf("the split site's page does not list %q:\n%s", want, split)
		}
	}
}

func TestWorkloadGeneratorDeterminism(t *testing.T) {
	targets := []core.Target{
		{Usite: "FZJ", Vsite: "T3E"},
		{Usite: "LRZ", Vsite: "VPP"},
	}
	cfg := testbed.DefaultWorkload(42, 50, targets)
	w1, err := testbed.GenerateWorkload(cfg)
	if err != nil {
		t.Fatalf("GenerateWorkload: %v", err)
	}
	w2, err := testbed.GenerateWorkload(cfg)
	if err != nil {
		t.Fatalf("GenerateWorkload: %v", err)
	}
	if len(w1) != 50 || len(w2) != 50 {
		t.Fatalf("sizes = %d, %d", len(w1), len(w2))
	}
	for i := range w1 {
		if w1[i].Name() != w2[i].Name() || w1[i].Target != w2[i].Target ||
			w1[i].CountActions() != w2[i].CountActions() {
			t.Fatalf("job %d differs between runs", i)
		}
	}
	// The mix contains all three shapes.
	var compiles, multis, scripts int
	for _, j := range w1 {
		switch {
		case hasKind(j, ajo.KindCompile):
			compiles++
		case hasKind(j, ajo.KindJob):
			multis++
		default:
			scripts++
		}
	}
	if compiles == 0 || multis == 0 || scripts == 0 {
		t.Fatalf("mix = %d compile, %d multi, %d script; want all > 0", compiles, multis, scripts)
	}
}

func hasKind(j *ajo.AbstractJob, k ajo.Kind) bool {
	found := false
	j.Walk(func(a ajo.Action) {
		if a != ajo.Action(j) && a.Kind() == k {
			found = true
		}
	})
	return found
}

func TestWorkloadRunsOnGermanTestbed(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-minute virtual workload")
	}
	d, err := testbed.German()
	if err != nil {
		t.Fatalf("German: %v", err)
	}
	defer d.Close()
	user, err := d.NewUser("Load User", "GCS", "load")
	if err != nil {
		t.Fatalf("NewUser: %v", err)
	}
	sess := sessions(d, user)

	jobs, err := testbed.GenerateWorkload(testbed.DefaultWorkload(7, 30, d.Targets()))
	if err != nil {
		t.Fatalf("GenerateWorkload: %v", err)
	}
	ids := make(map[core.JobID]core.Usite, len(jobs))
	for _, j := range jobs {
		id, err := sess[j.Target.Usite].Submit(context.Background(), j)
		if err != nil {
			t.Fatalf("Submit %s: %v", j.Name(), err)
		}
		ids[id] = j.Target.Usite
	}
	d.Run(10_000_000)

	var ok, bad int
	for id, usite := range ids {
		sum, err := d.Session(user, usite).Status(context.Background(), id)
		if err != nil {
			t.Fatalf("Status %s: %v", id, err)
		}
		if sum.Status == ajo.StatusSuccessful {
			ok++
		} else {
			bad++
			o, oerr := d.Session(user, usite).Outcome(context.Background(), id)
			if oerr == nil {
				t.Errorf("job %s failed:\n%s", id, o.Render())
			}
		}
	}
	if bad != 0 {
		t.Fatalf("workload: %d ok, %d failed", ok, bad)
	}

	recs := d.Accounting()
	sum := accounting.Summarise(recs)
	if sum.Failed != 0 {
		t.Fatalf("accounting reports %d failed batch jobs:\n%s", sum.Failed, accounting.CSV(recs))
	}
	if sum.Jobs < 30 {
		t.Fatalf("accounting has %d records, want >= 30 (one per executable task)", sum.Jobs)
	}
	if accounting.Makespan(recs) <= 0 {
		t.Fatal("zero makespan")
	}
}

func TestAppletDistribution(t *testing.T) {
	d, err := testbed.SingleSite("DEMO", "CLUSTER", 4)
	if err != nil {
		t.Fatalf("SingleSite: %v", err)
	}
	defer d.Close()
	user, err := d.NewUser("Applet User", "Demo", "app")
	if err != nil {
		t.Fatalf("NewUser: %v", err)
	}
	c := d.UserClient(user)
	var applet protocol.AppletReply
	if err := protocol.Do(context.Background(), c, "DEMO", protocol.OpApplet, protocol.AppletRequest{Name: "jpa"}, &applet); err != nil {
		t.Fatalf("fetching applet: %v", err)
	}
	if !strings.Contains(string(applet.Payload), "signed jpa applet") {
		t.Fatalf("payload = %q", applet.Payload)
	}
	signer, err := d.CA.VerifySignature(applet.Payload, applet.Signature, pki.RoleSoftware)
	if err != nil || signer != d.Software.DN() {
		t.Fatalf("signer = %s, %v", signer, err)
	}
}

func TestNewRejectsBadSpecs(t *testing.T) {
	if _, err := testbed.New(); err == nil {
		t.Fatal("empty deployment created")
	}
	spec := testbed.GermanSpecs()[0]
	if _, err := testbed.New(spec, spec); err == nil {
		t.Fatal("duplicate Usite accepted")
	}
}
