package testbed

import (
	"context"
	"strings"
	"testing"
	"time"

	"unicore/internal/accounting"
	"unicore/internal/ajo"
	"unicore/internal/client"
	"unicore/internal/core"
	"unicore/internal/resources"
)

func TestSingleSiteQuickJob(t *testing.T) {
	d, err := SingleSite("DEMO", "CLUSTER", 8)
	if err != nil {
		t.Fatalf("SingleSite: %v", err)
	}
	defer d.Close()
	user, err := d.NewUser("Demo User", "Demo", "demo")
	if err != nil {
		t.Fatalf("NewUser: %v", err)
	}
	jpa := d.JPA(user)

	b := client.NewJob("hello", core.Target{Usite: "DEMO", Vsite: "CLUSTER"})
	b.Script("greet", "echo hello from the testbed\n", resources.Request{Processors: 1, RunTime: time.Minute})
	job, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	id, err := jpa.Submit(job)
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

func TestGermanTopology(t *testing.T) {
	d, err := German()
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
	d, err := German()
	if err != nil {
		t.Fatalf("German: %v", err)
	}
	defer d.Close()
	user, err := d.NewUser("Grid User", "GCS", "grid")
	if err != nil {
		t.Fatalf("NewUser: %v", err)
	}
	jpa := d.JPA(user)

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
	id, err := jpa.Submit(job)
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
			t.Logf("outcome:\n%s", client.Display(o))
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

func TestSplitSiteInDeployment(t *testing.T) {
	specs := GermanSpecs()[:2]
	specs[0].Split = true
	d, err := New(specs...)
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
	jpa := d.JPA(user)
	b := client.NewJob("via-firewall", core.Target{Usite: specs[0].Usite, Vsite: "T3E"})
	b.Script("hello", "echo hello\n", resources.Request{Processors: 1, RunTime: time.Minute})
	job, _ := b.Build()
	id, err := jpa.Submit(job)
	if err != nil {
		t.Fatalf("Submit through split gateway: %v", err)
	}
	d.Run(100000)
	sum, err := d.Session(user, specs[0].Usite).Status(context.Background(), id)
	if err != nil || sum.Status != ajo.StatusSuccessful {
		t.Fatalf("status = %v (err %v)", sum.Status, err)
	}
}

func TestWorkloadGeneratorDeterminism(t *testing.T) {
	targets := []core.Target{
		{Usite: "FZJ", Vsite: "T3E"},
		{Usite: "LRZ", Vsite: "VPP"},
	}
	cfg := DefaultWorkload(42, 50, targets)
	w1, err := GenerateWorkload(cfg)
	if err != nil {
		t.Fatalf("GenerateWorkload: %v", err)
	}
	w2, err := GenerateWorkload(cfg)
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
	d, err := German()
	if err != nil {
		t.Fatalf("German: %v", err)
	}
	defer d.Close()
	user, err := d.NewUser("Load User", "GCS", "load")
	if err != nil {
		t.Fatalf("NewUser: %v", err)
	}
	jpa := d.JPA(user)

	jobs, err := GenerateWorkload(DefaultWorkload(7, 30, d.Targets()))
	if err != nil {
		t.Fatalf("GenerateWorkload: %v", err)
	}
	ids := make(map[core.JobID]core.Usite, len(jobs))
	for _, j := range jobs {
		id, err := jpa.Submit(j)
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
				t.Errorf("job %s failed:\n%s", id, client.Display(o))
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
	d, err := SingleSite("DEMO", "CLUSTER", 4)
	if err != nil {
		t.Fatalf("SingleSite: %v", err)
	}
	defer d.Close()
	user, err := d.NewUser("Applet User", "Demo", "app")
	if err != nil {
		t.Fatalf("NewUser: %v", err)
	}
	c := d.UserClient(user)
	applet, err := client.FetchApplet(c, d.CA, "DEMO", "jpa")
	if err != nil {
		t.Fatalf("FetchApplet: %v", err)
	}
	if !strings.Contains(string(applet.Payload), "signed jpa applet") {
		t.Fatalf("payload = %q", applet.Payload)
	}
	if applet.Signer.CommonName() != "UNICORE Consortium" {
		t.Fatalf("signer = %s", applet.Signer)
	}
}

func TestNewRejectsBadSpecs(t *testing.T) {
	if _, err := New(); err == nil {
		t.Fatal("empty deployment created")
	}
	spec := GermanSpecs()[0]
	if _, err := New(spec, spec); err == nil {
		t.Fatal("duplicate Usite accepted")
	}
}
