package deploy

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"unicore/internal/ajo"
	"unicore/internal/client"
	"unicore/internal/codine"
	"unicore/internal/core"
	"unicore/internal/njs"
	"unicore/internal/pki"
	"unicore/internal/pool"
	"unicore/internal/resources"
	"unicore/internal/sim"
	"unicore/internal/uudb"
)

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o600); err != nil {
		t.Fatalf("writing %s: %v", name, err)
	}
	return path
}

const siteJSON = `{
  "usite": "FZJ",
  "vsites": [
    {"name": "T3E", "machine": "t3e", "processors": 128, "backfill": true},
    {"name": "CLUSTER", "machine": "cluster",
     "queues": [{"name": "fast", "slots": 8, "maxTimeSec": 3600},
                {"name": "batch", "slots": 24}]}
  ],
  "users": [
    {"dn": "CN=Alice,O=FZJ,C=DE",
     "logins": {"T3E": {"uid": "alice"}, "CLUSTER": {"uid": "ali"}}}
  ]
}`

func TestLoadSiteConfig(t *testing.T) {
	path := writeTemp(t, "site.json", siteJSON)
	cfg, err := LoadSite(path)
	if err != nil {
		t.Fatalf("LoadSite: %v", err)
	}
	if cfg.Usite != "FZJ" || len(cfg.Vsites) != 2 || len(cfg.Users) != 1 {
		t.Fatalf("cfg = %+v", cfg)
	}
}

func TestSiteConfigValidation(t *testing.T) {
	bad := []string{
		`{"vsites":[{"name":"V","machine":"t3e"}]}`,                                                                // no usite
		`{"usite":"X","vsites":[]}`,                                                                                // no vsites
		`{"usite":"X","vsites":[{"name":"V","machine":"pdp11"}]}`,                                                  // unknown machine
		`{"usite":"X","vsites":[{"name":"V","machine":"t3e"},{"name":"V","machine":"t3e"}]}`,                       // dup vsite
		`{"usite":"X","vsites":[{"name":"V","machine":"t3e"}],"users":[{"dn":"CN=A","logins":{"W":{"uid":"a"}}}]}`, // unknown vsite mapping
	}
	for i, doc := range bad {
		path := writeTemp(t, "bad.json", doc)
		if _, err := LoadSite(path); err == nil {
			t.Fatalf("case %d: bad config accepted: %s", i, doc)
		}
	}
}

func TestMachineProfiles(t *testing.T) {
	for _, name := range []string{"t3e", "vpp700", "sp2", "sx4", "cluster"} {
		p, err := Machine(name, 0)
		if err != nil {
			t.Fatalf("Machine(%s): %v", name, err)
		}
		if p.Processors <= 0 {
			t.Fatalf("Machine(%s) has %d processors", name, p.Processors)
		}
	}
	p, err := Machine("t3e", 64)
	if err != nil || p.Processors != 64 {
		t.Fatalf("override: %+v, %v", p, err)
	}
	if _, err := Machine("cray1", 0); err == nil {
		t.Fatal("unknown machine accepted")
	}
}

func TestBuildSiteEndToEnd(t *testing.T) {
	path := writeTemp(t, "site.json", siteJSON)
	cfg, err := LoadSite(path)
	if err != nil {
		t.Fatalf("LoadSite: %v", err)
	}
	ca, err := pki.NewAuthority("Deploy-CA")
	if err != nil {
		t.Fatalf("NewAuthority: %v", err)
	}
	cred, err := ca.IssueServer("gateway.fzj")
	if err != nil {
		t.Fatalf("IssueServer: %v", err)
	}
	clock := sim.NewVirtualClock()
	gw, n, store, err := BuildSite(cfg, cred, ca, clock, nil, "", 0)
	if err != nil {
		t.Fatalf("BuildSite: %v", err)
	}
	if store != nil {
		t.Fatal("memory-only site returned a journal store")
	}
	if gw.Usite() != "FZJ" || n.Usite() != "FZJ" {
		t.Fatalf("usites: gw=%s njs=%s", gw.Usite(), n.Usite())
	}
	// The NJS maps logins through the site's UUDB: Alice's job runs as her
	// T3E login, and a DN the UUDB does not know is refused.
	b := client.NewJob("whoami", core.Target{Usite: "FZJ", Vsite: "T3E"})
	b.Script("who", "echo $USER\n", resources.Request{Processors: 1, RunTime: time.Hour})
	job, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if _, err := n.Consign(context.Background(), "CN=Mallory,O=FZJ,C=DE", "", job); err == nil {
		t.Fatal("an unmapped DN's job was admitted")
	}
	id, err := n.Consign(context.Background(), "CN=Alice,O=FZJ,C=DE", "", job)
	if err != nil {
		t.Fatalf("Consign: %v", err)
	}
	clock.RunUntilIdle(0)
	o, _, err := n.Outcome("CN=Alice,O=FZJ,C=DE", false, id)
	if err != nil || len(o.Children) != 1 || string(o.Children[0].Stdout) != "alice\n" {
		t.Fatalf("mapping: outcome %+v, %v; want the script to run as alice", o, err)
	}
	// The custom queues took effect.
	vs, ok := n.Vsite("CLUSTER")
	if !ok {
		t.Fatal("CLUSTER vsite missing")
	}
	for _, q := range []string{"fast", "batch"} {
		spec := codine.JobSpec{Owner: "alice", Queue: q, Script: "true", WorkDir: "/", FS: vs.Space.FS()}
		if _, err := vs.RMS.Submit(spec); err != nil {
			t.Fatalf("queue %s: %v", q, err)
		}
	}
	spec := codine.JobSpec{Owner: "alice", Queue: "default", Script: "true", WorkDir: "/", FS: vs.Space.FS()}
	if _, err := vs.RMS.Submit(spec); !errors.Is(err, codine.ErrUnknownQueue) {
		t.Fatalf("queue default: %v", err)
	}
}

func TestCredentialFiles(t *testing.T) {
	ca, err := pki.NewAuthority("File-CA")
	if err != nil {
		t.Fatalf("NewAuthority: %v", err)
	}
	caPath := filepath.Join(t.TempDir(), "ca.pem")
	data, err := ca.EncodePEM()
	if err != nil {
		t.Fatalf("EncodePEM: %v", err)
	}
	if err := WriteFile(caPath, data); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	info, err := os.Stat(caPath)
	if err != nil {
		t.Fatalf("Stat: %v", err)
	}
	if info.Mode().Perm() != 0o600 {
		t.Fatalf("key file mode = %v, want 0600", info.Mode().Perm())
	}
	back, err := LoadAuthority(caPath)
	if err != nil {
		t.Fatalf("LoadAuthority: %v", err)
	}
	carol, err := back.IssueUser("Carol", "RUS")
	if err != nil {
		t.Fatalf("IssueUser: %v", err)
	}
	if got := carol.Cert.Issuer.CommonName; got != "File-CA" {
		t.Fatalf("loaded CA issues as %q, want File-CA", got)
	}

	cred, err := ca.IssueUser("File User", "Org")
	if err != nil {
		t.Fatalf("IssueUser: %v", err)
	}
	credPath := filepath.Join(t.TempDir(), "user.pem")
	cd, _ := cred.EncodePEM()
	if err := WriteFile(credPath, cd); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	loaded, err := LoadCredential(credPath)
	if err != nil {
		t.Fatalf("LoadCredential: %v", err)
	}
	if loaded.DN() != cred.DN() {
		t.Fatalf("DN = %s, want %s", loaded.DN(), cred.DN())
	}
	if _, err := LoadCredential(filepath.Join(t.TempDir(), "missing.pem")); err == nil {
		t.Fatal("loading a missing file succeeded")
	}
}

const jobJSON = `{
  "name": "cli job",
  "target": "FZJ/T3E",
  "project": "hpc",
  "tasks": [
    {"id": "imp", "type": "import", "data": "hello input", "to": "in.dat"},
    {"id": "run", "type": "script", "script": "cat in.dat > out.dat\n",
     "processors": 2, "runTimeSec": 600},
    {"id": "exp", "type": "export", "from": "out.dat", "toXspace": "/res/out.dat"}
  ],
  "deps": [
    {"before": "imp", "after": "run"},
    {"before": "run", "after": "exp"}
  ]
}`

func TestJobSpecBuild(t *testing.T) {
	path := writeTemp(t, "job.json", jobJSON)
	spec, err := LoadJobSpec(path)
	if err != nil {
		t.Fatalf("LoadJobSpec: %v", err)
	}
	job, err := spec.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if job.Target != (core.Target{Usite: "FZJ", Vsite: "T3E"}) {
		t.Fatalf("target = %s", job.Target)
	}
	if job.CountActions() != 4 { // root job group + three tasks
		t.Fatalf("actions = %d, want 4", job.CountActions())
	}
	run, ok := findAction(job, "run")
	if !ok {
		t.Fatal("task run missing")
	}
	req, _ := ajo.TaskResources(run)
	if req.Processors != 2 || req.RunTime != 10*time.Minute {
		t.Fatalf("resources = %+v", req)
	}
}

func TestJobSpecImportsWorkstationFile(t *testing.T) {
	dataPath := writeTemp(t, "input.bin", "workstation bytes")
	spec := &JobSpec{
		Name:   "with file",
		Target: "FZJ/T3E",
		Tasks: []TaskSpec{
			{ID: "imp", Type: "import", File: dataPath, To: "in.dat"},
			{ID: "run", Type: "script", Script: "cat in.dat\n"},
		},
		Deps: []DepSpec{{Before: "imp", After: "run"}},
	}
	job, err := spec.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	imp, _ := findAction(job, "imp")
	it := imp.(*ajo.ImportTask)
	if string(it.Source.Inline) != "workstation bytes" {
		t.Fatalf("inline = %q", it.Source.Inline)
	}
}

func TestJobSpecNestedGroups(t *testing.T) {
	spec := &JobSpec{
		Name:   "parent",
		Target: "FZJ/T3E",
		Tasks: []TaskSpec{
			{ID: "tr", Type: "transfer", FromTask: "pre", Files: []string{"p.dat"}},
			{ID: "main", Type: "script", Script: "cat p.dat\n"},
		},
		Deps: []DepSpec{
			{Before: "pre", After: "tr"},
			{Before: "tr", After: "main"},
		},
		Jobs: []JobSpec{{
			Name:   "pre",
			Target: "ZIB/T3E",
			Tasks:  []TaskSpec{{ID: "p", Type: "script", Script: "write p.dat 16\n"}},
		}},
	}
	job, err := spec.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	// The transfer's FromAction was rewritten to the sub-job's real ID.
	tr, _ := findAction(job, "tr")
	from := tr.(*ajo.TransferTask).FromAction
	var subID ajo.ActionID
	for _, a := range job.Actions {
		if sub, ok := a.(*ajo.AbstractJob); ok {
			subID = sub.ID()
		}
	}
	if from != subID || subID == "" {
		t.Fatalf("transfer from %q, sub-job id %q", from, subID)
	}
}

func TestJobSpecErrors(t *testing.T) {
	cases := []JobSpec{
		{Name: "no target", Tasks: []TaskSpec{{ID: "a", Type: "script", Script: "x"}}},
		{Name: "bad type", Target: "A/B", Tasks: []TaskSpec{{ID: "a", Type: "teleport"}}},
		{Name: "dup id", Target: "A/B", Tasks: []TaskSpec{
			{ID: "a", Type: "script", Script: "x"}, {ID: "a", Type: "script", Script: "y"}}},
		{Name: "bad dep", Target: "A/B",
			Tasks: []TaskSpec{{ID: "a", Type: "script", Script: "x"}},
			Deps:  []DepSpec{{Before: "ghost", After: "a"}}},
		{Name: "no id", Target: "A/B", Tasks: []TaskSpec{{Type: "script", Script: "x"}}},
	}
	for _, c := range cases {
		if _, err := c.Build(); err == nil {
			t.Fatalf("spec %q built successfully", c.Name)
		}
	}
}

// TestBuildReplicaGrowsLiveVsite covers the replica constructor on its own:
// a replica built in isolation joins an already-serving ReplicaSet and takes
// traffic, without rebuilding the site.
func TestBuildReplicaGrowsLiveVsite(t *testing.T) {
	clock := sim.NewVirtualClock()
	vcfg := TopologyVsite{Name: "CLUSTER", Machine: "cluster"}
	vc, err := vcfg.NJSConfig()
	if err != nil {
		t.Fatalf("NJSConfig: %v", err)
	}
	set, err := pool.New(pool.Config{Vsite: "CLUSTER", Clock: clock})
	if err != nil {
		t.Fatalf("pool.New: %v", err)
	}
	base := njs.Config{Usite: "FZJ", Clock: clock, Logins: func(core.DN, core.Vsite) (uudb.Login, error) {
		return uudb.Login{UID: "a"}, nil
	}}
	for r := 0; r < 2; r++ {
		n, err := BuildReplica(base, vc, pool.ReplicaTag(r))
		if err != nil {
			t.Fatalf("BuildReplica(%d): %v", r, err)
		}
		if err := set.Add(pool.ReplicaTag(r), n); err != nil {
			t.Fatalf("Add(%d): %v", r, err)
		}
	}
	// The set is live: consign a job through it first…
	b := client.NewJob("before-grow", core.Target{Usite: "FZJ", Vsite: "CLUSTER"})
	b.Script("noop", "echo hi\n", resources.Request{Processors: 1, RunTime: time.Hour})
	job, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if _, err := set.Consign(context.Background(), "CN=A", "grow-0", job); err != nil {
		t.Fatalf("Consign before grow: %v", err)
	}
	// …then grow it by one replica built in isolation.
	n3, err := BuildReplica(base, vc, pool.ReplicaTag(2))
	if err != nil {
		t.Fatalf("BuildReplica(2): %v", err)
	}
	if n3.Usite() != "FZJ" || n3.Instance() != "CLUSTER.r2" {
		t.Fatalf("replica identity wrong: usite=%s instance=%s", n3.Usite(), n3.Instance())
	}
	if err := set.Add(pool.ReplicaTag(2), n3); err != nil {
		t.Fatalf("Add(2) on live set: %v", err)
	}
	if got := len(set.Names()); got != 3 {
		t.Fatalf("set has %d replicas after grow, want 3", got)
	}
	// The newcomer serves: round robin reaches it within one lap of the set.
	landed := false
	for i := 1; i <= 3 && !landed; i++ {
		b := client.NewJob("after-grow", core.Target{Usite: "FZJ", Vsite: "CLUSTER"})
		b.Script("noop", "echo hi\n", resources.Request{Processors: 1, RunTime: time.Hour})
		job, err := b.Build()
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		if _, err := set.Consign(context.Background(), "CN=A", fmt.Sprintf("grow-%d", i), job); err != nil {
			t.Fatalf("Consign after grow: %v", err)
		}
		if jobs, _ := n3.List("CN=A"); len(jobs) > 0 {
			landed = true
		}
	}
	if !landed {
		t.Fatal("grown replica never took a consign within a full round-robin lap")
	}
}

// TestBuildDurableSiteErrorPathClosesStore drives a durable BuildSite into its
// post-journal-open failure path (a nil credential fails gateway assembly)
// and checks two things the error handling owes the caller: the assembly
// error itself survives (errors.Join must not mask it), and the journal
// store was really closed — the same state directory must boot cleanly
// afterwards, proving no replayable state was held hostage by a leaked
// writer.
func TestBuildDurableSiteErrorPathClosesStore(t *testing.T) {
	path := writeTemp(t, "site.json", siteJSON)
	cfg, err := LoadSite(path)
	if err != nil {
		t.Fatalf("LoadSite: %v", err)
	}
	ca, err := pki.NewAuthority("Deploy-CA")
	if err != nil {
		t.Fatalf("NewAuthority: %v", err)
	}
	clock := sim.NewVirtualClock()
	stateDir := t.TempDir()

	_, _, _, err = BuildSite(cfg, nil, ca, clock, nil, stateDir, 0)
	if err == nil {
		t.Fatal("BuildSite with nil credential succeeded")
	}
	if !strings.Contains(err.Error(), "credential") {
		t.Fatalf("gateway assembly error masked by the close path: %v", err)
	}

	// The store must have been closed: the directory boots again.
	cred, err := ca.IssueServer("gateway.fzj")
	if err != nil {
		t.Fatalf("IssueServer: %v", err)
	}
	_, n, store, err := BuildSite(cfg, cred, ca, clock, nil, stateDir, 0)
	if err != nil {
		t.Fatalf("BuildSite after failed attempt: %v", err)
	}
	n.ResumeRecovered()
	if err := store.Close(); err != nil {
		t.Fatalf("closing recovered store: %v", err)
	}
}

// findAction returns the direct child action of job with the given ID.
func findAction(job *ajo.AbstractJob, id ajo.ActionID) (ajo.Action, bool) {
	for _, a := range job.Actions {
		if a.ID() == id {
			return a, true
		}
	}
	return nil, false
}
