package client

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"unicore/internal/ajo"
	"unicore/internal/core"
	"unicore/internal/gateway"
	"unicore/internal/machine"
	"unicore/internal/njs"
	"unicore/internal/pki"
	"unicore/internal/protocol"
	"unicore/internal/resources"
	"unicore/internal/sim"
	"unicore/internal/uudb"
)

// rig is a one-site deployment for client tests.
type rig struct {
	clock *sim.VirtualClock
	ca    *pki.Authority
	gw    *gateway.Gateway
	net   *protocol.InProc
	reg   *protocol.Registry
	user  *pki.Credential
	jpa   *JPA
	sess  *Session
	c     *protocol.Client
	njs   *njs.NJS
	users *uudb.DB
}

func newRig(t *testing.T) *rig {
	t.Helper()
	clock := sim.NewVirtualClock()
	ca, err := pki.NewAuthority("DFN-PCA")
	if err != nil {
		t.Fatalf("NewAuthority: %v", err)
	}
	srv, err := ca.IssueServer("gateway.lrz", "gw.lrz")
	if err != nil {
		t.Fatalf("IssueServer: %v", err)
	}
	user, err := ca.IssueUser("Clara Client", "LRZ")
	if err != nil {
		t.Fatalf("IssueUser: %v", err)
	}
	users := uudb.New("LRZ", clock)
	users.AddUser(user.DN(), "clara@lrz.de")
	if err := users.AddMapping(user.DN(), "VPP", uudb.Login{UID: "clara"}); err != nil {
		t.Fatalf("AddMapping: %v", err)
	}
	n, err := njs.New(njs.Config{
		Usite:  "LRZ",
		Clock:  clock,
		Vsites: []njs.VsiteConfig{{Name: "VPP", Profile: machine.FujitsuVPP700(52)}},
	})
	if err != nil {
		t.Fatalf("njs.New: %v", err)
	}
	gw, err := gateway.New(gateway.Config{Usite: "LRZ", Cred: srv, CA: ca, Users: users, Backend: n})
	if err != nil {
		t.Fatalf("gateway.New: %v", err)
	}
	net := protocol.NewInProc()
	net.Register("gw.lrz", gw)
	reg := protocol.NewRegistry()
	reg.Add("LRZ", "https://gw.lrz")
	c := protocol.NewClient(net, user, ca, reg)
	return &rig{clock: clock, ca: ca, gw: gw, net: net, reg: reg, user: user, jpa: NewJPA(c), sess: NewSession(c, "LRZ"), c: c, njs: n, users: users}
}

var vpp = core.Target{Usite: "LRZ", Vsite: "VPP"}

func TestBuilderScriptJob(t *testing.T) {
	b := NewJob("demo", vpp)
	s1 := b.Script("hello", "echo hello\n", resources.Request{Processors: 1, RunTime: time.Minute})
	s2 := b.Script("world", "echo world\n", resources.Request{Processors: 1, RunTime: time.Minute})
	b.After(s1, s2, "greeting.txt")
	job, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if job.CountActions() != 3 { // the root job group counts too
		t.Fatalf("actions = %d, want 3", job.CountActions())
	}
	if len(job.Dependencies) != 1 || job.Dependencies[0].Files[0] != "greeting.txt" {
		t.Fatalf("dependencies = %+v", job.Dependencies)
	}
}

func TestBuilderRejectsCycle(t *testing.T) {
	b := NewJob("cycle", vpp)
	s1 := b.Script("a", "echo a\n", resources.Request{})
	s2 := b.Script("b", "echo b\n", resources.Request{})
	b.After(s1, s2).After(s2, s1)
	if _, err := b.Build(); err == nil {
		t.Fatal("cyclic job built successfully")
	}
}

func TestBuilderRejectsSelfNesting(t *testing.T) {
	b := NewJob("self", vpp)
	b.SubJob(b)
	if _, err := b.Build(); err == nil {
		t.Fatal("self-nested job built successfully")
	}
}

func TestBuilderChain(t *testing.T) {
	b := NewJob("chain", vpp)
	ids := []ajo.ActionID{
		b.Script("a", "echo a\n", resources.Request{}),
		b.Script("b", "echo b\n", resources.Request{}),
		b.Script("c", "echo c\n", resources.Request{}),
	}
	b.Chain(ids...)
	job, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if len(job.Dependencies) != 2 {
		t.Fatalf("dependencies = %d, want 2", len(job.Dependencies))
	}
}

func TestFetchResourcesAndValidate(t *testing.T) {
	r := newRig(t)
	pages, err := r.jpa.FetchResources("LRZ")
	if err != nil {
		t.Fatalf("FetchResources: %v", err)
	}
	if len(pages) != 1 || pages[0].Architecture != "Fujitsu VPP700" {
		t.Fatalf("pages = %+v", pages)
	}

	good, err := NewJob("fits", vpp).
		Project("gcs").
		Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := r.jpa.Validate(good); err != nil {
		t.Fatalf("Validate(good): %v", err)
	}

	b := NewJob("too big", vpp)
	b.Script("huge", "echo x\n", resources.Request{Processors: 100000, RunTime: time.Minute})
	big, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := r.jpa.Validate(big); err == nil {
		t.Fatal("oversized job validated")
	}

	// A job for an unknown target cannot be validated.
	other, _ := NewJob("elsewhere", core.Target{Usite: "ZIB", Vsite: "T3E"}).Build()
	if err := r.jpa.Validate(other); err == nil {
		t.Fatal("job for unfetched target validated")
	}
}

func TestValidateCompilerAvailability(t *testing.T) {
	r := newRig(t)
	if _, err := r.jpa.FetchResources("LRZ"); err != nil {
		t.Fatalf("FetchResources: %v", err)
	}
	b := NewJob("compile", vpp)
	b.Compile("build", "f90", []string{"main.f90"}, "main.o", resources.Request{})
	job, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := r.jpa.Validate(job); err != nil {
		t.Fatalf("Validate(f90): %v — VPP700 page should list f90", err)
	}

	b2 := NewJob("cobol", vpp)
	b2.Compile("build", "cobol", []string{"main.cob"}, "main.o", resources.Request{})
	job2, _ := b2.Build()
	if err := r.jpa.Validate(job2); err == nil {
		t.Fatal("cobol compile validated on a Vsite without a cobol compiler")
	}
}

func TestSubmitWaitOutcome(t *testing.T) {
	r := newRig(t)
	b := NewJob("round trip", vpp)
	id1 := b.Script("produce", "echo 42 > answer.txt\n", resources.Request{Processors: 1, RunTime: time.Minute})
	id2 := b.Script("consume", "cat answer.txt\n", resources.Request{Processors: 1, RunTime: time.Minute})
	b.After(id1, id2, "answer.txt")
	job, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	jid, err := r.jpa.Submit(job)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if job.UserDN != r.c.DN() {
		t.Fatalf("Submit did not stamp the user DN: %q", job.UserDN)
	}

	// The terminal event is already buffered when Await subscribes.
	r.clock.RunUntilIdle(100000)
	sum, err := r.sess.Await(context.Background(), jid)
	if err != nil {
		t.Fatalf("Await: %v", err)
	}
	if sum.Status != ajo.StatusSuccessful {
		t.Fatalf("status = %s, want SUCCESSFUL", sum.Status)
	}

	o, err := r.sess.Outcome(context.Background(), jid)
	if err != nil {
		t.Fatalf("Outcome: %v", err)
	}
	stdout, _, err := TaskOutput(o, id2)
	if err != nil {
		t.Fatalf("TaskOutput: %v", err)
	}
	if !strings.Contains(string(stdout), "42") {
		t.Fatalf("consume stdout = %q, want the produced answer", stdout)
	}

	disp := Display(o)
	if !strings.Contains(disp, "green") || !strings.Contains(disp, "round trip") {
		t.Fatalf("display missing green icons or job name:\n%s", disp)
	}
}

func TestHoldResume(t *testing.T) {
	r := newRig(t)
	b := NewJob("held", vpp)
	b.Script("quick", "echo done\n", resources.Request{Processors: 1, RunTime: time.Minute})
	job, _ := b.Build()
	jid, err := r.jpa.Submit(job)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := r.sess.Hold(context.Background(), jid); err != nil {
		t.Fatalf("Hold: %v", err)
	}
	if err := r.sess.Resume(context.Background(), jid); err != nil {
		t.Fatalf("Resume: %v", err)
	}
	r.clock.RunUntilIdle(100000)
	sum, err := r.sess.Status(context.Background(), jid)
	if err != nil {
		t.Fatalf("Status: %v", err)
	}
	if sum.Status != ajo.StatusSuccessful {
		t.Fatalf("status = %s after resume, want SUCCESSFUL", sum.Status)
	}
	// Resuming a job that is not held is an error.
	if err := r.sess.Resume(context.Background(), jid); err == nil {
		t.Fatal("resume of a non-held job succeeded")
	}
}

// TestWaitTimesOut bounds a wait with a context deadline: while the job is
// still running, Await gives up with the deadline error instead of a summary.
func TestWaitTimesOut(t *testing.T) {
	r := newRig(t)
	b := NewJob("slow", vpp)
	b.Script("sleepy", "cpu 10h\n", resources.Request{Processors: 1, RunTime: 20 * time.Hour})
	job, _ := b.Build()
	jid, err := r.jpa.Submit(job)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err = r.sess.Await(ctx, jid)
	if err == nil {
		t.Fatal("Await returned before the job could have finished")
	}
	if !errors.Is(err, context.DeadlineExceeded) && !strings.Contains(err.Error(), context.DeadlineExceeded.Error()) {
		t.Fatalf("Await past its deadline returned %v, want context.DeadlineExceeded", err)
	}
}

func TestFetchAppletVerified(t *testing.T) {
	r := newRig(t)
	software, err := r.ca.IssueSoftware("UNICORE Consortium")
	if err != nil {
		t.Fatalf("IssueSoftware: %v", err)
	}
	applet, err := gateway.SignApplet(software, "jmc", "0.9", []byte("JMC payload"))
	if err != nil {
		t.Fatalf("SignApplet: %v", err)
	}
	if err := r.gw.InstallApplet(applet); err != nil {
		t.Fatalf("InstallApplet: %v", err)
	}
	got, err := FetchApplet(r.c, r.ca, "LRZ", "jmc")
	if err != nil {
		t.Fatalf("FetchApplet: %v", err)
	}
	if got.Version != "0.9" || got.Signer.CommonName() != "UNICORE Consortium" {
		t.Fatalf("applet = %+v", got)
	}
	if _, err := FetchApplet(r.c, r.ca, "LRZ", "jpa"); err == nil {
		t.Fatal("fetching a missing applet succeeded")
	}
}

func TestStatusOfUnknownJob(t *testing.T) {
	r := newRig(t)
	if _, err := r.sess.Status(context.Background(), "LRZ-999999"); err == nil {
		t.Fatal("status of unknown job succeeded")
	}
	if _, err := r.sess.Outcome(context.Background(), "LRZ-999999"); err == nil {
		t.Fatal("outcome of unknown job succeeded")
	}
}

func TestFetchFileToWorkstation(t *testing.T) {
	r := newRig(t)
	b := NewJob("fetch me", vpp)
	b.Script("produce", "write big.dat 300000\necho produced\n",
		resources.Request{Processors: 1, RunTime: time.Minute})
	job, _ := b.Build()
	jid, err := r.jpa.Submit(job)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	r.clock.RunUntilIdle(100000)

	// The on-request §5.6 transfer back to the workstation, chunked.
	data, err := r.sess.FetchFile(context.Background(), jid, "big.dat")
	if err != nil {
		t.Fatalf("FetchFile: %v", err)
	}
	if len(data) != 300000 {
		t.Fatalf("fetched %d bytes, want 300000", len(data))
	}
	// Missing files are reported cleanly.
	if _, err := r.sess.FetchFile(context.Background(), jid, "ghost.dat"); err == nil {
		t.Fatal("fetching a missing file succeeded")
	}
}

func TestFetchFileRequiresOwnership(t *testing.T) {
	r := newRig(t)
	b := NewJob("private", vpp)
	b.Script("produce", "write secret.dat 64\n", resources.Request{Processors: 1, RunTime: time.Minute})
	job, _ := b.Build()
	jid, err := r.jpa.Submit(job)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	r.clock.RunUntilIdle(100000)

	eve, err := r.ca.IssueUser("Eve", "Nowhere")
	if err != nil {
		t.Fatalf("IssueUser: %v", err)
	}
	reg := r.c.Registry()
	eveSess := NewSession(protocol.NewClient(r.net, eve, r.ca, reg), "LRZ")
	if _, err := eveSess.FetchFile(context.Background(), jid, "secret.dat"); err == nil {
		t.Fatal("eve fetched another user's job file")
	}
}
