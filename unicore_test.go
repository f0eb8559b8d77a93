package unicore_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"unicore"
	"unicore/internal/accounting"
	"unicore/internal/client"
	"unicore/internal/gateway"
	"unicore/internal/protocol"
)

// TestPublicQuickstart runs the README's quickstart flow end to end against
// the public facade only.
func TestPublicQuickstart(t *testing.T) {
	d, err := unicore.SingleSite("DEMO", "CLUSTER", 8)
	if err != nil {
		t.Fatalf("SingleSite: %v", err)
	}
	defer d.Close()
	user, err := d.NewUser("Jane Doe", "Demo Org", "jdoe")
	if err != nil {
		t.Fatalf("NewUser: %v", err)
	}
	b := unicore.NewJob("hello", unicore.Target{Usite: "DEMO", Vsite: "CLUSTER"})
	run := b.Script("greet", "echo hello unicore\n", unicore.ResourceRequest{Processors: 1, RunTime: time.Minute})
	job, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	id, err := d.JPA(user).Submit(job)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	d.Run(100000)
	sum, err := d.Session(user, "DEMO").Status(context.Background(), id)
	if err != nil {
		t.Fatalf("Status: %v", err)
	}
	if sum.Status != unicore.StatusSuccessful {
		t.Fatalf("status = %s", sum.Status)
	}
	o, err := d.Session(user, "DEMO").Outcome(context.Background(), id)
	if err != nil {
		t.Fatalf("Outcome: %v", err)
	}
	task, ok := o.Find(run)
	if !ok || !strings.Contains(string(task.Stdout), "hello unicore") {
		t.Fatalf("task output = %q", task.Stdout)
	}
}

// TestSessionQuickstart runs the README's session flow against the public
// facade: Dial/Session, context-aware submit, Watch for the event stream,
// and Await for the terminal summary — no polling anywhere.
func TestSessionQuickstart(t *testing.T) {
	d, err := unicore.SingleSite("DEMO", "CLUSTER", 8)
	if err != nil {
		t.Fatalf("SingleSite: %v", err)
	}
	defer d.Close()
	user, err := d.NewUser("Jane Doe", "Demo Org", "jdoe")
	if err != nil {
		t.Fatalf("NewUser: %v", err)
	}
	b := unicore.NewJob("hello", unicore.Target{Usite: "DEMO", Vsite: "CLUSTER"})
	b.Script("greet", "echo hello unicore\n", unicore.ResourceRequest{Processors: 1, RunTime: time.Minute})
	job, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	ctx := context.Background()
	// == d.Session(user, "DEMO"); a real deployment would Dial the gateway
	// URL with WithIdentity instead of reusing the testbed client.
	sess, err := unicore.Dial("", unicore.WithClient(d.UserClient(user)), unicore.WithSite("DEMO"))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	id, err := sess.Submit(ctx, job)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	watch, err := sess.Watch(ctx, id)
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	go d.Run(100000)
	var last unicore.JobEvent
	n := 0
	for ev := range watch {
		last = ev
		n++
	}
	if n == 0 || !last.Terminal || last.Status != unicore.StatusSuccessful {
		t.Fatalf("watched %d events, last = %+v; want a successful terminal event", n, last)
	}
	sum, err := sess.Await(ctx, id)
	if err != nil {
		t.Fatalf("Await: %v", err)
	}
	if sum.Status != unicore.StatusSuccessful {
		t.Fatalf("Await status = %s", sum.Status)
	}
}

// TestGermanWorkloadEndToEnd drives a mixed workload through the full
// six-site deployment and checks completion plus accounting consistency.
func TestGermanWorkloadEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full testbed run")
	}
	d, err := unicore.German()
	if err != nil {
		t.Fatalf("German: %v", err)
	}
	defer d.Close()
	user, err := d.NewUser("Workload User", "GCS", "wl")
	if err != nil {
		t.Fatalf("NewUser: %v", err)
	}
	jpa := d.JPA(user)

	jobs, err := unicore.GenerateWorkload(unicore.DefaultWorkload(1999, 24, d.Targets()))
	if err != nil {
		t.Fatalf("GenerateWorkload: %v", err)
	}
	type placed struct {
		id unicore.JobID
		us unicore.Usite
	}
	var all []placed
	for _, j := range jobs {
		id, err := jpa.Submit(j)
		if err != nil {
			t.Fatalf("Submit %s: %v", j.Name(), err)
		}
		all = append(all, placed{id, j.Target.Usite})
	}
	d.Run(20_000_000)

	for _, p := range all {
		sum, err := d.Session(user, p.us).Status(context.Background(), p.id)
		if err != nil {
			t.Fatalf("Status %s: %v", p.id, err)
		}
		if sum.Status != unicore.StatusSuccessful {
			o, _ := d.Session(user, p.us).Outcome(context.Background(), p.id)
			t.Fatalf("job %s at %s finished %s:\n%s", p.id, p.us, sum.Status, unicore.Display(o))
		}
	}

	recs := d.Accounting()
	sum := accounting.Summarise(recs)
	if sum.Failed != 0 || sum.Cancelled != 0 {
		t.Fatalf("accounting: %+v", sum)
	}
	if sum.Jobs < len(jobs) {
		t.Fatalf("accounting records = %d, want >= %d", sum.Jobs, len(jobs))
	}
	if sum.Charge <= 0 {
		t.Fatal("no charge accumulated")
	}
}

// TestSecurityProperties exercises the trust boundaries end to end: revoked
// users, cross-user isolation, forged identities, and applet tampering.
func TestSecurityProperties(t *testing.T) {
	d, err := unicore.SingleSite("SEC", "CLUSTER", 4)
	if err != nil {
		t.Fatalf("SingleSite: %v", err)
	}
	defer d.Close()
	alice, err := d.NewUser("Alice", "Org", "alice")
	if err != nil {
		t.Fatalf("NewUser: %v", err)
	}
	eve, err := d.NewUser("Eve", "Org", "eve")
	if err != nil {
		t.Fatalf("NewUser: %v", err)
	}

	b := unicore.NewJob("secret", unicore.Target{Usite: "SEC", Vsite: "CLUSTER"})
	b.Script("s", "echo secret result\n", unicore.ResourceRequest{Processors: 1, RunTime: time.Minute})
	job, _ := b.Build()
	id, err := d.JPA(alice).Submit(job)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	d.Run(100000)

	// Eve cannot see or control Alice's job.
	if _, err := d.Session(eve, "SEC").Outcome(context.Background(), id); err == nil {
		t.Fatal("eve read alice's outcome")
	}
	if err := d.Session(eve, "SEC").Abort(context.Background(), id); err == nil {
		t.Fatal("eve aborted alice's job")
	}
	// Revocation locks Alice out everywhere.
	d.CA.Revoke(alice.Cert)
	if _, err := d.Session(alice, "SEC").Status(context.Background(), id); err == nil {
		t.Fatal("revoked alice still served")
	}

	// Applets: Eve cannot forge consortium software.
	if _, err := gateway.SignApplet(eve, "jpa", "6.6", []byte("trojan")); err == nil {
		t.Fatal("user credential signed an applet")
	}
	// Fetching a genuine applet still verifies for Eve.
	if _, err := client.FetchApplet(d.UserClient(eve), d.CA, "SEC", "jpa"); err != nil {
		t.Fatalf("genuine applet failed verification: %v", err)
	}
}

// TestLoadEndpointThroughFacade checks the broker's load input end to end.
func TestLoadEndpointThroughFacade(t *testing.T) {
	d, err := unicore.SingleSite("LB", "CLUSTER", 8)
	if err != nil {
		t.Fatalf("SingleSite: %v", err)
	}
	defer d.Close()
	user, err := d.NewUser("Load User", "Org", "lu")
	if err != nil {
		t.Fatalf("NewUser: %v", err)
	}
	br := unicore.NewBroker(unicore.LeastLoaded)
	if err := br.Refresh(d.UserClient(user), d.Usites()...); err != nil {
		t.Fatalf("Refresh: %v", err)
	}
	target, err := br.Choose(unicore.ResourceRequest{Processors: 4, RunTime: time.Hour})
	if err != nil {
		t.Fatalf("Choose: %v", err)
	}
	if target != (unicore.Target{Usite: "LB", Vsite: "CLUSTER"}) {
		t.Fatalf("target = %s", target)
	}
}

// TestProtocolRobustnessClaim verifies the §5.3 claim outside the bench:
// under a lossy link, the asynchronous protocol completes more interactions
// than the synchronous baseline.
func TestProtocolRobustnessClaim(t *testing.T) {
	res := protocol.SimulateRobustness(protocol.RobustnessConfig{
		Seed:        7,
		Trials:      400,
		JobDuration: 10 * time.Minute,
		// One expected failure per 10 connection-minutes: fatal for a
		// connection held across the whole job, harmless for short polls.
		Link: protocol.LinkModel{FailureRate: 1.0 / 600, MsgTime: 200 * time.Millisecond},
	})
	async := res.Async.CompletionRate()
	if async < 0.99 {
		t.Fatalf("async completion = %.3f, want ~1.0", async)
	}
	// At this failure rate retries eventually push both completion rates to
	// ~1, but the synchronous protocol pays for every broken connection with
	// a full re-run, so its mean wall time per job is strictly worse; the
	// async variant loses only short poll messages.
	if res.Sync.MeanWall() <= res.Async.MeanWall() {
		t.Fatalf("sync mean wall %s not worse than async %s on a lossy link",
			res.Sync.MeanWall(), res.Async.MeanWall())
	}
	if res.Sync.JobExecutions <= res.Async.JobExecutions {
		t.Fatalf("sync re-ran %d jobs, async %d — resubmission should redo work",
			res.Sync.JobExecutions, res.Async.JobExecutions)
	}
}
