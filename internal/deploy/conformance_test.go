package deploy_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"unicore/internal/ajo"
	"unicore/internal/client"
	"unicore/internal/controller"
	"unicore/internal/core"
	"unicore/internal/deploy"
	"unicore/internal/gateway"
	"unicore/internal/njs"
	"unicore/internal/pki"
	"unicore/internal/pool"
	"unicore/internal/protocol"
	"unicore/internal/resources"
	"unicore/internal/sim"
)

// conformanceSite is the one site every entry point is asked to stand up.
// T3E pins two replicas and CLUSTER three; the single-NJS builder ignores
// the counts.
const conformanceSite = `{
  "usite": "FZJ",
  "vsites": [
    {"name": "T3E", "machine": "t3e", "processors": 128, "replicas": 2},
    {"name": "CLUSTER", "machine": "cluster", "replicas": 3, "policy": "least-loaded"}
  ],
  "users": [
    {"dn": "CN=Alice,O=FZJ,C=DE",
     "logins": {"T3E": {"uid": "alice"}, "CLUSTER": {"uid": "ali"}}}
  ]
}`

const alice = core.DN("CN=Alice,O=FZJ,C=DE")

// conformanceKeys parses conformanceSite and issues its gateway's keyring.
func conformanceKeys(t *testing.T) (*deploy.TopologySite, *pki.Credential, *pki.Authority) {
	t.Helper()
	site, err := deploy.ParseSite([]byte(conformanceSite))
	if err != nil {
		t.Fatalf("ParseSite: %v", err)
	}
	ca, err := pki.NewAuthority("Deploy-CA")
	if err != nil {
		t.Fatalf("NewAuthority: %v", err)
	}
	cred, err := ca.IssueServer("gateway.fzj")
	if err != nil {
		t.Fatalf("IssueServer: %v", err)
	}
	return site, cred, ca
}

// standing is one stood-up site as the conformance script sees it.
type standing struct {
	gw *gateway.Gateway
	// replicas is every NJS serving the site: its only one, or the pools'.
	replicas func() []*njs.NJS
	// crash ends the site's life the hard way (journals synced, nothing
	// snapshotted); stop ends it cleanly. Both release the state directory.
	crash, stop func(t *testing.T)
}

// TestSiteConformance runs one script over every way the repository stands
// up a site — deploy.BuildSite memory-only and durable, controller.NewStack
// memory-only and durable: consign through the gateway's backend, run, fetch
// the outcome; and on the durable rows crash → rebuild from the same
// directory → the job is intact, then shut down cleanly → rebuild from the
// snapshot → still intact.
func TestSiteConformance(t *testing.T) {
	site, cred, ca := conformanceKeys(t)

	single := func(t *testing.T, clock *sim.VirtualClock, dir string) standing {
		gw, n, store, err := deploy.BuildSite(site, cred, ca, clock, dir, 0)
		if err != nil {
			t.Fatalf("BuildSite: %v", err)
		}
		if (store != nil) != (dir != "") {
			t.Fatalf("BuildSite(stateDir=%q) returned store %v", dir, store)
		}
		n.ResumeRecovered()
		release := func(t *testing.T) {
			n.Kill()
			if store == nil {
				return
			}
			if err := store.Close(); err != nil {
				t.Fatalf("closing journal: %v", err)
			}
		}
		return standing{
			gw:       gw,
			replicas: func() []*njs.NJS { return []*njs.NJS{n} },
			crash: func(t *testing.T) {
				if err := n.SyncJournal(); err != nil {
					t.Fatalf("SyncJournal: %v", err)
				}
				release(t)
			},
			stop: func(t *testing.T) {
				if store != nil {
					if err := n.Snapshot(); err != nil {
						t.Fatalf("Snapshot: %v", err)
					}
				}
				release(t)
			},
		}
	}
	pooled := func(t *testing.T, clock *sim.VirtualClock, dir string) standing {
		stack, err := controller.NewStack(controller.StackConfig{
			Spec:  &deploy.TopologySpec{Version: deploy.TopologyVersion, Sites: []deploy.TopologySite{*site}},
			Usite: site.Usite, Cred: cred, CA: ca, Clock: clock, StateRoot: dir,
		})
		if err != nil {
			t.Fatalf("NewStack: %v", err)
		}
		// The declared shape: per-Vsite replica counts and routing, the
		// router behind the gateway.
		for v, want := range map[core.Vsite]int{"T3E": 2, "CLUSTER": 3} {
			set, ok := stack.Router.Set(v)
			if !ok || len(set.Names()) != want {
				t.Fatalf("%s pool = %v, want %d replicas", v, set, want)
			}
		}
		if set, _ := stack.Router.Set("CLUSTER"); set.Policy() != pool.LeastLoaded {
			t.Fatalf("CLUSTER routing = %s, want the declared least-loaded", set.Policy())
		}
		if stack.Gateway.Backend() != njs.Service(stack.Router) {
			t.Fatal("gateway backend is not the router")
		}
		closeStack := func(t *testing.T) {
			if err := stack.Close(); err != nil {
				t.Fatalf("Stack.Close: %v", err)
			}
		}
		return standing{
			gw:       stack.Gateway,
			replicas: stack.Replicas,
			crash: func(t *testing.T) {
				for _, n := range stack.Replicas() {
					if err := n.SyncJournal(); err != nil {
						t.Fatalf("SyncJournal: %v", err)
					}
					n.Kill()
				}
				closeStack(t)
			},
			stop: closeStack,
		}
	}

	rows := []struct {
		name    string
		durable bool
		boot    func(*testing.T, *sim.VirtualClock, string) standing
	}{
		{"single-memory", false, single},
		{"single-durable", true, single},
		{"pooled-memory", false, pooled},
		{"pooled-durable", true, pooled},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			clock := sim.NewVirtualClock()
			dir := ""
			if row.durable {
				dir = t.TempDir()
			}
			s := row.boot(t, clock, dir)

			b := client.NewJob("conformance", core.Target{Usite: "FZJ", Vsite: "CLUSTER"})
			hello := b.Script("hello", "echo hello conforming world\n", resources.Request{Processors: 1, RunTime: time.Hour})
			job, err := b.Build()
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			id, err := s.gw.Backend().Consign(context.Background(), alice, "conformance-1", job)
			if err != nil {
				t.Fatalf("Consign: %v", err)
			}
			// Exactly one instance owns the job, admitted under the mapped
			// login's DN; remember which, by its instance tag.
			owner, owners, tags := "", 0, map[string]bool{}
			for _, n := range s.replicas() {
				if tags[n.Instance()] {
					t.Fatalf("two instances share the tag %q, so their job IDs can collide", n.Instance())
				}
				tags[n.Instance()] = true
				if jobs, _ := n.List(alice); len(jobs) == 1 && jobs[0].Job == id {
					owner = n.Instance()
					owners++
				}
			}
			if owners != 1 {
				t.Fatalf("job %s owned by %d instances, want exactly 1", id, owners)
			}
			clock.RunUntilIdle(0)

			intact := func(when string, s standing) {
				t.Helper()
				o, found, err := s.gw.Backend().Outcome(alice, false, id)
				if err != nil || !found {
					t.Fatalf("%s: Outcome(%s): found=%v err=%v", when, id, found, err)
				}
				if o.Status != ajo.StatusSuccessful {
					t.Fatalf("%s: job = %s", when, o.Status)
				}
				hit, ok := o.Find(hello)
				if !ok || string(hit.Stdout) != "hello conforming world\n" {
					t.Fatalf("%s: stdout = %q (found=%v)", when, hit.Stdout, ok)
				}
				// The job lives where it was admitted: a rebuilt instance
				// comes back under the tag it journaled with.
				for _, n := range s.replicas() {
					jobs, _ := n.List(alice)
					if (len(jobs) == 1 && jobs[0].Job == id) != (n.Instance() == owner) {
						t.Fatalf("%s: instance %q lists %v, but %q admitted %s", when, n.Instance(), jobs, owner, id)
					}
				}
			}
			intact("after the run", s)
			if !row.durable {
				s.stop(t)
				return
			}

			s.crash(t)
			s = row.boot(t, clock, dir)
			clock.RunUntilIdle(0)
			intact("after crash and journal replay", s)

			s.stop(t)
			s = row.boot(t, clock, dir)
			clock.RunUntilIdle(0)
			intact("after clean shutdown and snapshot recovery", s)
			s.stop(t)
		})
	}
}

// TestPooledVsitesMintDisjointNames boots conformanceSite's two pooled Vsites,
// whose pool tags both start at r0, and consigns several jobs at each through
// the router. Every name a replica mints must be unique in its Usite: job
// IDs, so each Outcome finds its own job; event-log origins, so a user
// stream keeps one cursor per replica; and telemetry origins, so a scrape
// reports each replica once.
func TestPooledVsitesMintDisjointNames(t *testing.T) {
	site, cred, ca := conformanceKeys(t)
	clock := sim.NewVirtualClock()
	stack, err := controller.NewStack(controller.StackConfig{
		Spec:  &deploy.TopologySpec{Version: deploy.TopologyVersion, Sites: []deploy.TopologySite{*site}},
		Usite: site.Usite, Cred: cred, CA: ca, Clock: clock,
	})
	if err != nil {
		t.Fatalf("NewStack: %v", err)
	}
	defer stack.Close()

	names := map[core.JobID]string{}
	for _, v := range []core.Vsite{"T3E", "CLUSTER"} {
		for i := 0; i < 6; i++ {
			name := fmt.Sprintf("%s-%d", v, i)
			b := client.NewJob(name, core.Target{Usite: "FZJ", Vsite: v})
			b.Script("hello", "echo "+name+"\n", resources.Request{Processors: 1, RunTime: time.Hour})
			job, err := b.Build()
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			id, err := stack.Router.Consign(context.Background(), alice, name, job)
			if err != nil {
				t.Fatalf("Consign(%s): %v", name, err)
			}
			if other, dup := names[id]; dup {
				t.Fatalf("%s and %s were both admitted as %s", other, name, id)
			}
			names[id] = name
		}
	}
	clock.RunUntilIdle(0)
	for id, name := range names {
		o, found, err := stack.Router.Outcome(alice, false, id)
		if err != nil || !found || o.Name != name {
			t.Fatalf("Outcome(%s) = %v (found=%v, err=%v), want job %s", id, o, found, err, name)
		}
	}

	replicas := len(stack.Replicas())
	if replicas != 5 {
		t.Fatalf("stack runs %d replicas, want the declared 2+3", replicas)
	}
	reply, err := stack.Router.Events(alice, false, protocol.SubscribeRequest{})
	if err != nil {
		t.Fatalf("Events: %v", err)
	}
	if len(reply.Origins) != replicas {
		t.Fatalf("user stream carries cursors %v, want one per replica (%d)", reply.Origins, replicas)
	}
	origins := map[string]bool{}
	for _, snap := range stack.Router.Metrics() {
		if strings.HasPrefix(snap.Origin, "njs/") {
			if origins[snap.Origin] {
				t.Fatalf("Router.Metrics reports %s twice", snap.Origin)
			}
			origins[snap.Origin] = true
		}
	}
	if len(origins) != replicas {
		t.Fatalf("Router.Metrics has njs origins %v, want one per replica (%d)", origins, replicas)
	}
}
