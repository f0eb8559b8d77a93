package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"unicore/internal/client"
	"unicore/internal/core"
	"unicore/internal/pki"
	"unicore/internal/pool"
	"unicore/internal/protocol"
	"unicore/internal/resources"
)

// TestCombinedModesBootAndServe boots the combined-mode site once per flag
// mode through the function main calls, and serves one consign from a user
// session through the returned gateway over the in-process network.
func TestCombinedModesBootAndServe(t *testing.T) {
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
	writeSite := func(t3e string) string {
		path := filepath.Join(t.TempDir(), "site.json")
		doc := fmt.Sprintf(`{
  "usite": "FZJ",
  "vsites": [
    {"name": "T3E", "machine": "t3e", "processors": 128%s},
    {"name": "CLUSTER", "machine": "cluster"}
  ],
  "users": [{"dn": %q, "logins": {"T3E": {"uid": "alice"}, "CLUSTER": {"uid": "ali"}}}]
}`, t3e, alice.DN())
		if err := os.WriteFile(path, []byte(doc), 0o600); err != nil {
			t.Fatalf("writing site.json: %v", err)
		}
		return path
	}

	modes := []struct {
		name string
		o    options
		// pools is the replica count per Vsite; nil means a single NJS
		// behind the gateway, no router in between.
		pools map[core.Vsite]int
	}{
		{"-config", options{config: writeSite(""), replicas: 1, poolPolicy: "round-robin"}, nil},
		// T3E pins its own replica count; CLUSTER takes the -replicas default.
		{"-config -replicas 3 -pool-policy least-loaded",
			options{config: writeSite(`, "replicas": 2`), replicas: 3, poolPolicy: "least-loaded"},
			map[core.Vsite]int{"T3E": 2, "CLUSTER": 3}},
		// A per-Vsite count alone makes the site a pool.
		{"-config with a replica count in the file",
			options{config: writeSite(`, "replicas": 2`), replicas: 1, poolPolicy: "round-robin"},
			map[core.Vsite]int{"T3E": 2, "CLUSTER": 1}},
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			gw, regs, stop, err := assemble(mode.o, cred, ca)
			if err != nil {
				t.Fatalf("assemble: %v", err)
			}
			defer stop()
			if len(regs) == 0 {
				t.Fatal("no telemetry registries for -debug-addr")
			}
			if mode.pools == nil {
				if gw.NJS() == nil {
					t.Fatalf("backend is %T, want the site's single NJS", gw.Backend())
				}
			} else {
				router, ok := gw.Backend().(*pool.Router)
				if !ok {
					t.Fatalf("backend is %T, want the replica pool router", gw.Backend())
				}
				for v, want := range mode.pools {
					set, ok := router.Set(v)
					if !ok || len(set.Names()) != want {
						t.Fatalf("%s pool = %v, want %d replicas", v, set, want)
					}
					if policy, _ := pool.ParsePolicy(mode.o.poolPolicy); set.Policy() != policy {
						t.Fatalf("%s routing = %s, want %s", v, set.Policy(), policy)
					}
				}
			}

			net := protocol.NewInProc()
			net.Register("gw.fzj", gw)
			reg := protocol.NewRegistry()
			reg.Add("FZJ", "https://gw.fzj")
			sess := client.NewSession(protocol.NewClient(net, alice, ca, reg), "FZJ")
			b := client.NewJob("boot", core.Target{Usite: "FZJ", Vsite: "CLUSTER"})
			b.Script("noop", "echo booted\n", resources.Request{Processors: 1, RunTime: time.Hour})
			job, err := b.Build()
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			ctx := context.Background()
			id, err := sess.Submit(ctx, job)
			if err != nil {
				t.Fatalf("Submit: %v", err)
			}
			if jobs, err := sess.List(ctx); err != nil || len(jobs) != 1 || jobs[0].Job != id {
				t.Fatalf("List = %v (err %v), want the consigned job %s", jobs, err, id)
			}
		})
	}
	if _, _, _, err := assemble(options{replicas: 1}, cred, ca); err == nil {
		t.Fatal("combined mode without -config assembled")
	}
}
