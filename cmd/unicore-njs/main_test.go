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
	"unicore/internal/protocol"
	"unicore/internal/resources"
)

// TestModesBootServeAndRecover boots the inner server once per flag mode
// through the function main calls, serves one consign from a user session
// through the returned gateway over the in-process network, shuts down the
// way main does on a signal, and — in the durable modes — boots again from
// the same flags to find the job where the on-disk layout says it is.
func TestModesBootServeAndRecover(t *testing.T) {
	ca, err := pki.NewAuthority("DFN-PCA")
	if err != nil {
		t.Fatalf("NewAuthority: %v", err)
	}
	cred, err := ca.IssueServer("njs.fzj", "gw.fzj")
	if err != nil {
		t.Fatalf("IssueServer: %v", err)
	}
	alice, err := ca.IssueUser("Alice Ahlmann", "FZJ")
	if err != nil {
		t.Fatalf("IssueUser: %v", err)
	}
	site := fmt.Sprintf(`{"usite": "FZJ", "vsites": [{"name": "T3E", "machine": "t3e", "replicas": 2}],
  "users": [{"dn": %q, "logins": {"T3E": {"uid": "alice"}}}]}`, alice.DN())
	write := func(name, doc string) string {
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, []byte(doc), 0o600); err != nil {
			t.Fatalf("writing %s: %v", name, err)
		}
		return path
	}
	journalDir, stateDir := t.TempDir(), t.TempDir()
	topology := fmt.Sprintf(`{"version": 1, "journalDir": %q, "sites": [%s]}`, journalDir, site)

	modes := []struct {
		name string
		o    options
		// state is where the journal must live ("" = memory-only).
		state string
	}{
		{"-config", options{config: write("site.json", site)}, ""},
		{"-config -state-dir", options{config: write("site.json", site), stateDir: stateDir, snapEvery: 4096}, stateDir},
		{"-topology -usite", options{topology: write("topology.json", topology), usite: "FZJ", snapEvery: 4096},
			filepath.Join(journalDir, "FZJ")},
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			ctx := context.Background()
			boot := func() (*client.Session, func()) {
				gw, n, store, err := assemble(mode.o, cred, ca)
				if err != nil {
					t.Fatalf("assemble: %v", err)
				}
				if mode.state == "" {
					if store != nil {
						t.Fatalf("memory-only mode opened a journal at %s", store.Dir())
					}
				} else if store == nil || store.Dir() != mode.state {
					t.Fatalf("journal = %v, want one rooted at %s", store, mode.state)
				}
				net := protocol.NewInProc()
				net.Register("gw.fzj", gw)
				reg := protocol.NewRegistry()
				reg.Add("FZJ", "https://gw.fzj")
				sess := client.NewSession(protocol.NewClient(net, alice, ca, reg), "FZJ")
				return sess, func() {
					if store != nil {
						if err := n.Snapshot(); err != nil {
							t.Fatalf("Snapshot: %v", err)
						}
					}
					n.Kill()
					if store != nil {
						if err := store.Close(); err != nil {
							t.Fatalf("closing journal: %v", err)
						}
					}
				}
			}
			sess, shutdown := boot()
			b := client.NewJob("boot", core.Target{Usite: "FZJ", Vsite: "T3E"})
			b.Script("noop", "echo booted\n", resources.Request{Processors: 1, RunTime: time.Hour})
			job, err := b.Build()
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			id, err := sess.Submit(ctx, job)
			if err != nil {
				t.Fatalf("Submit: %v", err)
			}
			shutdown()
			if mode.state == "" {
				return
			}
			sess, shutdown = boot()
			defer shutdown()
			if jobs, err := sess.List(ctx); err != nil || len(jobs) != 1 || jobs[0].Job != id {
				t.Fatalf("List after reboot = %v (err %v), want the consigned job %s", jobs, err, id)
			}
		})
	}

	for name, o := range map[string]options{
		"neither file":           {},
		"both files":             {config: "site.json", topology: "topology.json", usite: "FZJ"},
		"-topology, no -usite":   {topology: write("topology.json", topology)},
		"-usite not in the spec": {topology: write("topology.json", topology), usite: "ZIB"},
	} {
		if _, _, _, err := assemble(o, cred, ca); err == nil {
			t.Fatalf("%s: assembled", name)
		}
	}
}
