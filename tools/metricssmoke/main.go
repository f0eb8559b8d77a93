// Command metricssmoke is the CI metrics-smoke step: it boots a real durable
// controller-managed site of two pooled Vsites from a topology spec file
// over mutually authenticated TLS, pushes one job through each Vsite with
// the actual CLI binaries, scrapes the live telemetry with `unicore-status
// metrics`, and fails when a headline metric is absent or zero, or when the
// two pools' replicas do not report under four distinct names:
//
//   - pki_verify_total        (every envelope the gateway verified: each CLI
//     run's stream hello — the scrape itself is a frame)
//   - consign_ack_seconds     (admission latency histogram, NJS tier)
//   - journal_sync_seconds    (durable-ack fsync histogram, journal tier)
//
// It also exercises the machine-readable CLI surface: `-json list` must
// return the submitted job and `-json metrics` must decode as snapshots.
//
// Usage (from the repository root):
//
//	go run ./tools/metricssmoke
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"unicore/internal/controller"
	"unicore/internal/core"
	"unicore/internal/deploy"
	"unicore/internal/gateway"
	"unicore/internal/pki"
	"unicore/internal/sim"
	"unicore/internal/telemetry"
	"unicore/internal/uudb"
)

func main() {
	if err := run(); err != nil {
		log.Fatalf("metricssmoke: %v", err)
	}
	fmt.Println("metricssmoke: all headline metrics present and nonzero")
}

func run() error {
	work, err := os.MkdirTemp("", "metricssmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	// Keyring: a CA, the site server, and one mapped user.
	ca, err := pki.NewAuthority("SMOKE-CA")
	if err != nil {
		return err
	}
	srv, err := ca.IssueServer("gateway.smoke", "localhost")
	if err != nil {
		return err
	}
	user, err := ca.IssueUser("Smoke User", "SMOKE")
	if err != nil {
		return err
	}
	caPEM, err := ca.EncodePEM()
	if err != nil {
		return err
	}
	userPEM, err := user.EncodePEM()
	if err != nil {
		return err
	}
	caPath := filepath.Join(work, "ca.pem")
	credPath := filepath.Join(work, "user.pem")
	if err := deploy.WriteFile(caPath, caPEM); err != nil {
		return err
	}
	if err := deploy.WriteFile(credPath, userPEM); err != nil {
		return err
	}

	// The site boots from a declarative topology spec file — the same
	// document unicore-ctl applies — through the controller stack: two
	// durable two-replica Vsites on the real clock, so journal syncs happen
	// on the admission path the CLI drives, controller metrics ride the
	// gateway scrape, and both pools' tags start at r0.
	spec := &deploy.TopologySpec{
		Version:    deploy.TopologyVersion,
		JournalDir: filepath.Join(work, "state"),
		Sites: []deploy.TopologySite{{
			Usite: "SMOKE",
			Vsites: []deploy.TopologyVsite{
				{Name: "T3E", Machine: "t3e", Replicas: 2, SnapshotEvery: 256},
				{Name: "CLUSTER", Machine: "cluster", Replicas: 2, SnapshotEvery: 256},
			},
			Users: []deploy.UserMapping{{
				DN: user.DN(),
				Logins: map[core.Vsite]uudb.Login{
					"T3E":     {UID: "smoke", Groups: []string{"ci"}},
					"CLUSTER": {UID: "smoke", Groups: []string{"ci"}},
				},
			}},
		}},
	}
	specData, err := spec.Encode()
	if err != nil {
		return err
	}
	specPath := filepath.Join(work, "topology.json")
	if err := deploy.WriteFile(specPath, specData); err != nil {
		return err
	}
	loaded, err := deploy.LoadTopology(specPath)
	if err != nil {
		return err
	}
	stack, err := controller.NewStack(controller.StackConfig{
		Spec:  loaded,
		Usite: "SMOKE",
		Cred:  srv,
		CA:    ca,
		Clock: sim.RealClock{},
	})
	if err != nil {
		return err
	}
	defer func() {
		if err := stack.Close(); err != nil {
			log.Printf("metricssmoke: closing stack: %v", err)
		}
	}()
	gw := stack.Gateway
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go func() {
		if err := gateway.ServeTLS(l, gw, srv, ca); err != nil {
			log.Printf("metricssmoke: gateway serve: %v", err)
		}
	}()
	gwURL := fmt.Sprintf("https://localhost:%d", l.Addr().(*net.TCPAddr).Port)

	// The smoke test drives the real binaries, not in-proc clients: the CLI
	// surface (flags, JSON output, exit codes) is part of what it verifies.
	bin := map[string]string{}
	for _, name := range []string{"unicore-submit", "unicore-status"} {
		out := filepath.Join(work, name)
		if raw, err := exec.Command("go", "build", "-o", out, "./cmd/"+name).CombinedOutput(); err != nil {
			return fmt.Errorf("building %s: %v\n%s", name, err, raw)
		}
		bin[name] = out
	}
	common := []string{"-gateway", gwURL, "-ca", caPath, "-cred", credPath}

	// Submit one script job to each Vsite and wait for both terminal events.
	statusArgs := append(common, "-usite", "SMOKE")
	var jobIDs []string
	for _, target := range []string{"SMOKE/T3E", "SMOKE/CLUSTER"} {
		jobOut, err := cli(bin["unicore-submit"], append(common, "-target", target, "-script", "echo smoke", "-name", "smoke")...)
		if err != nil {
			return fmt.Errorf("submit to %s: %w", target, err)
		}
		jobID := strings.TrimSpace(jobOut)
		if jobID == "" {
			return fmt.Errorf("submit to %s printed no job ID", target)
		}
		jobIDs = append(jobIDs, jobID)
	}
	if jobIDs[0] == jobIDs[1] {
		return fmt.Errorf("both Vsites admitted their job as %s", jobIDs[0])
	}
	for _, jobID := range jobIDs {
		if _, err := cli(bin["unicore-status"], append(statusArgs, "wait", jobID)...); err != nil {
			return fmt.Errorf("wait %s: %w", jobID, err)
		}
	}

	// -json list must be parseable and contain both jobs.
	listOut, err := cli(bin["unicore-status"], append(statusArgs, "-json", "list")...)
	if err != nil {
		return fmt.Errorf("list -json: %w", err)
	}
	var jobs []struct {
		Job string `json:"Job"`
	}
	if err := json.Unmarshal([]byte(listOut), &jobs); err != nil {
		return fmt.Errorf("list -json is not valid JSON: %w\n%s", err, listOut)
	}
	listed := map[string]bool{}
	for _, j := range jobs {
		listed[j.Job] = true
	}
	for _, jobID := range jobIDs {
		if !listed[jobID] {
			return fmt.Errorf("list -json does not contain submitted job %s:\n%s", jobID, listOut)
		}
	}

	// The scrape itself: merged site-wide metrics over MsgMetrics.
	metricsOut, err := cli(bin["unicore-status"], append(statusArgs, "-json", "metrics")...)
	if err != nil {
		return fmt.Errorf("metrics -json: %w", err)
	}
	var snaps []telemetry.Snapshot
	if err := json.Unmarshal([]byte(metricsOut), &snaps); err != nil {
		return fmt.Errorf("metrics -json is not valid JSON: %w\n%s", err, metricsOut)
	}
	merged := telemetry.Merge("smoke", snaps...)
	if v := merged.Total("pki_verify_total"); v <= 0 {
		return fmt.Errorf("pki_verify_total = %v, want > 0", v)
	}
	if n := merged.HistCount("consign_ack_seconds"); n == 0 {
		return fmt.Errorf("consign_ack_seconds has no observations")
	}
	if n := merged.HistCount("journal_sync_seconds"); n == 0 {
		return fmt.Errorf("journal_sync_seconds has no observations on a durable site")
	}
	// The spec-booted site is controller-managed: its reconcile telemetry
	// must ride the same scrape.
	if v := merged.Total("controller_reconcile_total"); v <= 0 {
		return fmt.Errorf("controller_reconcile_total = %v, want > 0", v)
	}
	if v := merged.Total("controller_replicas"); v != 4 {
		return fmt.Errorf("controller_replicas = %v, want the declared 2+2", v)
	}
	// The per-replica breakdown: each replica reports under its own name.
	perOut, err := cli(bin["unicore-status"], append(statusArgs, "-per-replica", "-json", "metrics")...)
	if err != nil {
		return fmt.Errorf("metrics -per-replica -json: %w", err)
	}
	if err := json.Unmarshal([]byte(perOut), &snaps); err != nil {
		return fmt.Errorf("metrics -per-replica -json is not valid JSON: %w\n%s", err, perOut)
	}
	origins := map[string]bool{}
	for _, snap := range snaps {
		if strings.HasPrefix(snap.Origin, "njs/") {
			origins[snap.Origin] = true
		}
	}
	if len(origins) != 4 {
		return fmt.Errorf("scrape carries njs origins %v, want 4 distinct ones (one per replica)", origins)
	}

	// The plaintext dump must carry the same counter.
	plainOut, err := cli(bin["unicore-status"], append(statusArgs, "metrics")...)
	if err != nil {
		return fmt.Errorf("metrics (plaintext): %w", err)
	}
	if !strings.Contains(plainOut, "pki_verify_total") {
		return fmt.Errorf("plaintext metrics dump missing pki_verify_total:\n%s", plainOut)
	}
	return nil
}

// cli runs one CLI binary with a generous timeout, returning its stdout.
func cli(path string, args ...string) (string, error) {
	cmd := exec.Command(path, args...)
	var out, errBuf strings.Builder
	cmd.Stdout = &out
	cmd.Stderr = &errBuf
	done := make(chan error, 1)
	if err := cmd.Start(); err != nil {
		return "", err
	}
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return out.String(), fmt.Errorf("%s %s: %v\nstderr: %s", filepath.Base(path), strings.Join(args, " "), err, errBuf.String())
		}
		return out.String(), nil
	case <-time.After(2 * time.Minute):
		_ = cmd.Process.Kill()
		return out.String(), fmt.Errorf("%s timed out after 2m\nstderr: %s", filepath.Base(path), errBuf.String())
	}
}
