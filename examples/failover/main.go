// Failover: the scaled-out server tier surviving a replica crash. One Usite
// is booted from a topology spec — the document `unicore-ctl apply -f` takes —
// declaring a Vsite behind three journaled NJS replicas (docs/ARCHITECTURE.md);
// the demo consigns a workload, kills one replica mid-run, proves the pool
// stops routing to it while it is down, lets the site's controller heal it
// from its journal, and prints that every job reached the same outcome as an
// uninterrupted run of the identical workload — zero lost and zero duplicated
// jobs. It exits non-zero otherwise.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"sort"
	"time"

	"unicore"
)

const (
	usite  = "POOL"
	vsite  = "CLUSTER"
	victim = "r1" // pool tag of the replica killed mid-workload
)

// topology declares the site: one 16-node cluster Vsite served by three NJS
// replicas behind round-robin routing.
const topology = `{
  "version": 1,
  "sites": [{
    "usite": "POOL",
    "vsites": [{"name": "CLUSTER", "machine": "cluster", "processors": 16,
                "replicas": 3, "policy": "round-robin", "snapshotEvery": 256}]
  }]
}`

// run executes the workload once and returns every job's terminal status,
// keyed by job name. With kill set, replica r1 is crashed mid-workload and
// later healed from its journal.
func run(kill bool) (map[string]string, error) {
	spec, err := unicore.ParseTopology([]byte(topology))
	if err != nil {
		return nil, err
	}
	// Every replica journals independently under the state root
	// (<root>/POOL/CLUSTER/<tag>), exactly as separate processes would.
	root, err := os.MkdirTemp("", "unicore-failover-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	d, site, err := unicore.NewManaged(spec, usite, root)
	if err != nil {
		return nil, err
	}
	defer d.Close()
	user, err := d.NewUser("Failover Demo", "Example Org", "fdemo")
	if err != nil {
		return nil, err
	}

	cfg := unicore.DefaultWorkload(42, 12, d.Targets())
	cfg.MultiSiteFraction = 0
	cfg.MeanCPU = 15 * time.Minute
	cfg.MaxProcs = 8
	jobs, err := unicore.GenerateWorkload(cfg)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	sess := d.Session(user, usite)
	ids := make(map[string]unicore.JobID, len(jobs))
	for _, j := range jobs {
		id, err := sess.Submit(ctx, j)
		if err != nil {
			return nil, err
		}
		ids[j.Name()] = id
	}

	// Mid-workload: staging done, batch jobs spread over the three replicas.
	d.Clock.Advance(10 * time.Minute)

	if kill {
		if err := site.KillReplica(vsite, victim); err != nil {
			return nil, err
		}
		fmt.Printf("killed replica %s mid-workload; pool routes around it:\n", victim)
		// New work keeps flowing while the replica is down — the health
		// check tripped its breaker, so admissions land on the survivors.
		b := unicore.NewJob("during-outage", unicore.Target{Usite: usite, Vsite: vsite})
		b.Script("noop", "cpu 1m\necho still serving\n",
			unicore.ResourceRequest{Processors: 1, RunTime: time.Hour})
		probe, err := b.Build()
		if err != nil {
			return nil, err
		}
		if _, err := sess.Submit(ctx, probe); err != nil {
			return nil, err
		}
		fmt.Printf("  consign during outage: accepted by a surviving replica\n")

		// One controller pass finds the dead replica, recovers it from its
		// journal and swaps it back into the pool under its stable tag.
		res, err := site.Reconcile()
		if err != nil {
			return nil, err
		}
		if res.Healed != 1 {
			return nil, fmt.Errorf("reconcile healed %d replicas, want 1", res.Healed)
		}
		fmt.Printf("  replica %s recovered from its journal and rejoined the pool\n\n", victim)
	}

	if fired := d.Run(10_000_000); fired >= 10_000_000 {
		return nil, fmt.Errorf("clock never went idle")
	}

	out := make(map[string]string, len(ids))
	for name, id := range ids {
		o, err := sess.Outcome(ctx, id)
		if err != nil {
			return nil, err
		}
		out[name] = o.Status.String()
	}
	return out, nil
}

func main() {
	base, err := run(false)
	if err != nil {
		log.Fatal(err)
	}
	failed, err := run(true)
	if err != nil {
		log.Fatal(err)
	}

	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%-10s  %-12s  %-12s\n", "job", "baseline", "failover")
	identical := true
	for _, name := range names {
		fmt.Printf("%-10s  %-12s  %-12s\n", name, base[name], failed[name])
		if base[name] != failed[name] {
			identical = false
		}
	}
	fmt.Printf("\noutcomes identical across replica failover: %v\n", identical)
	if !identical {
		os.Exit(1)
	}
}
