// Command unicore-testbed runs the §5.7 German six-site deployment
// in-process under a virtual clock, drives a synthetic workload through the
// full stack (JPA → gateway → NJS → incarnation → batch subsystem), and
// prints the per-site accounting — a one-command demonstration of the whole
// architecture.
//
// Usage:
//
//	unicore-testbed -jobs 60 -seed 1999 [-split] [-csv accounting.csv]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"time"

	"unicore/internal/accounting"
	"unicore/internal/ajo"
	"unicore/internal/client"
	"unicore/internal/core"
	"unicore/internal/testbed"
)

func main() {
	var (
		jobs    = flag.Int("jobs", 40, "number of workload jobs")
		seed    = flag.Int64("seed", 1999, "workload random seed")
		split   = flag.Bool("split", false, "deploy every site in firewall-split mode")
		csvPath = flag.String("csv", "", "write the accounting records as CSV")
	)
	flag.Parse()

	specs := testbed.GermanSpecs()
	if *split {
		for i := range specs {
			specs[i].Split = true
		}
	}
	start := time.Now()
	d, err := testbed.New(specs...)
	if err != nil {
		log.Fatalf("unicore-testbed: %v", err)
	}
	defer d.Close()

	user, err := d.NewUser("Testbed User", "GCS", "bench")
	if err != nil {
		log.Fatalf("unicore-testbed: %v", err)
	}
	// One session per Usite over one shared client: one identity, one
	// persistent stream per site.
	ctx := context.Background()
	c := d.UserClient(user)
	sessions := make(map[core.Usite]*client.Session)
	session := func(usite core.Usite) *client.Session {
		if sessions[usite] == nil {
			sessions[usite] = client.NewSession(c, usite)
		}
		return sessions[usite]
	}

	workload, err := testbed.GenerateWorkload(testbed.DefaultWorkload(*seed, *jobs, d.Targets()))
	if err != nil {
		log.Fatalf("unicore-testbed: %v", err)
	}
	fmt.Printf("deployed %d sites; consigning %d jobs...\n", len(d.Sites), len(workload))

	ids := make(map[core.JobID]core.Usite, len(workload))
	for _, j := range workload {
		id, err := session(j.Target.Usite).Submit(ctx, j)
		if err != nil {
			log.Fatalf("unicore-testbed: submitting %s: %v", j.Name(), err)
		}
		ids[id] = j.Target.Usite
	}
	events := d.Run(50_000_000)

	var ok, failed int
	for id, usite := range ids {
		sum, err := session(usite).Status(ctx, id)
		if err != nil {
			log.Fatalf("unicore-testbed: status %s: %v", id, err)
		}
		if sum.Status == ajo.StatusSuccessful {
			ok++
		} else {
			failed++
		}
	}

	recs := d.Accounting()
	total := accounting.Summarise(recs)
	fmt.Printf("\n%d events fired in %.2fs wall time\n", events, time.Since(start).Seconds())
	fmt.Printf("jobs: %d successful, %d failed (of %d)\n", ok, failed, len(ids))
	fmt.Printf("batch records: %d; virtual makespan %s; total CPU %s; mean queue wait %s\n",
		total.Jobs, accounting.Makespan(recs).Round(time.Second),
		total.CPUTime.Round(time.Second), total.MeanQueueWait().Round(time.Second))

	fmt.Printf("\n%-10s %-8s %-8s %-12s %-12s %s\n", "VSITE", "JOBS", "FAILED", "CPU", "CHARGE", "UTILISATION")
	byTarget := accounting.ByTarget(recs)
	targets := make([]core.Target, 0, len(byTarget))
	for t := range byTarget {
		targets = append(targets, t)
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].String() < targets[j].String() })
	makespan := accounting.Makespan(recs)
	for _, t := range targets {
		s := byTarget[t]
		var slots int
		for _, spec := range specs {
			if spec.Usite != t.Usite {
				continue
			}
			for _, v := range spec.Vsites {
				if v.Name == t.Vsite {
					slots = v.Profile.Processors
				}
			}
		}
		var perSite []accounting.Record
		for _, r := range recs {
			if r.Target == t {
				perSite = append(perSite, r)
			}
		}
		util := 0.0
		if len(perSite) > 0 && makespan > 0 {
			first := perSite[0].Submit
			for _, r := range perSite {
				if r.Submit.Before(first) {
					first = r.Submit
				}
			}
			util = accounting.Utilization(perSite, slots, first, first.Add(makespan))
		}
		fmt.Printf("%-10s %-8d %-8d %-12s %-12.0f %.1f%%\n",
			t, s.Jobs, s.Failed, s.CPUTime.Round(time.Second), s.Charge, util*100)
	}

	if *csvPath != "" {
		if err := os.WriteFile(*csvPath, []byte(accounting.CSV(recs)), 0o644); err != nil {
			log.Fatalf("unicore-testbed: writing CSV: %v", err)
		}
		fmt.Printf("\naccounting written to %s\n", *csvPath)
	}
}
