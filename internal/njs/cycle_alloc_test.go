package njs

import (
	"context"
	"fmt"
	"testing"
	"time"

	"unicore/internal/ajo"
	"unicore/internal/core"
	"unicore/internal/resources"
	"unicore/internal/sim"
)

// cycleJob is the three-action job of a user's whole job cycle: stage a
// payload in, run a script over it, export the result to the Xspace.
func cycleJob(i int) *ajo.AbstractJob {
	name := fmt.Sprintf("cycle-%06d", i)
	return &ajo.AbstractJob{
		Header: ajo.Header{ActionID: ajo.ActionID(name), ActionName: name},
		Target: core.Target{Usite: "FZJ", Vsite: "CLUSTER"},
		Actions: ajo.ActionList{
			&ajo.ImportTask{Header: ajo.Header{ActionID: "import-01"}, Source: ajo.ImportSource{Inline: make([]byte, 256)}, To: "input.dat"},
			&ajo.ScriptTask{
				TaskBase: ajo.TaskBase{
					Header:    ajo.Header{ActionID: "script-02", ActionName: "run"},
					Resources: resources.Request{Processors: 1, RunTime: time.Minute},
				},
				Script: "cat input.dat > out.dat\necho done\n",
			},
			&ajo.ExportTask{Header: ajo.Header{ActionID: "export-03"}, From: "out.dat", ToXspace: "results/" + name + ".dat"},
		},
		Dependencies: []ajo.Dependency{{Before: "import-01", After: "script-02"}, {Before: "script-02", After: "export-03"}},
	}
}

// jobCycleBudget bounds the allocations of one durable three-action job's
// whole cycle in-process: consign with its durable ack, every transition
// with its event and journal record, and the outcome read.
const jobCycleBudget = 125

// TestJobCycleAllocationBudget holds the job cycle to jobCycleBudget. A
// transition allocates what the job keeps (its records, events and files)
// and nothing it throws away.
func TestJobCycleAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	clock := sim.NewVirtualClock()
	n, store := newDurableNJS(t, clock, t.TempDir(), 0)
	defer store.Close()
	const runs = 50
	jobs := make([]*ajo.AbstractJob, runs+1) // AllocsPerRun runs once more to warm up
	consignIDs := make([]string, runs+1)
	for i := range jobs {
		jobs[i], consignIDs[i] = cycleJob(i), fmt.Sprintf("consign-%06d", i)
	}
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		id, err := n.Consign(context.Background(), alice, consignIDs[i], jobs[i])
		if err != nil {
			t.Fatalf("Consign: %v", err)
		}
		i++
		clock.RunUntilIdle(0)
		o, found, err := n.Outcome(alice, false, id)
		if err != nil || !found || o.Status != ajo.StatusSuccessful {
			t.Fatalf("Outcome of %s: %v found=%v %v", id, o, found, err)
		}
	})
	if allocs > jobCycleBudget {
		t.Errorf("a durable job cycle allocates %.0f times, budget %d", allocs, jobCycleBudget)
	}
}
