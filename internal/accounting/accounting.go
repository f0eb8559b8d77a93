// Package accounting aggregates batch usage records across a UNICORE
// deployment. The paper's outlook (§6) names "accounting functions and load
// information" as the inputs a resource broker needs to "find the best
// system for an application with given time constraints"; this package
// supplies the accounting half and the broker package consumes it.
//
// Records originate in each Vsite's batch subsystem (package codine) and are
// tagged with their target so multi-site usage can be merged, grouped, and
// charged in machine-normalised units.
package accounting

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"unicore/internal/codine"
	"unicore/internal/core"
)

// Record is one site-tagged accounting line.
type Record struct {
	Target core.Target
	// MFlopsPerPE is the peak per-PE performance of the machine that ran the
	// job; charging normalises CPU time by it.
	MFlopsPerPE int
	codine.Record
}

// ChargeUnits converts the record's consumption into machine-normalised
// units: slot-seconds weighted by per-PE peak performance (GFlop-seconds of
// nominal capacity). Sites charged this way can be compared and summed.
func (r Record) ChargeUnits() float64 {
	wall := r.End.Sub(r.Start)
	if wall < 0 {
		wall = 0
	}
	return wall.Seconds() * float64(r.Slots) * float64(r.MFlopsPerPE) / 1000.0
}

// Summary aggregates a set of records.
type Summary struct {
	Jobs      int
	Completed int
	Failed    int
	Cancelled int
	CPUTime   time.Duration
	WallTime  time.Duration // sum over jobs of end-start
	QueueWait time.Duration // sum of start-submit
	SlotSecs  float64       // sum of slots*(end-start) in seconds
	Charge    float64       // sum of ChargeUnits
}

// MeanQueueWait reports the average time jobs waited before dispatch.
func (s Summary) MeanQueueWait() time.Duration {
	if s.Jobs == 0 {
		return 0
	}
	return s.QueueWait / time.Duration(s.Jobs)
}

// add folds one record into the summary.
func (s *Summary) add(r Record) {
	s.Jobs++
	switch r.State {
	case codine.StateDone:
		s.Completed++
	case codine.StateCancelled:
		s.Cancelled++
	default:
		s.Failed++
	}
	s.CPUTime += r.CPUTime
	wall := r.End.Sub(r.Start)
	if wall > 0 {
		s.WallTime += wall
		s.SlotSecs += wall.Seconds() * float64(r.Slots)
	}
	if wait := r.Start.Sub(r.Submit); wait > 0 {
		s.QueueWait += wait
	}
	s.Charge += r.ChargeUnits()
}

// Summarise aggregates all records into one summary.
func Summarise(recs []Record) Summary {
	var s Summary
	for _, r := range recs {
		s.add(r)
	}
	return s
}

// ByTarget groups records by Vsite.
func ByTarget(recs []Record) map[core.Target]Summary {
	out := make(map[core.Target]Summary)
	for _, r := range recs {
		s := out[r.Target]
		s.add(r)
		out[r.Target] = s
	}
	return out
}

// Utilization reports the fraction of a machine's capacity consumed by recs
// within [from, to): slot-seconds used divided by slots*window.
func Utilization(recs []Record, totalSlots int, from, to time.Time) float64 {
	window := to.Sub(from)
	if window <= 0 || totalSlots <= 0 {
		return 0
	}
	var used float64
	for _, r := range recs {
		start, end := r.Start, r.End
		if start.Before(from) {
			start = from
		}
		if end.After(to) {
			end = to
		}
		if d := end.Sub(start); d > 0 {
			used += d.Seconds() * float64(r.Slots)
		}
	}
	return used / (window.Seconds() * float64(totalSlots))
}

// Makespan reports the span from the earliest submit to the latest end.
func Makespan(recs []Record) time.Duration {
	if len(recs) == 0 {
		return 0
	}
	first, last := recs[0].Submit, recs[0].End
	for _, r := range recs[1:] {
		if r.Submit.Before(first) {
			first = r.Submit
		}
		if r.End.After(last) {
			last = r.End
		}
	}
	if last.Before(first) {
		return 0
	}
	return last.Sub(first)
}

// CSV renders the records as a comma-separated table, sorted by end time
// (ties by target and job ID) — the exportable accounting report.
func CSV(recs []Record) string {
	sorted := append([]Record(nil), recs...)
	sort.Slice(sorted, func(i, j int) bool {
		if !sorted[i].End.Equal(sorted[j].End) {
			return sorted[i].End.Before(sorted[j].End)
		}
		if sorted[i].Target != sorted[j].Target {
			return sorted[i].Target.String() < sorted[j].Target.String()
		}
		return sorted[i].Job < sorted[j].Job
	})
	var b strings.Builder
	b.WriteString("target,job,name,owner,project,queue,slots,submit,start,end,cpu_s,state,exit,charge\n")
	for _, r := range sorted {
		fmt.Fprintf(&b, "%s,%d,%s,%s,%s,%s,%d,%s,%s,%s,%.1f,%s,%d,%.2f\n",
			r.Target, r.Job, csvEscape(r.Name), r.Owner, r.Project, r.Queue, r.Slots,
			r.Submit.Format(time.RFC3339), r.Start.Format(time.RFC3339), r.End.Format(time.RFC3339),
			r.CPUTime.Seconds(), r.State, r.ExitCode, r.ChargeUnits())
	}
	return b.String()
}

func csvEscape(s string) string {
	if !strings.ContainsAny(s, ",\"\n") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}
