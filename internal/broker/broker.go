// Package broker implements the resource broker the paper lists as the key
// future enhancement (§6): "a resource broker which supports the users in a
// way that they can specify the needed resources on a more abstract level
// and the broker finds the appropriate execution server for it. Together
// with accounting functions and load information the resource broker can
// find the best system for an application with given time constraints."
//
// The broker combines three inputs, all available in the reproduced system:
// the Vsites' resource pages (capability filter, §5.4), live load queries
// answered by each gateway, and the performance figures the pages carry.
package broker

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"unicore/internal/ajo"
	"unicore/internal/core"
	"unicore/internal/protocol"
	"unicore/internal/resources"
)

// ErrNoCandidate reports that no known Vsite satisfies a request.
var ErrNoCandidate = errors.New("broker: no Vsite satisfies the request")

// Policy selects the ranking strategy.
type Policy int

const (
	// LeastLoaded picks the Vsite with the smallest occupancy and backlog.
	LeastLoaded Policy = iota
	// FastestMachine picks the Vsite with the highest aggregate peak
	// performance among those that satisfy the request.
	FastestMachine
	// BestTurnaround estimates wait + run time per Vsite and picks the
	// minimum — the "best system for an application with given time
	// constraints" of §6.
	BestTurnaround
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case LeastLoaded:
		return "least-loaded"
	case FastestMachine:
		return "fastest-machine"
	case BestTurnaround:
		return "best-turnaround"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// Load is one Vsite's live occupancy as reported by its gateway, including
// the NJS replicas behind it: Replicas/Healthy let the ranking skip a
// drained Vsite — one with no healthy NJS replica — and weight backlog by
// the capacity that actually survives. A single NJS reports 1/1.
type Load struct {
	Load     float64 // fraction of batch slots in use, [0,1]
	Pending  int     // jobs waiting in the queues
	Inflight int     // consigns being admitted right now (live telemetry gauge)
	Replicas int     // NJS replicas serving this Vsite
	Healthy  int     // replicas currently healthy
}

// Drained reports whether no healthy NJS replica serves the Vsite: every
// replica of its pool is failing its health check, or it has none. A Vsite
// with no load report reads as the zero Load, so it is drained too.
func (l Load) Drained() bool { return l.Healthy <= 0 }

// healthyFraction is the surviving share of the Vsite's capacity; scoring
// reads it only for a Vsite that is not drained.
func (l Load) healthyFraction() float64 {
	return float64(l.Healthy) / float64(max(l.Replicas, l.Healthy))
}

// Candidate is one ranked placement option.
type Candidate struct {
	Target core.Target
	Score  float64 // lower is better
	Load   Load
	// EstWait and EstRun are only filled by BestTurnaround.
	EstWait time.Duration
	EstRun  time.Duration
}

// loadEntry is one recorded load report plus the refresh epoch that
// produced it, which lets a clean refresh evict it. Without the epoch, a
// removed or renamed Vsite's last report competes in Candidates forever.
type loadEntry struct {
	l     Load
	epoch uint64
}

// Broker ranks Vsites for abstract resource requests.
type Broker struct {
	mu       sync.Mutex
	catalog  *resources.Catalog
	loads    map[core.Target]loadEntry
	policy   Policy
	epoch    uint64                 // bumps at every Refresh round
	siteCost map[core.Usite]float64 // additive placement cost per Usite
}

// New creates a broker with the given policy.
func New(policy Policy) *Broker {
	return &Broker{
		catalog:  resources.NewCatalog(),
		loads:    make(map[core.Target]loadEntry),
		policy:   policy,
		siteCost: make(map[core.Usite]float64),
	}
}

// AddPage registers a Vsite's resource page.
func (b *Broker) AddPage(p *resources.Page) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.catalog.Add(p)
}

// SetLoad records a Vsite's live load, stamped with the current epoch.
func (b *Broker) SetLoad(t core.Target, l Load) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.loads[t] = loadEntry{l: l, epoch: b.epoch}
}

// SetSiteCost biases placement away from a Usite by adding cost to every
// score its Vsites earn, in policy-native units: one unit is a whole
// machine of occupancy under LeastLoaded, one reference processor of peak
// under FastestMachine, and one hour of turnaround under BestTurnaround.
// The federation layer uses this to charge for hop distance and accounting
// usage; a zero cost removes the bias.
func (b *Broker) SetSiteCost(u core.Usite, cost float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if cost == 0 {
		delete(b.siteCost, u)
		return
	}
	b.siteCost[u] = cost
}

// Refresh pulls resource pages and load figures from each Usite's gateway.
// Unreachable Usites don't abort the round: every reachable site is
// refreshed and the per-site failures come back joined. A site that
// refreshes cleanly has its stale state evicted — Vsites it no longer
// reports stop competing in Candidates.
func (b *Broker) Refresh(c *protocol.Client, usites ...core.Usite) error {
	b.mu.Lock()
	b.epoch++
	b.mu.Unlock()
	var errs []error
	for _, u := range usites {
		fresh, err := b.refreshSite(c, u)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		b.evictStaleSite(u, fresh)
	}
	return errors.Join(errs...)
}

// refreshSite pulls one Usite's pages and loads, returning the set of
// targets the gateway still reports.
func (b *Broker) refreshSite(c *protocol.Client, u core.Usite) (map[core.Target]bool, error) {
	var pages protocol.ResourcesReply
	if err := protocol.Do(context.Background(), c, u, protocol.OpResources, protocol.ResourcesRequest{}, &pages); err != nil {
		return nil, fmt.Errorf("broker: resources from %s: %w", u, err)
	}
	fresh := make(map[core.Target]bool)
	for _, der := range pages.PagesDER {
		p, err := resources.UnmarshalASN1(der)
		if err != nil {
			return nil, fmt.Errorf("broker: page from %s: %w", u, err)
		}
		b.AddPage(p)
		fresh[p.Target] = true
	}
	var load protocol.LoadReply
	if err := protocol.Do(context.Background(), c, u, protocol.OpLoad, protocol.LoadRequest{}, &load); err != nil {
		return nil, fmt.Errorf("broker: load from %s: %w", u, err)
	}
	for vs, vl := range load.Vsites {
		t := core.Target{Usite: u, Vsite: core.Vsite(vs)}
		fresh[t] = true
		b.SetLoad(t, Load{
			Load: vl.Load, Pending: vl.Pending, Inflight: vl.Inflight,
			Replicas: vl.Replicas, Healthy: vl.Healthy,
		})
	}
	return fresh, nil
}

// evictStaleSite drops every record at Usite u that this refresh round did
// not renew: the gateway answered authoritatively, so anything it no longer
// reports — a removed or renamed Vsite — is gone, page and load both.
func (b *Broker) evictStaleSite(u core.Usite, fresh map[core.Target]bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, t := range b.catalog.Targets() {
		if t.Usite == u && !fresh[t] {
			b.catalog.Remove(t)
			delete(b.loads, t)
		}
	}
	for t := range b.loads {
		if t.Usite == u && !fresh[t] {
			delete(b.loads, t)
		}
	}
}

// Candidates ranks every known Vsite that satisfies the request, best
// first. software lists additional requirements (e.g. an f90 compiler).
func (b *Broker) Candidates(req resources.Request, software ...resources.Software) ([]Candidate, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []Candidate
	for _, t := range b.catalog.Targets() {
		page, _ := b.catalog.Get(t)
		if err := page.Check(req); err != nil {
			continue
		}
		ok := true
		for _, sw := range software {
			if !page.HasSoftware(sw.Kind, sw.Name, sw.Version) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		e := b.loads[t]
		if e.l.Drained() {
			// Every NJS replica behind the Vsite is failing its health
			// check: the capability is nominally there, but nothing can take
			// responsibility for a job right now. Selecting it would trade
			// the §6 "best system" promise for a consign error.
			continue
		}
		c := Candidate{Target: t, Load: e.l}
		b.score(&c, page, req)
		out = append(out, c)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%w: %s", ErrNoCandidate, req)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score < out[j].Score
		}
		return out[i].Target.String() < out[j].Target.String()
	})
	return out, nil
}

// Choose returns the best placement for the request.
func (b *Broker) Choose(req resources.Request, software ...resources.Software) (core.Target, error) {
	cands, err := b.Candidates(req, software...)
	if err != nil {
		return core.Target{}, err
	}
	return cands[0].Target, nil
}

// referenceMFlops normalises machine speed: the T3E's 600 MFlops/PE is the
// deployment's reference point.
const referenceMFlops = 600.0

// score fills Candidate.Score under the broker's policy. Lower is better.
// Backlog pressure is normalised by the capacity that is actually healthy:
// a half-drained replica pool queues twice as deep per surviving slot.
func (b *Broker) score(c *Candidate, page *resources.Page, req resources.Request) {
	slots := page.Processors.Max
	if slots < 1 {
		slots = 1
	}
	effSlots := float64(slots) * c.Load.healthyFraction()
	if effSlots < 1 {
		effSlots = 1
	}
	switch b.policy {
	case LeastLoaded:
		// Occupancy plus backlog pressure, normalised by machine size.
		// Inflight consigns — the live telemetry gauge a scrape carries —
		// count as queued work that the Pending figure hasn't absorbed yet,
		// so a Vsite being hammered with admissions ranks below an idle one
		// even before its queues reflect the burst.
		c.Score = c.Load.Load + float64(c.Load.Pending+c.Load.Inflight)/effSlots
	case FastestMachine:
		// Negative aggregate peak: the biggest machine wins regardless of
		// load (the user-visible behaviour of "give me the fast one").
		c.Score = -float64(page.PerfMFlops) * float64(slots)
	case BestTurnaround:
		// A deliberately simple queueing estimate: each pending job holds
		// the requested share of the machine for about the requested run
		// time, and the run itself scales inversely with per-PE speed.
		run := req.RunTime
		if run == 0 {
			run = time.Duration(page.RunTimeSec.Default) * time.Second
		}
		procs := req.Processors
		if procs == 0 {
			procs = page.Processors.Default
		}
		occupancy := c.Load.Load + float64((c.Load.Pending+c.Load.Inflight)*procs)/effSlots
		wait := time.Duration(occupancy * float64(run))
		perf := float64(page.PerfMFlops)
		if perf <= 0 {
			perf = referenceMFlops
		}
		est := time.Duration(float64(run) * referenceMFlops / perf)
		c.EstWait = wait
		c.EstRun = est
		c.Score = (wait + est).Seconds()
	}
	if cost := b.siteCost[c.Target.Usite]; cost != 0 {
		c.Score += cost * b.costUnit(page)
	}
}

// costUnit converts one abstract unit of site cost into the running
// policy's score scale (see SetSiteCost).
func (b *Broker) costUnit(page *resources.Page) float64 {
	switch b.policy {
	case FastestMachine:
		return referenceMFlops
	case BestTurnaround:
		return time.Hour.Seconds()
	default: // LeastLoaded
		return 1
	}
}

// Retarget rewrites a job's destination to the chosen target. Nested job
// groups keep their own explicit destinations — the broker only places the
// top-level job, matching the §6 sketch.
func Retarget(job *ajo.AbstractJob, t core.Target) {
	job.Target = t
}
