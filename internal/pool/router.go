package pool

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"sort"
	"sync"

	"unicore/internal/ajo"
	"unicore/internal/core"
	"unicore/internal/njs"
	"unicore/internal/protocol"
	"unicore/internal/resources"
	"unicore/internal/telemetry"
)

// Router aggregates the ReplicaSets of one Usite and implements njs.Service,
// so a gateway fronts a replicated server tier through the exact interface
// it uses for a single NJS (paper §4.2: the gateway stays the one door to
// the site; the pooling behind it is invisible to clients). Consignments and
// staged-upload opens are placed by the target Vsite's set; job- and
// handle-scoped calls go to the replica their ID names (jobs.go); listings,
// event streams and load figures are merged across every replica.
type Router struct {
	usite core.Usite

	// mu guards set membership and the mapper: sets are usually registered
	// at assembly time, but a controller may add one to a live router when
	// the declared topology grows a Vsite.
	mu    sync.RWMutex
	sets  map[core.Vsite]*ReplicaSet
	order []core.Vsite

	mapper njs.LoginMapper
}

// Router implements the NJS service surface.
var _ njs.Service = (*Router)(nil)

// NewRouter creates an empty router for one Usite; add per-Vsite sets with
// AddSet before serving traffic.
func NewRouter(usite core.Usite) (*Router, error) {
	if usite == "" {
		return nil, errors.New("pool: empty usite")
	}
	return &Router{usite: usite, sets: make(map[core.Vsite]*ReplicaSet)}, nil
}

// AddSet registers a Vsite's replica set — at assembly time, or on a live
// router when the declared topology grows a Vsite.
func (r *Router) AddSet(set *ReplicaSet) error {
	if set == nil {
		return errors.New("pool: nil replica set")
	}
	r.mu.Lock()
	if _, dup := r.sets[set.Vsite()]; dup {
		r.mu.Unlock()
		return fmt.Errorf("pool: duplicate replica set for vsite %q", set.Vsite())
	}
	r.sets[set.Vsite()] = set
	r.order = append(r.order, set.Vsite())
	mapper := r.mapper
	r.mu.Unlock()
	if mapper != nil {
		set.SetLoginMapper(mapper)
	}
	return nil
}

// Set returns the replica set serving a Vsite.
func (r *Router) Set(v core.Vsite) (*ReplicaSet, bool) {
	r.mu.RLock()
	s, ok := r.sets[v]
	r.mu.RUnlock()
	return s, ok
}

// Sets lists the replica sets in registration order.
func (r *Router) Sets() []*ReplicaSet {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*ReplicaSet, 0, len(r.order))
	for _, v := range r.order {
		out = append(out, r.sets[v])
	}
	return out
}

// Usite returns the site this router fronts.
func (r *Router) Usite() core.Usite { return r.usite }

// live lists the replicas of every set that can take a call right now —
// closed breakers, and half-open ones that answer an inline probe — in set
// then registration order.
func (r *Router) live() []*Replica {
	var out []*Replica
	for _, set := range r.Sets() {
		now := set.cfg.Clock.Now()
		for _, rep := range set.snapshotReplicas() {
			if set.usable(rep, now) {
				out = append(out, rep)
			}
		}
	}
	return out
}

// SetLoginMapper installs the DN→login resolver on every replica of every
// set — the gateway calls this once when it adopts the router as its
// backend, exactly as it would a single NJS.
func (r *Router) SetLoginMapper(fn njs.LoginMapper) {
	r.mu.Lock()
	r.mapper = fn
	r.mu.Unlock()
	for _, set := range r.Sets() {
		set.SetLoginMapper(fn)
	}
}

// CheckNow actively health-checks every replica of every set once.
func (r *Router) CheckNow() {
	for _, set := range r.Sets() {
		set.CheckNow()
	}
}

// StartHealthChecks arms the active health-check loop on every set (for
// real-clock daemons; see ReplicaSet.StartHealthChecks).
func (r *Router) StartHealthChecks() {
	for _, set := range r.Sets() {
		set.StartHealthChecks()
	}
}

// StopHealthChecks cancels every set's health-check loop.
func (r *Router) StopHealthChecks() {
	for _, set := range r.Sets() {
		set.StopHealthChecks()
	}
}

// Consign admits an AJO on the target Vsite's replica set (§5.3 admission
// with pool failover).
func (r *Router) Consign(ctx context.Context, user core.DN, consignID string, job *ajo.AbstractJob) (core.JobID, error) {
	if job.Target.Usite != r.usite {
		return "", fmt.Errorf("%w: %s (this pool serves %s)", njs.ErrWrongUsite, job.Target, r.usite)
	}
	set, ok := r.Set(job.Target.Vsite)
	if !ok {
		return "", fmt.Errorf("%w: %q", njs.ErrUnknownVsite, job.Target.Vsite)
	}
	return set.Consign(ctx, user, consignID, job)
}

// Metrics returns every set's pool snapshot and per-replica snapshots — the
// full per-replica breakdown behind a MsgMetrics scrape of a pooled Usite.
func (r *Router) Metrics() []telemetry.Snapshot {
	var out []telemetry.Snapshot
	for _, set := range r.Sets() {
		out = append(out, set.Metrics()...)
	}
	return out
}

// Events serves a protocol-v2 subscription read. A job-scoped request goes
// to the replica the job ID names; its per-job Seq cursor is
// replica-independent — a journal-recovered replacement restores the job's
// event stream with the original numbering — so failover needs no cursor
// translation, and the subscriber resumes with no lost and no duplicated
// events. A user-scoped request merges the streams of every usable replica,
// keyed by per-origin cursors: one origin per replica, its instance.
func (r *Router) Events(caller core.DN, asServer bool, req protocol.SubscribeRequest) (protocol.EventsReply, error) {
	if req.Job != "" {
		rep, err := r.jobReplica(req.Job)
		if rep == nil {
			return protocol.EventsReply{}, jobMissing(req.Job, err)
		}
		return rep.service().Events(caller, asServer, req)
	}
	merged := protocol.EventsReply{Cursor: req.Cursor, Origins: make(map[string]uint64)}
	for _, rep := range r.live() {
		reply, err := rep.service().Events(caller, asServer, req)
		if err != nil {
			return protocol.EventsReply{}, err
		}
		merged.Events = append(merged.Events, reply.Events...)
		maps.Copy(merged.Origins, reply.Origins)
		merged.Gap = merged.Gap || reply.Gap
	}
	// Deterministic merge order: server time, then origin, then per-replica
	// append order.
	evs := merged.Events
	sort.Slice(evs, func(i, j int) bool {
		if !evs[i].Time.Equal(evs[j].Time) {
			return evs[i].Time.Before(evs[j].Time)
		}
		if evs[i].Origin != evs[j].Origin {
			return evs[i].Origin < evs[j].Origin
		}
		return evs[i].Global < evs[j].Global
	})
	return merged, nil
}

// EventsNotify returns a channel that closes when an event may be available:
// the notify channel of the replica a job ID names, or for any other
// subscription the fan-in of every usable replica's. The release func must
// be called when the wait ends; it reclaims the fan-in goroutines.
func (r *Router) EventsNotify(req protocol.SubscribeRequest) (<-chan struct{}, func()) {
	if req.Job != "" {
		if rep, _ := r.jobReplica(req.Job); rep != nil {
			return rep.service().EventsNotify(req)
		}
	}
	out, stop := make(chan struct{}), make(chan struct{})
	var once, stopOnce sync.Once
	var releases []func()
	for _, rep := range r.live() {
		ch, release := rep.service().EventsNotify(req)
		releases = append(releases, release)
		go func() {
			select {
			case <-ch:
				once.Do(func() { close(out) })
			case <-stop:
			}
		}()
	}
	return out, func() {
		stopOnce.Do(func() { close(stop) })
		for _, release := range releases {
			release()
		}
	}
}

// List merges the caller's jobs across the replicas currently taking
// traffic, newest first with the NJS tie-break — the order a single NJS
// reports. Half-open replicas are probed and included when they answer; a
// tripped replica's jobs are omitted until it recovers (poll one of them to
// get an explicit ErrReplicaDown instead of a silent gap).
func (r *Router) List(caller core.DN) ([]protocol.JobInfo, error) {
	var out []protocol.JobInfo
	for _, rep := range r.live() {
		jobs, err := rep.service().List(caller)
		if err != nil {
			return nil, err
		}
		out = append(out, jobs...)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Submitted.Equal(out[j].Submitted) {
			return out[i].Submitted.After(out[j].Submitted)
		}
		return out[i].Job > out[j].Job
	})
	return out, nil
}

// Pages returns one resource page per Vsite (§5.4) — replicas of a Vsite
// share one machine profile, so the first healthy replica speaks for the
// set.
func (r *Router) Pages() []resources.Page {
	var out []resources.Page
	for _, set := range r.Sets() {
		reps := set.snapshotReplicas()
		if len(reps) == 0 {
			continue
		}
		pick := reps[0]
		now := set.cfg.Clock.Now()
		for _, rep := range reps {
			if rep.state(now) == stateClosed {
				pick = rep
				break
			}
		}
		out = append(out, pick.service().Pages()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Target.String() < out[j].Target.String() })
	return out
}

// VsiteLoads reports per-Vsite occupancy with the replica-pool health the
// broker uses to skip drained sites.
func (r *Router) VsiteLoads() map[core.Vsite]njs.VsiteLoad {
	sets := r.Sets()
	out := make(map[core.Vsite]njs.VsiteLoad, len(sets))
	for _, set := range sets {
		out[set.Vsite()] = set.LoadInfo()
	}
	return out
}

// Ping reports nil while at least one replica of one set is healthy.
func (r *Router) Ping() error {
	for _, set := range r.Sets() {
		if len(set.Healthy()) > 0 {
			return nil
		}
	}
	return ErrNoReplica
}
