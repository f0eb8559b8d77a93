package pool

// Staged-upload routing. A staged upload's chunks live in exactly one
// replica's spool, so the pool pins every transfer handle to the replica
// that holds it: chunk and commit calls follow the pin, and the handles
// referenced by a consigned AJO's ImportTasks become the consign-affinity
// hint — the admission must land on the replica that holds the bytes.
//
// Pins are rebuilt whenever a replica joins or rejoins the set (the
// reconcile pass asks a StageReporter for its spooled handles), so they
// survive pool restarts and replica recovery; as a last resort a
// handle-scoped call scatters over the usable replicas and re-pins on the
// one that recognizes the handle. Pins are pruned on the spool's TTL
// horizon so the map does not grow forever.

import (
	"fmt"
	"time"

	"unicore/internal/ajo"
	"unicore/internal/core"
	"unicore/internal/njs"
	"unicore/internal/protocol"
	"unicore/internal/staging"
)

// StageReporter is the optional introspection surface a pooled service may
// implement (*njs.NJS does): the transfer handles its spools currently hold.
// The pool consults it when a replica joins or rejoins the set, so the
// handle→replica pins survive pool restarts and replica recovery.
type StageReporter interface {
	// StagedHandles returns every spooled transfer handle.
	StagedHandles() []string
}

// stagePin records which replica holds a transfer handle, and when the pin
// was (re)confirmed — the pruning horizon.
type stagePin struct {
	rep *Replica
	at  time.Time
}

// stagePinTTL is how long an untouched pin survives before lazy pruning —
// one sweep interval past the server-side spool TTL, so a pin never outlives
// a prune-eligible upload by much, and never dies before one.
const stagePinTTL = njs.DefaultSpoolTTL + njs.DefaultSpoolTTL/2

// pinStage records (or refreshes) a handle's pin, pruning expired pins on
// the way — O(map) only when something is actually stale.
func (s *ReplicaSet) pinStage(handle string, rep *Replica) {
	now := s.cfg.Clock.Now()
	s.mu.Lock()
	s.stage[handle] = stagePin{rep: rep, at: now}
	for h, p := range s.stage {
		if now.Sub(p.at) > stagePinTTL {
			delete(s.stage, h)
		}
	}
	s.mu.Unlock()
}

// reconcileStage adopts a joining replica's spooled handles into the pin
// map (the staging half of the reconcile pass).
func (s *ReplicaSet) reconcileStage(r *Replica, svc njs.Service) {
	rep, ok := svc.(StageReporter)
	if !ok {
		return
	}
	for _, h := range rep.StagedHandles() {
		s.pinStage(h, r)
	}
}

// StageOpen begins a staged upload on a healthy replica and pins the
// returned handle to it. The caller's previous open wins over the routing
// policy: a job's staged inputs must all land on one replica (the consign
// can only be admitted where ALL the bytes are), and sequential uploads by
// one user are overwhelmingly one job's inputs. Like an ID-less consign, an
// open that failed on a dead replica retries on the next healthy one —
// nothing was acknowledged, and an orphan spool entry on the dead replica
// is garbage-collected.
func (s *ReplicaSet) StageOpen(caller core.DN, asServer bool, req protocol.PutOpenRequest) (protocol.PutOpenReply, error) {
	tried := make(map[*Replica]bool)
	var lastErr error
	for {
		rep := s.pickStageOpen(caller, req.Name, tried)
		if rep == nil {
			break
		}
		tried[rep] = true
		rep.calls.Add(1)
		reply, err := rep.service().StageOpen(caller, asServer, req)
		rep.calls.Add(-1)
		if err == nil {
			rep.markSuccess()
			s.pinStage(reply.Handle, rep)
			s.mu.Lock()
			s.lastOpen[caller] = rep
			s.mu.Unlock()
			return reply, nil
		}
		if !failoverable(err) {
			return protocol.PutOpenReply{}, err
		}
		s.markFailure(rep)
		lastErr = err
	}
	if lastErr != nil {
		return protocol.PutOpenReply{}, fmt.Errorf("%w (last replica error: %v)", ErrNoReplica, lastErr)
	}
	return protocol.PutOpenReply{}, ErrNoReplica
}

// pickStageOpen prefers the replica of the caller's previous open, then
// falls back to the consign policy. A draining replica loses the
// preference — opens are new work — even though its held uploads stay
// reachable for chunk and commit calls.
func (s *ReplicaSet) pickStageOpen(caller core.DN, key string, tried map[*Replica]bool) *Replica {
	s.mu.RLock()
	last := s.lastOpen[caller]
	s.mu.RUnlock()
	if last != nil && !tried[last] && s.acceptsNew(last, s.cfg.Clock.Now()) {
		return last
	}
	return s.pickConsign(key, tried)
}

// stageOrder returns the replicas to consult for a handle-scoped staging
// call: the pinned replica exclusively (failing with ErrReplicaDown while it
// is unhealthy — the chunks are nowhere else), or, for an unpinned handle,
// every usable replica in scatter order.
func (s *ReplicaSet) stageOrder(handle string) ([]*Replica, error) {
	s.mu.RLock()
	pin, pinned := s.stage[handle]
	s.mu.RUnlock()
	now := s.cfg.Clock.Now()
	if pinned {
		if !s.usable(pin.rep, now) {
			return nil, fmt.Errorf("%w: replica %s holds staged upload %s", ErrReplicaDown, pin.rep.name, handle)
		}
		return []*Replica{pin.rep}, nil
	}
	var order []*Replica
	for _, r := range s.snapshotReplicas() {
		if s.usable(r, now) {
			order = append(order, r)
		}
	}
	if len(order) == 0 {
		return nil, ErrNoReplica
	}
	return order, nil
}

// routeStage routes one handle-scoped staging call inside a set: follow the
// pin, or scatter until a replica recognizes the handle and re-pin there.
func (s *ReplicaSet) routeStage(handle string, try func(njs.Service) (bool, error)) (bool, error) {
	reps, err := s.stageOrder(handle)
	if err != nil {
		return false, err
	}
	for _, rep := range reps {
		rep.calls.Add(1)
		found, err := try(rep.service())
		rep.calls.Add(-1)
		if err != nil {
			return false, err
		}
		if found {
			s.pinStage(handle, rep)
			return true, nil
		}
	}
	return false, nil
}

// routeStage finds the upload's Vsite set by handle (scatter on a cold pool).
func (r *Router) routeStage(handle string, try func(njs.Service) (bool, error)) (bool, error) {
	return r.scan(func(set *ReplicaSet) (bool, error) { return set.routeStage(handle, try) })
}

// handleMissing is the error of a staging call for a handle no service knew.
func handleMissing(handle string, found bool, err error) error {
	if err == nil && !found {
		return fmt.Errorf("%w: %q", staging.ErrUnknownHandle, handle)
	}
	return err
}

// StageChunk delivers a chunk to the replica that holds the upload.
func (c scopedCalls) StageChunk(caller core.DN, asServer bool, req protocol.PutChunkRequest) (reply protocol.PutChunkReply, err error) {
	found, err := c.tier.routeStage(req.Handle, func(svc njs.Service) (bool, error) {
		r, err := svc.StageChunk(caller, asServer, req)
		found, err := known(err, staging.ErrUnknownHandle)
		return keep(&reply, r, found, err)
	})
	return reply, handleMissing(req.Handle, found, err)
}

// StageCommit seals an upload on the replica that holds it.
func (c scopedCalls) StageCommit(caller core.DN, asServer bool, req protocol.PutCommitRequest) (reply protocol.PutCommitReply, err error) {
	found, err := c.tier.routeStage(req.Handle, func(svc njs.Service) (bool, error) {
		r, err := svc.StageCommit(caller, asServer, req)
		found, err := known(err, staging.ErrUnknownHandle)
		return keep(&reply, r, found, err)
	})
	return reply, handleMissing(req.Handle, found, err)
}

// stageHint resolves the consign-affinity constraint of a job's staged
// uploads: the one replica pinned for ALL of them. Handles pinned to
// different replicas make the job unsatisfiable anywhere — that consign
// fails loudly here rather than failing later at import time. Unpinned
// handles impose no constraint (the import surfaces the missing upload).
func (s *ReplicaSet) stageHint(job *ajo.AbstractJob) (*Replica, error) {
	handles := job.StagedHandles()
	if len(handles) == 0 {
		return nil, nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	var hint *Replica
	for _, h := range handles {
		pin, ok := s.stage[h]
		if !ok {
			continue
		}
		if hint != nil && pin.rep != hint {
			return nil, fmt.Errorf(
				"pool: job references staged uploads on different replicas (%s and %s) — re-stage them together",
				hint.name, pin.rep.name)
		}
		hint = pin.rep
	}
	return hint, nil
}

// --- Router fan-out -------------------------------------------------------

// StageOpen routes a staged-upload open to the target Vsite's replica set.
func (r *Router) StageOpen(caller core.DN, asServer bool, req protocol.PutOpenRequest) (protocol.PutOpenReply, error) {
	set, ok := r.Set(req.Vsite)
	if !ok {
		return protocol.PutOpenReply{}, fmt.Errorf("%w: %q", njs.ErrUnknownVsite, req.Vsite)
	}
	return set.StageOpen(caller, asServer, req)
}
