package pool

// Staged-upload placement. A staged upload's chunks live in exactly one
// replica's spool, and its handle names that replica (see Instance): chunk
// and commit calls route by the name (jobs.go), and the handles referenced
// by a consigned AJO's ImportTasks are the consign-affinity hint — the
// admission must land on the replica that holds the bytes.

import (
	"fmt"

	"unicore/internal/ajo"
	"unicore/internal/core"
	"unicore/internal/njs"
	"unicore/internal/protocol"
	"unicore/internal/staging"
)

// StageReporter is the optional introspection surface a pooled service may
// implement (*njs.NJS does): the transfer handles its spools currently hold
// — how DrainStatus tells whether a draining replica still holds uploads.
type StageReporter interface {
	// StagedHandles returns every spooled transfer handle.
	StagedHandles() []string
}

// StageOpen begins a staged upload on a healthy replica, whose instance the
// returned handle carries. The caller's previous open wins over the routing
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

// stageHint resolves the consign-affinity constraint of a job's staged
// uploads: the one replica of this set that ALL of them name. Handles naming
// different replicas make the job unsatisfiable anywhere — that consign
// fails loudly here rather than failing later at import time. Handles naming
// no replica of the set impose no constraint (the import surfaces the
// missing upload).
func (s *ReplicaSet) stageHint(job *ajo.AbstractJob) (*Replica, error) {
	var hint *Replica
	for _, h := range job.StagedHandles() {
		rep, ok := s.replica(staging.HandleTag(h))
		if !ok {
			continue
		}
		if hint != nil && rep != hint {
			return nil, fmt.Errorf(
				"pool: job references staged uploads on different replicas (%s and %s) — re-stage them together",
				hint.name, rep.name)
		}
		hint = rep
	}
	return hint, nil
}

// StageOpen routes a staged-upload open to the target Vsite's replica set.
func (r *Router) StageOpen(caller core.DN, asServer bool, req protocol.PutOpenRequest) (protocol.PutOpenReply, error) {
	set, ok := r.Set(req.Vsite)
	if !ok {
		return protocol.PutOpenReply{}, fmt.Errorf("%w: %q", njs.ErrUnknownVsite, req.Vsite)
	}
	return set.StageOpen(caller, asServer, req)
}
