package pool

// Job-scoped routing. Every call that concerns one admitted job — Poll,
// Outcome, Control, FetchFileOwned, job-scoped Events — is routed
// the same way, so each is written once (scopedCalls) over the one thing it
// needs from a routing tier (tier.routeJob): a ReplicaSet follows the job's
// affinity pin or, on a cold pool, scatters until a replica finds the job and
// pins it there; a Router asks each of its sets to do that in turn. The ops
// differ only in the njs.Service call they make and in how that call says
// "no such job". The calls scoped to a staged upload's handle (staging.go)
// are written the same way over tier.routeStage.

import (
	"errors"
	"fmt"

	"unicore/internal/ajo"
	"unicore/internal/core"
	"unicore/internal/njs"
	"unicore/internal/protocol"
)

// tier is one routing tier of the pool, as the scoped calls see it. Both
// routes offer try to the services that may hold what the call is scoped to
// until one finds it: try answers found=false with a nil error for "not here
// — ask the next one", and any error ends the route.
type tier interface {
	routeJob(id core.JobID, try func(njs.Service) (found bool, err error)) (found bool, err error)
	routeStage(handle string, try func(njs.Service) (found bool, err error)) (found bool, err error)
}

// routeJob routes inside a set: straight (and only) to the job's owner when
// it is pinned, else over the lookup order until a replica finds the job,
// which pins it there.
func (s *ReplicaSet) routeJob(id core.JobID, try func(njs.Service) (bool, error)) (bool, error) {
	reps, err := s.lookupOrder(id)
	if err != nil {
		return false, err
	}
	for _, rep := range reps {
		found, err := try(rep.service())
		if err != nil {
			return false, err
		}
		if found {
			s.recordAffinity(id, rep)
			return true, nil
		}
	}
	return false, nil
}

// routeJob finds the job's Vsite set by affinity (scatter on a cold pool).
func (r *Router) routeJob(id core.JobID, try func(njs.Service) (bool, error)) (bool, error) {
	return r.scan(func(set *ReplicaSet) (bool, error) { return set.routeJob(id, try) })
}

// scan offers a call scoped to one job or one staged upload to each set in
// turn until one finds it. A set that reported it unreachable (owner down /
// no replica) wins over "not found", because it may well live behind the
// unhealthy replica.
func (r *Router) scan(try func(*ReplicaSet) (found bool, err error)) (bool, error) {
	var routeErr error
	for _, set := range r.Sets() {
		found, err := try(set)
		switch {
		case errors.Is(err, ErrNoReplica) || errors.Is(err, ErrReplicaDown):
			if routeErr == nil {
				routeErr = err
			}
		case err != nil || found:
			return found, err
		}
	}
	return false, routeErr
}

// keep stores the reply of the service that found what the call is scoped to.
func keep[T any](dst *T, reply T, found bool, err error) (bool, error) {
	if found && err == nil {
		*dst = reply
	}
	return found, err
}

// known adapts a call that reports what it is scoped to as unknown with the
// missing error to a route's found flag.
func known(err, missing error) (bool, error) {
	if errors.Is(err, missing) {
		return false, nil
	}
	return true, err
}

// jobMissing is known's inverse at the end of a job's route: the error of a
// call for a job no service knew.
func jobMissing(id core.JobID, found bool, err error) error {
	if err == nil && !found {
		return fmt.Errorf("%w: %s", njs.ErrUnknownJob, id)
	}
	return err
}

// scopedCalls is the part of njs.Service scoped to one job or one staged
// upload, embedded by both tiers.
type scopedCalls struct{ tier tier }

// Poll returns the status summary of a job from the replica that owns it.
func (c scopedCalls) Poll(caller core.DN, asServer bool, id core.JobID) (reply protocol.PollReply, err error) {
	_, err = c.tier.routeJob(id, func(svc njs.Service) (bool, error) {
		r, err := svc.Poll(caller, asServer, id)
		return keep(&reply, r, r.Found, err)
	})
	return reply, err
}

// Outcome returns the outcome tree of a job from the replica that owns it.
func (c scopedCalls) Outcome(caller core.DN, asServer bool, id core.JobID) (o *ajo.Outcome, found bool, err error) {
	found, err = c.tier.routeJob(id, func(svc njs.Service) (bool, error) {
		got, found, err := svc.Outcome(caller, asServer, id)
		return keep(&o, got, found, err)
	})
	return o, found, err
}

// Control routes an abort/hold/resume to the replica that owns the job.
func (c scopedCalls) Control(caller core.DN, asServer bool, id core.JobID, op ajo.ControlOp) error {
	found, err := c.tier.routeJob(id, func(svc njs.Service) (bool, error) {
		return known(svc.Control(caller, asServer, id, op), njs.ErrUnknownJob)
	})
	return jobMissing(id, found, err)
}

// FetchFileOwned serves a Uspace read — the owner's, or a peer NJS's §5.6
// Uspace-to-Uspace transfer — from the replica that owns the job.
func (c scopedCalls) FetchFileOwned(caller core.DN, asServer bool, id core.JobID, file string, offset, limit int64) (reply protocol.TransferReply, err error) {
	_, err = c.tier.routeJob(id, func(svc njs.Service) (bool, error) {
		r, err := svc.FetchFileOwned(caller, asServer, id, file, offset, limit)
		return keep(&reply, r, r.Found, err)
	})
	return reply, err
}

// jobEvents is the job-scoped half of both tiers' Events (req.Job set); see
// ReplicaSet.Events for why re-routing needs no cursor translation.
func (c scopedCalls) jobEvents(caller core.DN, asServer bool, req protocol.SubscribeRequest) (reply protocol.EventsReply, err error) {
	found, err := c.tier.routeJob(req.Job, func(svc njs.Service) (bool, error) {
		r, err := svc.Events(caller, asServer, req)
		found, err := known(err, njs.ErrUnknownJob)
		return keep(&reply, r, found, err)
	})
	return reply, jobMissing(req.Job, found, err)
}
