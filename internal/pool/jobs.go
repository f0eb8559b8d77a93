package pool

// Routing by name. A pooled replica mints every job ID and staged-upload
// handle under its instance (see Instance), so a call scoped to one job —
// Poll, Outcome, Control, FetchFileOwned, job-scoped Events — or to one
// upload — StageChunk, StageCommit — goes to the replica its ID names, and
// the pool keeps no state to find it: a pool rebuilt since admission routes
// exactly as the one that admitted. A named replica that cannot take the
// call is ErrReplicaDown — never "not found", and never a read from
// elsewhere; an ID that names no replica of the pool is the op's own clean
// not-found.

import (
	"fmt"

	"unicore/internal/ajo"
	"unicore/internal/core"
	"unicore/internal/njs"
	"unicore/internal/protocol"
	"unicore/internal/staging"
)

// named resolves the replica an instance name belongs to: nil, nil when no
// replica of the pool carries it, ErrReplicaDown when the one that does is
// unusable (a half-open breaker is probed inline).
func (r *Router) named(inst string) (*Replica, error) {
	for _, set := range r.Sets() {
		if rep, ok := set.replica(inst); ok {
			if !set.usable(rep, set.cfg.Clock.Now()) {
				return nil, fmt.Errorf("%w: replica %s", ErrReplicaDown, inst)
			}
			return rep, nil
		}
	}
	return nil, nil
}

// jobReplica resolves the replica a job ID names (see named).
func (r *Router) jobReplica(id core.JobID) (*Replica, error) {
	return r.named(njs.JobInstance(r.usite, id))
}

// jobMissing is the error of a call for a job no usable replica answers:
// the route's error, or ErrUnknownJob when the ID names no replica.
func jobMissing(id core.JobID, err error) error {
	if err == nil {
		err = fmt.Errorf("%w: %s", njs.ErrUnknownJob, id)
	}
	return err
}

// Poll returns the status summary of a job from the replica that owns it.
func (r *Router) Poll(caller core.DN, asServer bool, id core.JobID) (protocol.PollReply, error) {
	rep, err := r.jobReplica(id)
	if rep == nil {
		return protocol.PollReply{}, err
	}
	return rep.service().Poll(caller, asServer, id)
}

// Outcome returns the outcome tree of a job from the replica that owns it.
func (r *Router) Outcome(caller core.DN, asServer bool, id core.JobID) (*ajo.Outcome, bool, error) {
	rep, err := r.jobReplica(id)
	if rep == nil {
		return nil, false, err
	}
	return rep.service().Outcome(caller, asServer, id)
}

// Control routes an abort/hold/resume to the replica that owns the job.
func (r *Router) Control(caller core.DN, asServer bool, id core.JobID, op ajo.ControlOp) error {
	rep, err := r.jobReplica(id)
	if rep == nil {
		return jobMissing(id, err)
	}
	return rep.service().Control(caller, asServer, id, op)
}

// FetchFileOwned serves a Uspace read — the owner's, or a peer NJS's §5.6
// Uspace-to-Uspace transfer — from the replica that owns the job.
func (r *Router) FetchFileOwned(caller core.DN, asServer bool, id core.JobID, file string, offset, limit int64) (protocol.TransferReply, error) {
	rep, err := r.jobReplica(id)
	if rep == nil {
		return protocol.TransferReply{}, err
	}
	return rep.service().FetchFileOwned(caller, asServer, id, file, offset, limit)
}

// holder resolves the replica a staged-upload handle names; a handle that
// names no replica of the pool is ErrUnknownHandle.
func (r *Router) holder(handle string) (*Replica, error) {
	rep, err := r.named(njs.HandleInstance(r.usite, handle))
	if rep == nil && err == nil {
		err = fmt.Errorf("%w: %q", staging.ErrUnknownHandle, handle)
	}
	return rep, err
}

// StageChunk delivers a chunk to the replica that holds the upload.
func (r *Router) StageChunk(caller core.DN, asServer bool, req protocol.PutChunkRequest) (protocol.PutChunkReply, error) {
	rep, err := r.holder(req.Handle)
	if err != nil {
		return protocol.PutChunkReply{}, err
	}
	rep.calls.Add(1) // a drain settles once no staging call is in flight
	defer rep.calls.Add(-1)
	return rep.service().StageChunk(caller, asServer, req)
}

// StageCommit seals an upload on the replica that holds it.
func (r *Router) StageCommit(caller core.DN, asServer bool, req protocol.PutCommitRequest) (protocol.PutCommitReply, error) {
	rep, err := r.holder(req.Handle)
	if err != nil {
		return protocol.PutCommitReply{}, err
	}
	rep.calls.Add(1)
	defer rep.calls.Add(-1)
	return rep.service().StageCommit(caller, asServer, req)
}
