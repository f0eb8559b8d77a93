package njs

import (
	"bytes"
	"context"
	"fmt"

	"unicore/internal/ajo"
	"unicore/internal/core"
	"unicore/internal/protocol"
	"unicore/internal/staging"
)

// This file implements the distributed side of the NJS: "split [the job]
// into the job groups destined for different sites, distribute and control
// the job groups" (§5.5), and the NJS–NJS file transfer of §5.6. Sub-jobs
// for the local Usite are expanded in place; sub-jobs for other Usites are
// consigned to the peer NJS through that site's gateway and polled until
// terminal.

// startSubJobLocked dispatches a nested AbstractJob, action i.
func (n *NJS) startSubJobLocked(uj *unicoreJob, i int, sub *ajo.AbstractJob) {
	uj.acts[i].out.Status = ajo.StatusRunning

	// Stage dependency files produced by predecessors into the sub-job as
	// injected inline imports.
	subCopy, err := injectImports(sub, uj.acts[i].injections)
	if err != nil {
		n.completeActionLocked(uj, i, ajo.StatusFailed, fmt.Sprintf("staging sub-job: %v", err))
		return
	}
	subCopy.UserDN = uj.owner
	if subCopy.Project == "" {
		subCopy.Project = uj.job.Project
	}

	if subCopy.Target.Usite == n.usite {
		n.startLocalSubJobLocked(uj, i, subCopy)
		return
	}
	n.startRemoteSubJobLocked(uj, i, subCopy)
}

// startLocalSubJobLocked expands a sub-job at this Usite (same or different
// Vsite) as a child unicoreJob.
func (n *NJS) startLocalSubJobLocked(uj *unicoreJob, i int, sub *ajo.AbstractJob) {
	vs, ok := n.vsites[sub.Target.Vsite]
	if !ok {
		n.completeActionLocked(uj, i, ajo.StatusFailed,
			fmt.Sprintf("sub-job: %v: %q", ErrUnknownVsite, sub.Target.Vsite))
		return
	}
	login, err := n.logins(uj.owner, sub.Target.Vsite)
	if err != nil {
		n.completeActionLocked(uj, i, ajo.StatusFailed, fmt.Sprintf("sub-job mapping: %v", err))
		return
	}
	// admit locks the fresh child while this job's lock is held —
	// ancestor→descendant, the allowed direction. If the child finishes
	// synchronously during admission, its finalizer schedules the
	// parent-side completion through the clock.
	graph, err := sub.Check()
	var childID core.JobID
	if err == nil {
		childID, err = n.admit(uj.owner, login, sub, graph, vs, &parentLink{job: uj.id, action: sub.ID()}, "")
	}
	if err != nil {
		n.completeActionLocked(uj, i, ajo.StatusFailed, fmt.Sprintf("sub-job admit: %v", err))
		return
	}
	uj.acts[i].child = childID
}

// startRemoteSubJobLocked consigns a sub-job to a peer Usite and starts the
// poll loop. The network call is deferred through the clock so it runs with
// no job lock held — a consign to a peer must never block Poll/Control on
// this job behind a network round trip.
func (n *NJS) startRemoteSubJobLocked(uj *unicoreJob, i int, sub *ajo.AbstractJob) {
	raw, err := ajo.Marshal(sub)
	if err != nil {
		n.completeActionLocked(uj, i, ajo.StatusFailed, fmt.Sprintf("encoding sub-job: %v", err))
		return
	}
	jobID, usite := uj.id, sub.Target.Usite
	consignID := fmt.Sprintf("%s/%s", jobID, sub.ID())
	n.clock.AfterFunc(0, func() { n.consignRemote(jobID, i, usite, consignID, raw) })
}

// consignRemote performs the lock-free half of a remote sub-job dispatch:
// the peer consignment call, then (re-locking the job) recording the remote
// reference and arming the poll loop.
func (n *NJS) consignRemote(jobID core.JobID, i int, usite core.Usite, consignID string, raw []byte) {
	if n.dead.Load() {
		return
	}
	var reply protocol.ConsignReply
	err := callPeer(n, usite, protocol.OpConsign, protocol.ConsignRequest{ConsignID: consignID, AJO: raw}, &reply)

	uj, ok := n.job(jobID)
	if !ok {
		return
	}
	uj.mu.Lock()
	if uj.done(i) {
		// Aborted while the consign was in flight. If the peer accepted,
		// that job is now orphaned — abort it best-effort, outside the lock.
		uj.mu.Unlock()
		if err == nil && reply.Accepted {
			_ = callPeer(n, usite, protocol.OpControl, protocol.ControlRequest{Job: reply.Job, Op: ajo.OpAbort}, nil)
		}
		return
	}
	defer uj.mu.Unlock()
	if err != nil {
		n.completeActionLocked(uj, i, ajo.StatusFailed,
			fmt.Sprintf("consigning to %s: %v", usite, err))
		n.finalizeIfDoneLocked(uj)
		return
	}
	if !reply.Accepted {
		n.completeActionLocked(uj, i, ajo.StatusFailed,
			fmt.Sprintf("peer %s refused: %s", usite, reply.Reason))
		n.finalizeIfDoneLocked(uj)
		return
	}
	ref := &remoteRef{usite: usite, job: reply.Job}
	uj.acts[i].remote = ref
	n.recordRemote(uj, uj.acts[i].out.Action, ref)
	n.scheduleRemotePollLocked(jobID, i, ref)
}

// scheduleRemotePollLocked arms the next status poll for a remote sub-job.
func (n *NJS) scheduleRemotePollLocked(jobID core.JobID, i int, ref *remoteRef) {
	ref.timer = n.clock.AfterFunc(remotePollInterval, func() {
		n.pollRemote(jobID, i)
	})
}

// pollRemote checks a remote sub-job; on terminal status it retrieves the
// outcome and completes the action. The network calls happen without any
// lock held; only the owning job is locked to read and advance its state.
func (n *NJS) pollRemote(jobID core.JobID, i int) {
	if n.dead.Load() {
		return
	}
	uj, ok := n.job(jobID)
	if !ok {
		return
	}
	uj.mu.Lock()
	ref := uj.acts[i].remote
	if ref == nil || uj.done(i) {
		uj.mu.Unlock()
		return
	}
	usite, remoteJob := ref.usite, ref.job
	uj.mu.Unlock()

	var poll protocol.PollReply
	err := callPeer(n, usite, protocol.OpPoll, protocol.PollRequest{Job: remoteJob}, &poll)

	uj.mu.Lock()
	ref = uj.acts[i].remote
	if ref == nil { // aborted while the poll was in flight
		uj.mu.Unlock()
		return
	}
	if err != nil || !poll.Found {
		ref.failures++
		if ref.failures > remoteMaxFailures {
			n.completeActionLocked(uj, i, ajo.StatusFailed,
				fmt.Sprintf("lost contact with %s after %d attempts: %v", usite, ref.failures, err))
			n.finalizeIfDoneLocked(uj)
			uj.mu.Unlock()
			return
		}
		n.scheduleRemotePollLocked(jobID, i, ref)
		uj.mu.Unlock()
		return
	}
	ref.failures = 0
	if !poll.Summary.Status.Terminal() {
		n.scheduleRemotePollLocked(jobID, i, ref)
		uj.mu.Unlock()
		return
	}
	// Terminal: fetch the full outcome (best effort — the summary already
	// tells us the status).
	status := poll.Summary.Status
	uj.mu.Unlock()

	var oreply protocol.OutcomeReply
	oerr := callPeer(n, usite, protocol.OpOutcome, protocol.OutcomeRequest{Job: remoteJob}, &oreply)

	uj.mu.Lock()
	defer uj.mu.Unlock()
	o := &uj.acts[i].out
	if uj.acts[i].remote == nil || o.Status.Terminal() { // aborted while fetching the outcome
		return
	}
	if oerr == nil && oreply.Found {
		o.Children = oreply.Outcome.Children
		o.Started = oreply.Outcome.Started
	}
	reason := ""
	if status != ajo.StatusSuccessful {
		reason = fmt.Sprintf("remote sub-job %s at %s finished %s", remoteJob, usite, status)
	}
	n.completeActionLocked(uj, i, status, reason)
	n.finalizeIfDoneLocked(uj)
}

// fetchRemoteFile pulls one file from a remote job's Uspace via the peer
// gateway (the NJS–NJS transfer path of §5.6), on the shared windowed
// streaming engine: parallel ranged MsgTransfer requests, chunk-level
// retries, and incremental whole-file CRC verification — a file that mutates
// under the transfer surfaces as an error instead of assembling garbage.
func (n *NJS) fetchRemoteFile(usite core.Usite, job core.JobID, file string) ([]byte, error) {
	if n.peers == nil {
		return nil, fmt.Errorf("njs: no peer client configured for %s", usite)
	}
	src := func(ctx context.Context, offset, limit int64, buf []byte) (staging.Chunk, error) {
		reply := protocol.TransferReply{Data: buf[:0]}
		err := protocol.Do(ctx, n.peers, usite, protocol.OpTransfer, protocol.TransferRequest{
			Job: job, File: file, Offset: offset, Limit: limit,
		}, &reply)
		if err != nil {
			return staging.Chunk{}, err
		}
		if !reply.Found {
			return staging.Chunk{}, fmt.Errorf("%w: %s has no file %q in job %s", staging.ErrNotFound, usite, file, job)
		}
		return staging.Chunk{Data: reply.Data, Size: reply.Size, CRC: reply.CRC}, nil
	}
	var buf bytes.Buffer
	if _, err := staging.Download(context.Background(), src, &buf, staging.Options{}); err != nil {
		return nil, fmt.Errorf("njs: transferring %q from %s: %w", file, usite, err)
	}
	return buf.Bytes(), nil
}

// injectImports deep-copies a sub-job and prepends inline ImportTasks for
// the staged dependency files, wiring them before every original root.
func injectImports(sub *ajo.AbstractJob, injections []injection) (*ajo.AbstractJob, error) {
	raw, err := ajo.Marshal(sub)
	if err != nil {
		return nil, err
	}
	back, err := ajo.Unmarshal(raw)
	if err != nil {
		return nil, err
	}
	cp, ok := back.(*ajo.AbstractJob)
	if !ok {
		return nil, fmt.Errorf("njs: sub-job decoded as %T", back)
	}
	if len(injections) == 0 {
		return cp, nil
	}
	g, err := cp.Check()
	if err != nil {
		return nil, err
	}
	roots := g.Roots()
	for i, inj := range injections {
		imp := &ajo.ImportTask{
			Header: ajo.Header{
				ActionID:   ajo.ActionID(fmt.Sprintf("staged-%02d", i)),
				ActionName: fmt.Sprintf("staged dependency file %s", inj.name),
			},
			Source: ajo.ImportSource{Inline: inj.data},
			To:     inj.name,
		}
		cp.Actions = append(cp.Actions, imp)
		for _, r := range roots {
			cp.Dependencies = append(cp.Dependencies, ajo.Dependency{
				Before: imp.ActionID,
				After:  ajo.ActionID(r),
			})
		}
	}
	if err := cp.Validate(); err != nil {
		return nil, fmt.Errorf("njs: injected sub-job invalid: %w", err)
	}
	return cp, nil
}

// callPeer sends one request to a peer Usite's gateway.
func callPeer[Req, Rep any](n *NJS, usite core.Usite, op *protocol.Op[Req, Rep], req Req, rep *Rep) error {
	if n.peers == nil {
		return fmt.Errorf("njs: no peer client configured for %s", usite)
	}
	return protocol.Do(context.Background(), n.peers, usite, op, req, rep)
}
