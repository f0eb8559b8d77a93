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

// startSubJobLocked dispatches a nested AbstractJob.
func (n *NJS) startSubJobLocked(uj *unicoreJob, sub *ajo.AbstractJob) {
	o := uj.outcomes[sub.ID()]
	o.Status = ajo.StatusRunning

	// Stage dependency files produced by predecessors into the sub-job as
	// injected inline imports.
	subCopy, err := injectImports(sub, uj.injections[sub.ID()])
	if err != nil {
		n.completeActionLocked(uj, sub.ID(), ajo.StatusFailed, fmt.Sprintf("staging sub-job: %v", err))
		return
	}
	subCopy.UserDN = uj.owner
	if subCopy.Project == "" {
		subCopy.Project = uj.job.Project
	}

	if subCopy.Target.Usite == n.usite {
		n.startLocalSubJobLocked(uj, subCopy)
		return
	}
	n.startRemoteSubJobLocked(uj, subCopy)
}

// startLocalSubJobLocked expands a sub-job at this Usite (same or different
// Vsite) as a child unicoreJob.
func (n *NJS) startLocalSubJobLocked(uj *unicoreJob, sub *ajo.AbstractJob) {
	vs, ok := n.vsites[sub.Target.Vsite]
	if !ok {
		n.completeActionLocked(uj, sub.ID(), ajo.StatusFailed,
			fmt.Sprintf("sub-job: %v: %q", ErrUnknownVsite, sub.Target.Vsite))
		return
	}
	if n.mapLogin == nil {
		n.completeActionLocked(uj, sub.ID(), ajo.StatusFailed, ErrNoMapper.Error())
		return
	}
	login, err := n.mapLogin(uj.owner, sub.Target.Vsite)
	if err != nil {
		n.completeActionLocked(uj, sub.ID(), ajo.StatusFailed, fmt.Sprintf("sub-job mapping: %v", err))
		return
	}
	// admit locks the fresh child while this job's lock is held —
	// ancestor→descendant, the allowed direction. If the child finishes
	// synchronously during admission, its finalizer schedules the
	// parent-side completion through the clock.
	childID, err := n.admit(uj.owner, login, sub, vs, &parentLink{job: uj.id, action: sub.ID()}, "")
	if err != nil {
		n.completeActionLocked(uj, sub.ID(), ajo.StatusFailed, fmt.Sprintf("sub-job admit: %v", err))
		return
	}
	uj.children[sub.ID()] = childID
}

// startRemoteSubJobLocked consigns a sub-job to a peer Usite and starts the
// poll loop. The network call is deferred through the clock so it runs with
// no job lock held — a consign to a peer must never block Poll/Control on
// this job behind a network round trip. The peer client is also checked only
// when the deferred call runs, so a recovered NJS may re-dispatch remote
// sub-jobs before SetPeers has been re-wired.
func (n *NJS) startRemoteSubJobLocked(uj *unicoreJob, sub *ajo.AbstractJob) {
	raw, err := ajo.Marshal(sub)
	if err != nil {
		n.completeActionLocked(uj, sub.ID(), ajo.StatusFailed, fmt.Sprintf("encoding sub-job: %v", err))
		return
	}
	jobID, aid, usite := uj.id, sub.ID(), sub.Target.Usite
	consignID := fmt.Sprintf("%s/%s", jobID, aid)
	n.clock.AfterFunc(0, func() { n.consignRemote(jobID, aid, usite, consignID, raw) })
}

// consignRemote performs the lock-free half of a remote sub-job dispatch:
// the peer consignment call, then (re-locking the job) recording the remote
// reference and arming the poll loop.
func (n *NJS) consignRemote(jobID core.JobID, aid ajo.ActionID, usite core.Usite, consignID string, raw []byte) {
	if n.dead.Load() {
		return
	}
	var reply protocol.ConsignReply
	err := fmt.Errorf("njs: no peer client configured for %s", usite)
	if peers := n.peerClient(); peers != nil {
		err = peers.Call(context.Background(), usite, protocol.MsgConsign,
			protocol.ConsignRequest{ConsignID: consignID, AJO: raw}, &reply)
	}

	uj, ok := n.job(jobID)
	if !ok {
		return
	}
	uj.mu.Lock()
	o := uj.outcomes[aid]
	if o == nil || o.Status.Terminal() {
		// Aborted while the consign was in flight. If the peer accepted,
		// that job is now orphaned — abort it best-effort, outside the lock.
		uj.mu.Unlock()
		if peers := n.peerClient(); err == nil && reply.Accepted && peers != nil {
			_ = peers.Call(context.Background(), usite, protocol.MsgControl,
				protocol.ControlRequest{Job: reply.Job, Op: ajo.OpAbort}, nil)
		}
		return
	}
	defer uj.mu.Unlock()
	if err != nil {
		n.completeActionLocked(uj, aid, ajo.StatusFailed,
			fmt.Sprintf("consigning to %s: %v", usite, err))
		n.finalizeIfDoneLocked(uj)
		return
	}
	if !reply.Accepted {
		n.completeActionLocked(uj, aid, ajo.StatusFailed,
			fmt.Sprintf("peer %s refused: %s", usite, reply.Reason))
		n.finalizeIfDoneLocked(uj)
		return
	}
	ref := &remoteRef{usite: usite, job: reply.Job}
	uj.remote[aid] = ref
	n.recordRemote(uj, aid, ref)
	n.scheduleRemotePollLocked(jobID, aid, ref)
}

// scheduleRemotePollLocked arms the next status poll for a remote sub-job.
func (n *NJS) scheduleRemotePollLocked(jobID core.JobID, aid ajo.ActionID, ref *remoteRef) {
	ref.timer = n.clock.AfterFunc(remotePollInterval, func() {
		n.pollRemote(jobID, aid)
	})
}

// pollRemote checks a remote sub-job; on terminal status it retrieves the
// outcome and completes the action. The network calls happen without any
// lock held; only the owning job is locked to read and advance its state.
func (n *NJS) pollRemote(jobID core.JobID, aid ajo.ActionID) {
	if n.dead.Load() {
		return
	}
	uj, ok := n.job(jobID)
	if !ok {
		return
	}
	uj.mu.Lock()
	ref, ok := uj.remote[aid]
	if !ok || uj.outcomes[aid].Status.Terminal() {
		uj.mu.Unlock()
		return
	}
	usite, remoteJob := ref.usite, ref.job
	uj.mu.Unlock()

	var poll protocol.PollReply
	err := fmt.Errorf("njs: no peer client configured for %s", usite)
	if peers := n.peerClient(); peers != nil {
		err = peers.Call(context.Background(), usite, protocol.MsgPoll, protocol.PollRequest{Job: remoteJob}, &poll)
	}

	uj.mu.Lock()
	ref, ok = uj.remote[aid]
	if !ok { // aborted while the poll was in flight
		uj.mu.Unlock()
		return
	}
	if err != nil || !poll.Found {
		ref.failures++
		if ref.failures > remoteMaxFailures {
			n.completeActionLocked(uj, aid, ajo.StatusFailed,
				fmt.Sprintf("lost contact with %s after %d attempts: %v", usite, ref.failures, err))
			n.finalizeIfDoneLocked(uj)
			uj.mu.Unlock()
			return
		}
		n.scheduleRemotePollLocked(jobID, aid, ref)
		uj.mu.Unlock()
		return
	}
	ref.failures = 0
	if !poll.Summary.Status.Terminal() {
		n.scheduleRemotePollLocked(jobID, aid, ref)
		uj.mu.Unlock()
		return
	}
	// Terminal: fetch the full outcome (best effort — the summary already
	// tells us the status).
	status := poll.Summary.Status
	uj.mu.Unlock()

	var oreply protocol.OutcomeReply
	oerr := fmt.Errorf("njs: no peer client configured for %s", usite)
	if peers := n.peerClient(); peers != nil {
		oerr = peers.Call(context.Background(), usite, protocol.MsgOutcome, protocol.OutcomeRequest{Job: remoteJob}, &oreply)
	}

	uj.mu.Lock()
	defer uj.mu.Unlock()
	if _, ok := uj.remote[aid]; !ok { // aborted while fetching the outcome
		return
	}
	o := uj.outcomes[aid]
	if o == nil || o.Status.Terminal() {
		return
	}
	if oerr == nil && oreply.Found {
		if remote, err := ajo.UnmarshalOutcome(oreply.Outcome); err == nil {
			o.Children = remote.Children
			o.Started = remote.Started
		}
	}
	reason := ""
	if status != ajo.StatusSuccessful {
		reason = fmt.Sprintf("remote sub-job %s at %s finished %s", remoteJob, usite, status)
	}
	n.completeActionLocked(uj, aid, status, reason)
	n.finalizeIfDoneLocked(uj)
}

// fetchRemoteFile pulls one file from a remote job's Uspace via the peer
// gateway (the NJS–NJS transfer path of §5.6), on the shared windowed
// streaming engine: parallel ranged MsgTransfer requests, chunk-level
// retries, and incremental whole-file CRC verification — a file that mutates
// under the transfer surfaces as an error instead of assembling garbage.
func (n *NJS) fetchRemoteFile(usite core.Usite, job core.JobID, file string) ([]byte, error) {
	peers := n.peerClient()
	if peers == nil {
		return nil, fmt.Errorf("njs: no peer client configured for %s", usite)
	}
	src := func(ctx context.Context, offset, limit int64, buf []byte) (staging.Chunk, error) {
		reply := protocol.TransferReply{Data: buf[:0]}
		err := peers.Call(ctx, usite, protocol.MsgTransfer, protocol.TransferRequest{
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
	g, err := cp.Graph()
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
