package njs

import (
	"context"
	"fmt"
	"sort"

	"unicore/internal/ajo"
	"unicore/internal/core"
	"unicore/internal/protocol"
	"unicore/internal/resources"
	"unicore/internal/telemetry"
)

// Service is the NJS service surface as the gateway consumes it: everything
// the paper's "UNICORE server" tier (§4.2) answers on behalf of a site —
// consignment (§5.3), status/outcome/control (§5.5), resource pages (§5.4),
// Uspace file transfers (§5.6), and the load figures the §6 broker reads.
//
// *NJS implements Service directly (one supervisor per site, the topology of
// Figure 2). pool.Router also implements it by fanning the same calls out
// over per-Vsite replica sets, which is what lets a gateway scale from one
// NJS to a health-checked replica pool without changing its request path.
type Service interface {
	// Consign admits an AJO (§5.3); consignID makes retries idempotent. ctx
	// carries the caller's distributed trace for per-hop telemetry spans.
	Consign(ctx context.Context, user core.DN, consignID string, job *ajo.AbstractJob) (core.JobID, error)
	// Poll returns the compact status summary of a job.
	Poll(caller core.DN, asServer bool, id core.JobID) (protocol.PollReply, error)
	// Outcome returns a deep copy of a job's outcome tree.
	Outcome(caller core.DN, asServer bool, id core.JobID) (*ajo.Outcome, bool, error)
	// List returns the caller's jobs at this Usite, newest first.
	List(caller core.DN) ([]protocol.JobInfo, error)
	// Control aborts, holds, or resumes a job.
	Control(caller core.DN, asServer bool, id core.JobID, op ajo.ControlOp) error
	// FetchFileOwned serves a chunk of a job's Uspace file to its owner, or
	// (asServer) to a peer NJS pulling a §5.6 Uspace-to-Uspace transfer.
	FetchFileOwned(caller core.DN, asServer bool, id core.JobID, file string, offset, limit int64) (protocol.TransferReply, error)
	// StageOpen begins a staged upload into a Vsite's spool (protocol v2).
	StageOpen(caller core.DN, asServer bool, req protocol.PutOpenRequest) (protocol.PutOpenReply, error)
	// StageChunk stores one idempotent, CRC-checked chunk of a staged upload.
	StageChunk(caller core.DN, asServer bool, req protocol.PutChunkRequest) (protocol.PutChunkReply, error)
	// StageCommit seals a staged upload after verifying the whole-file CRC.
	StageCommit(caller core.DN, asServer bool, req protocol.PutCommitRequest) (protocol.PutCommitReply, error)
	// Pages returns the resource pages of all Vsites, sorted by target (§5.4).
	Pages() []resources.Page
	// VsiteLoads reports per-Vsite occupancy and replica health (§6 input).
	VsiteLoads() map[core.Vsite]VsiteLoad
	// SetLoginMapper installs the DN→login resolver of the security tier.
	SetLoginMapper(LoginMapper)
	// Ping reports whether the service can currently take responsibility for
	// work — the active health probe of a replica pool.
	Ping() error
	// Events returns the buffered job lifecycle events past the request's
	// cursor (protocol v2, non-blocking; the gateway long-polls around it).
	Events(caller core.DN, asServer bool, req protocol.SubscribeRequest) (protocol.EventsReply, error)
	// EventsNotify returns a channel that is closed when new events may be
	// available, plus a release func the waiter must call when done. Take the
	// channel before fetching so an append racing the fetch is never missed;
	// wakeups may be spurious (re-fetch and wait again).
	EventsNotify(req protocol.SubscribeRequest) (<-chan struct{}, func())
	// Metrics returns live telemetry snapshots, one per origin behind this
	// service (a single NJS returns one; a pool Router returns the pool's
	// own plus each replica's). Serves the v2 MsgMetrics scrape.
	Metrics() []telemetry.Snapshot
}

// Service is satisfied by the concrete NJS.
var _ Service = (*NJS)(nil)

// Ping reports nil while this NJS is alive and ErrDown once it has been
// killed (crash simulation or decommission) — the health-check probe a
// replica pool uses to trip a replica's circuit breaker.
func (n *NJS) Ping() error {
	if n.dead.Load() {
		return ErrDown
	}
	return nil
}

// Instance returns the pool instance this NJS mints job IDs and handles
// under ("" for a single-NJS site).
func (n *NJS) Instance() string { return n.instance }

// Telemetry returns this NJS's metrics registry — the testbed hook through
// which integration tests and benchmarks assert on internal measurements.
func (n *NJS) Telemetry() *telemetry.Registry { return n.tel }

// Metrics returns this NJS's telemetry snapshot. Scrape-time gauges —
// event-log depth and staged-upload spool occupancy — are refreshed before
// sampling so the snapshot reflects live state, not the last hot-path
// update.
func (n *NJS) Metrics() []telemetry.Snapshot {
	n.tel.Gauge("event_log_depth").Set(int64(n.log.Depth()))
	for name, spool := range n.spools {
		n.tel.Gauge("staging_spool_handles", "vsite", string(name)).Set(int64(len(spool.Handles())))
	}
	return []telemetry.Snapshot{n.tel.Snapshot()}
}

// defaultEventBatch bounds one MsgEventsReply when the subscriber did not ask
// for a smaller batch.
const defaultEventBatch = 256

// Events returns buffered lifecycle events past the request's cursor: one
// job's stream (per-job Seq cursor) when req.Job is set, otherwise the
// caller's stream across all their jobs at this NJS (per-origin Global
// cursor). The read is idempotent — a subscriber whose reply was lost in
// transit re-issues the same cursor and observes no gaps and no duplicates.
func (n *NJS) Events(caller core.DN, asServer bool, req protocol.SubscribeRequest) (protocol.EventsReply, error) {
	max := req.Max
	if max <= 0 || max > defaultEventBatch {
		max = defaultEventBatch
	}
	if req.Job != "" {
		uj, ok := n.job(req.Job)
		if !ok {
			return protocol.EventsReply{}, fmt.Errorf("%w: %s", ErrUnknownJob, req.Job)
		}
		if err := n.auth(uj, caller, asServer); err != nil {
			return protocol.EventsReply{}, err
		}
		evs, gap := n.log.JobEvents(req.Job, req.Cursor, max)
		cursor := req.Cursor
		if len(evs) > 0 {
			cursor = evs[len(evs)-1].Seq
		}
		return protocol.EventsReply{Events: evs, Cursor: cursor, Gap: gap}, nil
	}
	after := req.Cursor
	if v, ok := req.Origins[n.log.Origin()]; ok {
		after = v
	}
	evs, next, gap := n.log.UserEvents(caller, after, max)
	return protocol.EventsReply{
		Events:  evs,
		Origins: map[string]uint64{n.log.Origin(): next},
		Gap:     gap,
	}, nil
}

// EventsNotify returns the event log's append broadcast channel. The NJS has
// one log, so every subscription scope shares the channel; wakeups for
// unrelated jobs are spurious but harmless.
func (n *NJS) EventsNotify(protocol.SubscribeRequest) (<-chan struct{}, func()) {
	return n.log.Notify(), func() {}
}

// ConsignedJobs reports the completed consign-ID → job-ID admissions of
// this NJS (pool.ConsignReporter): the index a replica pool reconciles
// against its acknowledgements when this NJS joins or rejoins a set, so a
// recovered replica's admissions are adopted — or, if re-admitted elsewhere
// by consign failover while this NJS was dead, aborted as orphans.
// Reservations still in flight are excluded.
func (n *NJS) ConsignedJobs() map[string]core.JobID {
	n.consignMu.Lock()
	defer n.consignMu.Unlock()
	out := make(map[string]core.JobID, len(n.consignIndex))
	for cid, e := range n.consignIndex {
		select {
		case <-e.done:
			if e.id != "" {
				out[cid] = e.id
			}
		default:
		}
	}
	return out
}

// This file is the NJS's service surface: the operations behind the JMC's
// status/outcome/control requests and the peer-NJS transfer endpoint. The
// gateway authenticates callers and invokes these methods; asServer marks
// requests signed by a peer UNICORE server rather than by the owning user.
//
// Each operation locks only the job it touches (see the package comment for
// the concurrency model), so requests for different jobs never contend.

// auth checks that caller may operate on the job. The owner is immutable
// after admission, so no lock is needed.
func (n *NJS) auth(uj *unicoreJob, caller core.DN, asServer bool) error {
	if asServer {
		return nil // peer servers act on behalf of the consigning site
	}
	if uj.owner != caller {
		return fmt.Errorf("%w: job %s belongs to %s", ErrNotAuthorized, uj.id, uj.owner)
	}
	return nil
}

// Poll returns the compact status summary of a job (JMC traffic lights).
func (n *NJS) Poll(caller core.DN, asServer bool, id core.JobID) (protocol.PollReply, error) {
	uj, ok := n.job(id)
	if !ok {
		return protocol.PollReply{Found: false}, nil
	}
	if err := n.auth(uj, caller, asServer); err != nil {
		return protocol.PollReply{}, err
	}
	uj.mu.Lock()
	s := ajo.Summarise(uj.root)
	uj.mu.Unlock()
	s.Job = string(id)
	s.Updated = n.clock.Now()
	return protocol.PollReply{Found: true, Summary: s}, nil
}

// Outcome returns a deep copy of the job's outcome tree, taken under the
// job's lock.
func (n *NJS) Outcome(caller core.DN, asServer bool, id core.JobID) (*ajo.Outcome, bool, error) {
	uj, ok := n.job(id)
	if !ok {
		return nil, false, nil
	}
	if err := n.auth(uj, caller, asServer); err != nil {
		return nil, false, err
	}
	uj.mu.Lock()
	cp := uj.root.Clone()
	uj.mu.Unlock()
	return cp, true, nil
}

// List returns the caller's jobs at this Usite, newest first.
func (n *NJS) List(caller core.DN) ([]protocol.JobInfo, error) {
	n.regMu.RLock()
	mine := make([]*unicoreJob, 0, len(n.jobs))
	for _, uj := range n.jobs {
		if uj.owner != caller || uj.parent != nil {
			continue // children are reported inside their parents
		}
		mine = append(mine, uj)
	}
	n.regMu.RUnlock()
	out := make([]protocol.JobInfo, 0, len(mine))
	for _, uj := range mine {
		uj.mu.Lock()
		status := uj.root.Status
		uj.mu.Unlock()
		out = append(out, protocol.JobInfo{
			Job:       uj.id,
			Name:      uj.job.Name(),
			Status:    status,
			Submitted: uj.submitted,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Submitted.Equal(out[j].Submitted) {
			return out[i].Submitted.After(out[j].Submitted)
		}
		return out[i].Job > out[j].Job
	})
	return out, nil
}

// Control aborts, holds, or resumes a job (the ControlService semantics).
func (n *NJS) Control(caller core.DN, asServer bool, id core.JobID, op ajo.ControlOp) error {
	uj, ok := n.job(id)
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	if err := n.auth(uj, caller, asServer); err != nil {
		return err
	}
	switch op {
	case ajo.OpAbort:
		return n.abortJob(uj)
	case ajo.OpHold:
		uj.mu.Lock()
		defer uj.mu.Unlock()
		if uj.root.Status.Terminal() {
			return fmt.Errorf("njs: job %s already %s", id, uj.root.Status)
		}
		uj.held = true
		n.recordControl(uj, ajo.OpHold)
		return nil
	case ajo.OpResume:
		uj.mu.Lock()
		defer uj.mu.Unlock()
		if !uj.held {
			return fmt.Errorf("njs: job %s is not held", id)
		}
		uj.held = false
		n.recordControl(uj, ajo.OpResume)
		n.dispatchLocked(uj)
		return nil
	}
	return fmt.Errorf("njs: unknown control op %q", op)
}

// abortJob cancels a job tree. All state transitions commit atomically under
// the job locks (ancestor→descendant); the best-effort peer aborts for
// remote sub-jobs are issued only after every lock is released, so there is
// no window in which a concurrent Poll or Control can observe a half-aborted
// job.
func (n *NJS) abortJob(uj *unicoreJob) error {
	var remotes []remoteRef
	uj.mu.Lock()
	err := n.abortLocked(uj, &remotes)
	uj.mu.Unlock()
	if peers := n.peerClient(); peers != nil {
		for _, ref := range remotes {
			_ = peers.Call(context.Background(), ref.usite, protocol.MsgControl,
				protocol.ControlRequest{Job: ref.job, Op: ajo.OpAbort}, nil)
		}
	}
	return err
}

// abortLocked cancels everything in flight and closes the job. Remote
// sub-job references are collected into remotes for the caller to abort
// after the locks are dropped.
func (n *NJS) abortLocked(uj *unicoreJob, remotes *[]remoteRef) error {
	if uj.root.Status.Terminal() {
		return fmt.Errorf("njs: job %s already %s", uj.id, uj.root.Status)
	}
	uj.aborted = true
	n.recordControl(uj, ajo.OpAbort)
	// Cancel batch jobs in flight (completion events arrive through the
	// clock, so Cancel cannot re-enter this job synchronously).
	for aid, bid := range uj.batch {
		_ = uj.vsite.RMS.Cancel(bid)
		n.regMu.Lock()
		delete(n.batchIndex, batchKey{uj.vsite.Name, bid})
		n.regMu.Unlock()
		delete(uj.batch, aid)
	}
	// Abort local children (descending the sub-job tree keeps lock order).
	for _, childID := range uj.children {
		child, ok := n.job(childID)
		if !ok {
			continue
		}
		child.mu.Lock()
		if !child.root.Status.Terminal() {
			_ = n.abortLocked(child, remotes)
		}
		child.mu.Unlock()
	}
	// Detach remote sub-jobs and stop their poll loops; the peer abort
	// calls happen outside the locks.
	for aid, ref := range uj.remote {
		if ref.timer != nil {
			ref.timer.Stop()
		}
		*remotes = append(*remotes, *ref)
		delete(uj.remote, aid)
	}
	// Every non-terminal action becomes ABORTED.
	for aid, o := range uj.outcomes {
		if o.Status.Terminal() {
			continue
		}
		o.Status = ajo.StatusAborted
		o.Reason = "aborted by user"
		o.Finished = n.clock.Now()
		uj.done[string(aid)] = true
		delete(uj.inflight, aid)
		n.recordActionDone(uj, aid, o)
	}
	n.finalizeIfDoneLocked(uj)
	return nil
}

// FetchFile is the ranged-read core of FetchFileOwned: one chunk of a job's
// Uspace file, no ownership check. A negative
// offset is an error; an offset at or past EOF returns the file's metadata
// (size and whole-file CRC) with no data, which is how readers detect the
// end of a chunked transfer. The read is ranged and copy-free: the reply's
// Data is a read-only view of the stored file, which the stream writes to the
// connection as it is, behind the reply's other fields.
func (n *NJS) FetchFile(id core.JobID, file string, offset, limit int64) (protocol.TransferReply, error) {
	if offset < 0 {
		return protocol.TransferReply{}, fmt.Errorf("njs: negative offset %d reading %q of job %s", offset, file, id)
	}
	uj, ok := n.job(id)
	if !ok {
		return protocol.TransferReply{Found: false}, nil
	}
	data, size, crc, err := uj.vsite.Space.ReadJobFileRange(id, file, offset, limit)
	if err != nil {
		return protocol.TransferReply{Found: false}, nil
	}
	return protocol.TransferReply{
		Found: true,
		Data:  data,
		Size:  size,
		CRC:   crc,
	}, nil
}

// FetchFileOwned serves a chunk of a job's Uspace file to the job's owner —
// §5.6: "the current implementation sends data back to the workstation only
// on user request while the user is working with the JMC". Peer servers may
// also call it on the owner's behalf.
func (n *NJS) FetchFileOwned(caller core.DN, asServer bool, id core.JobID, file string, offset, limit int64) (protocol.TransferReply, error) {
	uj, ok := n.job(id)
	if !ok {
		return protocol.TransferReply{Found: false}, nil
	}
	if err := n.auth(uj, caller, asServer); err != nil {
		return protocol.TransferReply{}, err
	}
	return n.FetchFile(id, file, offset, limit)
}
