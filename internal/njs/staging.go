package njs

// This file is the NJS's staged-upload surface (protocol v2): bulk job
// inputs are streamed into a per-user spool area on the Vsite's data space
// through MsgPutOpen/MsgPutChunk/MsgPutCommit before the AJO is consigned,
// so a huge ImportTask references a transfer handle instead of carrying its
// payload inline in the signed consign envelope (§5.6 grown to production
// scale). The spool lives entirely in the Vsite file system, so a journaled
// NJS persists acknowledged chunks through the ordinary vfs observer and
// recovery rebuilds the spool index with Rescan.

import (
	"fmt"
	"time"

	"unicore/internal/core"
	"unicore/internal/protocol"
	"unicore/internal/staging"
	"unicore/internal/telemetry"
)

// SpoolRoot is where each Vsite's staged-upload spool lives on its data
// space, beside the Xspace and Uspace roots.
const SpoolRoot = "/spool"

// DefaultSpoolTTL is how long an unconsumed staged upload survives before a
// sweep collects it — committed-but-never-consigned uploads included.
const DefaultSpoolTTL = 24 * time.Hour

// stageAck makes the preceding spool mutation durable before it is
// acknowledged — the same write-ahead contract as Consign: an acked chunk
// must survive a crash. If the NJS was killed between the mutation and the
// sync, the ack is refused; the client's idempotent re-send converges.
func (n *NJS) stageAck() error {
	if err := n.SyncJournal(); err != nil {
		return err
	}
	if n.dead.Load() {
		return ErrDown
	}
	return nil
}

// spoolOf resolves the Vsite spool holding a transfer handle.
func (n *NJS) spoolOf(handle string) (*staging.Spool, bool) {
	for _, name := range n.VsiteNames() {
		sp := n.spools[name]
		if _, ok := sp.Stat(handle); ok {
			return sp, true
		}
	}
	return nil, false
}

// StagingSpool exposes a Vsite's spool (deployment sweeps and testbed
// introspection).
func (n *NJS) StagingSpool(v core.Vsite) (*staging.Spool, bool) {
	sp, ok := n.spools[v]
	return sp, ok
}

// StagedHandles reports every transfer handle spooled at this NJS (across
// its Vsites) — pool.StageReporter: a replica pool's DrainStatus counts them
// to tell whether a draining replica still holds uploads.
func (n *NJS) StagedHandles() []string {
	var out []string
	for _, name := range n.VsiteNames() {
		out = append(out, n.spools[name].Handles()...)
	}
	return out
}

// SweepStaging garbage-collects every Vsite's spool: consumed uploads go
// immediately, abandoned ones (never committed, or committed but never
// consigned) once older than ttl. Returns how many uploads were removed.
func (n *NJS) SweepStaging(ttl time.Duration) int {
	total := 0
	for _, name := range n.VsiteNames() {
		total += n.spools[name].Sweep(ttl)
	}
	return total
}

// StageOpen begins a staged upload into a Vsite's spool and returns its
// transfer handle (protocol v2). The caller DN owns the upload; only it may
// send chunks, commit, or consign an ImportTask referencing the handle.
func (n *NJS) StageOpen(caller core.DN, asServer bool, req protocol.PutOpenRequest) (protocol.PutOpenReply, error) {
	if n.dead.Load() {
		return protocol.PutOpenReply{}, ErrDown
	}
	sp, ok := n.spools[req.Vsite]
	if !ok {
		return protocol.PutOpenReply{}, fmt.Errorf("%w: %q", ErrUnknownVsite, req.Vsite)
	}
	info, err := sp.Open(caller, req.Name, req.ChunkSize, req.Window)
	if err != nil {
		return protocol.PutOpenReply{}, err
	}
	if err := n.stageAck(); err != nil {
		return protocol.PutOpenReply{}, err
	}
	return protocol.PutOpenReply{Handle: info.Handle, ChunkSize: info.ChunkSize, Window: info.Window}, nil
}

// StageChunk stores one CRC-checked chunk of a staged upload (protocol v2).
// Delivery is idempotent — a re-send after a lost reply is acknowledged
// without rewriting — and the ack is durable before it is sent. req.Data
// passes to the spool, which stores it as the chunk without copying: callers
// (the gateway, with a buffer the wire decoded for this request alone) must
// not touch it again.
func (n *NJS) StageChunk(caller core.DN, asServer bool, req protocol.PutChunkRequest) (protocol.PutChunkReply, error) {
	if n.dead.Load() {
		return protocol.PutChunkReply{}, ErrDown
	}
	sp, ok := n.spoolOf(req.Handle)
	if !ok {
		return protocol.PutChunkReply{}, fmt.Errorf("%w: %q", staging.ErrUnknownHandle, req.Handle)
	}
	received, err := sp.Chunk(caller, req.Handle, req.Index, req.Data, req.CRC)
	if err != nil {
		n.tel.Counter("staging_chunk_errors_total").Inc()
		return protocol.PutChunkReply{}, err
	}
	n.tel.Counter("staging_chunks_total").Inc()
	n.tel.Counter("staging_bytes_total").Add(uint64(len(req.Data)))
	if err := n.stageAck(); err != nil {
		return protocol.PutChunkReply{}, err
	}
	return protocol.PutChunkReply{Received: received}, nil
}

// StageCommit seals a staged upload after verifying the whole-file CRC
// (protocol v2). A sealed upload is what an ImportTask's Staged reference may
// consume; committing twice with the same CRC is acknowledged idempotently.
func (n *NJS) StageCommit(caller core.DN, asServer bool, req protocol.PutCommitRequest) (protocol.PutCommitReply, error) {
	if n.dead.Load() {
		return protocol.PutCommitReply{}, ErrDown
	}
	sp, ok := n.spoolOf(req.Handle)
	if !ok {
		return protocol.PutCommitReply{}, fmt.Errorf("%w: %q", staging.ErrUnknownHandle, req.Handle)
	}
	start := time.Now()
	info, err := sp.Commit(caller, req.Handle, req.CRC)
	if err != nil {
		return protocol.PutCommitReply{}, err
	}
	n.tel.Histogram("staging_commit_seconds", telemetry.ScaleSeconds).ObserveSince(start)
	n.tel.Histogram("staging_upload_bytes", telemetry.ScaleBytes).Observe(float64(info.Size))
	if err := n.stageAck(); err != nil {
		return protocol.PutCommitReply{}, err
	}
	return protocol.PutCommitReply{Size: info.Size, CRC: info.CRC, Chunks: info.Chunks}, nil
}
