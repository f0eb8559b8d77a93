// Package staging is the bulk data-transfer engine of the reproduction — the
// production-grade successor of the paper's §5.6 chunked transfers ("data are
// transferred in chunks, on user request"). The seed implementation moved one
// signed envelope per sequential 256 KiB chunk and buffered whole files in
// memory; this package replaces both directions:
//
//   - Download: a windowed parallel engine (download.go) keeps N ranged chunk
//     requests in flight with readahead and streams the bytes, in order, to
//     an io.Writer — no whole-file buffering, resumable from any progress
//     point, the whole-file CRC verified incrementally as bytes are written.
//
//   - Upload: a chunked staged-upload engine (upload.go) streams an io.Reader
//     into a per-user spool area on the NJS through the protocol-v2
//     MsgPutOpen/MsgPutChunk/MsgPutCommit messages, so huge job inputs no
//     longer travel inline inside one giant signed consign envelope — the
//     AJO's ImportTask references the committed upload by its transfer handle
//     (ajo.ImportSource.Staged).
//
//   - Spool: the server half (spool.go) keeps every upload as chunk files
//     plus a metadata document on the Vsite's data space, so a journaled NJS
//     persists acknowledged chunks for free through the vfs mutation observer
//     and rebuilds the spool index from the file system after crash recovery.
//     Abandoned uploads are garbage-collected by Sweep.
//
// Chunk sends and ranged reads are idempotent, which is what makes every
// retry in this package safe: a lost reply is recovered by re-sending the
// same chunk or re-reading the same range.
package staging

import (
	"context"
	"errors"
	"fmt"
	"hash/crc64"
	"sync"
	"time"

	"unicore/internal/protocol"
)

// crcTable is the shared CRC64-ECMA table; the same polynomial the vfs layer
// and the journal use, so checksums compare across tiers.
var crcTable = crc64.MakeTable(crc64.ECMA)

// Checksum returns the crc64 (ECMA) of data — the per-chunk and whole-file
// checksum of the staging protocol.
func Checksum(data []byte) uint64 { return crc64.Checksum(data, crcTable) }

// Defaults for the transfer engines. DefaultChunkSize is the single shared
// chunk constant of the repository: the client fetch path and the NJS–NJS
// transfer path both size their ranged reads with it (the seed duplicated a
// 256 KiB constant in both tiers).
const (
	// DefaultChunkSize is one ranged request per chunk: 1 MiB amortises the
	// per-envelope sign/verify cost 4× better than the seed's 256 KiB.
	DefaultChunkSize = 1 << 20
	// DefaultWindow is how many chunk requests the engines keep in flight.
	DefaultWindow = 8
	// DefaultRetries is how often a failed chunk round trip is re-attempted
	// (idempotence makes the re-send safe).
	DefaultRetries = 4
	// DefaultBackoff spaces chunk retries; attempt k waits k×DefaultBackoff.
	DefaultBackoff = 50 * time.Millisecond
	// MaxChunkSize bounds what a server accepts per chunk (the gateway bounds
	// whole envelopes separately).
	MaxChunkSize = 8 << 20
	// MaxWindow bounds the out-of-order window a spool holds open.
	MaxWindow = 64
)

// Errors reported by the transfer engines and the spool.
var (
	// ErrNotFound reports a ranged read of a file (or job) that does not
	// exist. The engines fail fast on it instead of burning retries.
	ErrNotFound = errors.New("staging: no such file")
	// ErrChecksum reports a CRC mismatch: a chunk that did not survive
	// transit, or a committed/downloaded file whose content does not match
	// the announced whole-file checksum.
	ErrChecksum = errors.New("staging: checksum mismatch")
	// ErrMutated reports that the source file changed size or content while a
	// chunked download was in flight — the transfer is aborted (surfaced, not
	// looped) because a consistent byte stream can no longer be produced.
	ErrMutated = errors.New("staging: file changed during transfer")
	// ErrUnknownHandle reports a chunk/commit/consume against a transfer
	// handle this spool does not hold (wrong replica, expired, or swept).
	ErrUnknownHandle = errors.New("staging: unknown transfer handle")
	// ErrOutOfOrder reports a chunk sent more than the negotiated window
	// beyond the contiguous watermark.
	ErrOutOfOrder = errors.New("staging: chunk out of order")
	// ErrNotOwner reports a staging operation by a DN that did not open the
	// upload.
	ErrNotOwner = errors.New("staging: transfer belongs to another user")
	// ErrNotCommitted reports a consume of an upload that was never sealed.
	ErrNotCommitted = errors.New("staging: upload not committed")
	// ErrCommitted reports a chunk write to an already-sealed upload.
	ErrCommitted = errors.New("staging: upload already committed")
	// ErrMissingChunk reports a commit with holes in the chunk sequence.
	ErrMissingChunk = errors.New("staging: missing chunk")
)

// isPermanent reports an error no retry can cure: the engines surface it
// immediately instead of burning their retry budget.
func isPermanent(err error) bool {
	return errors.Is(err, ErrNotFound) || errors.Is(err, ErrNotOwner) ||
		errors.Is(err, ErrOutOfOrder) || errors.Is(err, ErrChecksum) ||
		errors.Is(err, ErrCommitted) || errors.Is(err, ErrMissingChunk)
}

// withRetry runs one idempotent staging round trip, re-attempting transient
// failures opt.Retries times with linear backoff (attempt k sleeps
// k×opt.Backoff, cancellable). Permanent errors and context cancellation
// surface immediately — this is the single retry policy under every chunk
// fetch, chunk send, and commit.
func withRetry(ctx context.Context, opt Options, what string, call func() error) error {
	var lastErr error
	for attempt := 0; attempt <= opt.Retries; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(time.Duration(attempt) * opt.Backoff):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		err := call()
		if err == nil {
			return nil
		}
		if isPermanent(err) || ctx.Err() != nil {
			return err
		}
		lastErr = err
	}
	return fmt.Errorf("staging: %s failed after %d attempts: %w", what, opt.Retries+1, lastErr)
}

// Options tunes a transfer engine. The zero value selects every default, so
// callers only set what they deviate on.
type Options struct {
	// ChunkSize is the byte size of one ranged request (default
	// DefaultChunkSize).
	ChunkSize int64
	// Window is the number of chunk requests kept in flight (default
	// DefaultWindow; 1 degrades to the seed's sequential per-envelope loop).
	Window int
	// Retries is the number of re-attempts per failed chunk round trip
	// (default DefaultRetries; negative disables retrying).
	Retries int
	// Backoff spaces retries of one chunk: attempt k sleeps k×Backoff
	// (default DefaultBackoff). Real time — the failures being ridden out are
	// transport- and failover-level.
	Backoff time.Duration
}

// chunkBufs recycles chunk buffers across uploads and downloads. A buffer
// for chunks of size bytes also holds the reply to a ranged read of size
// bytes (protocol.TransferReplyOverhead more), so the two directions run on
// each other's buffers; one too small for a transfer's chunk size is dropped.
var chunkBufs sync.Pool

// getChunkBuf returns a buffer of length size from the pool.
func getChunkBuf(size int64) *[]byte {
	if bp, _ := chunkBufs.Get().(*[]byte); bp != nil && int64(cap(*bp)) >= size+protocol.TransferReplyOverhead {
		*bp = (*bp)[:size]
		return bp
	}
	b := make([]byte, size, size+protocol.TransferReplyOverhead)
	return &b
}

// withDefaults fills unset fields.
func (o Options) withDefaults() Options {
	if o.ChunkSize <= 0 {
		o.ChunkSize = DefaultChunkSize
	}
	if o.Window <= 0 {
		o.Window = DefaultWindow
	}
	if o.Retries == 0 {
		o.Retries = DefaultRetries
	} else if o.Retries < 0 {
		o.Retries = 0
	}
	if o.Backoff <= 0 {
		o.Backoff = DefaultBackoff
	}
	return o
}
