package staging

import (
	"context"
	"fmt"
	"io"

	"unicore/internal/core"
	"unicore/internal/protocol"
)

// Putter issues the three protocol-v2 staged-upload calls against one site.
// client.Session implements it over the signed-envelope client; tests
// implement it directly against a Spool.
type Putter interface {
	// PutOpen begins an upload and returns its transfer handle.
	PutOpen(ctx context.Context, req protocol.PutOpenRequest) (protocol.PutOpenReply, error)
	// PutChunk delivers (idempotently) one chunk. req.Data belongs to the
	// caller and is reused as soon as PutChunk returns: an implementation
	// must not retain it (a wire encodes it; anything else copies).
	PutChunk(ctx context.Context, req protocol.PutChunkRequest) (protocol.PutChunkReply, error)
	// PutCommit seals the upload after verifying the whole-file CRC.
	PutCommit(ctx context.Context, req protocol.PutCommitRequest) (protocol.PutCommitReply, error)
}

// Upload streams r into the spool area of a Vsite and returns the committed
// transfer handle — the value an ajo.ImportTask references as Source.Staged,
// so the input travels in CRC-checked chunks ahead of the AJO instead of
// inline inside the consign envelope.
//
// Chunks are read sequentially from r, straight into a ring of at most
// window pooled buffers, and sent in window-sized parallel batches (the
// server accepts up to the negotiated window beyond its contiguous
// watermark, so no chunk in a batch can be out of order). Failed sends are
// retried — chunk delivery is idempotent, so a lost reply is cured by
// re-sending the same chunk. Each chunk is checksummed once; the whole-file
// CRC sealed into the commit is combined from the per-chunk checksums.
func Upload(ctx context.Context, p Putter, vsite core.Vsite, name string, r io.Reader, opt Options) (string, protocol.PutCommitReply, error) {
	opt = opt.withDefaults()
	open, err := p.PutOpen(ctx, protocol.PutOpenRequest{
		Vsite: vsite, Name: name, ChunkSize: opt.ChunkSize, Window: opt.Window,
	})
	if err != nil {
		return "", protocol.PutCommitReply{}, err
	}
	chunkSize, window := open.ChunkSize, open.Window
	if chunkSize <= 0 || window <= 0 {
		return open.Handle, protocol.PutCommitReply{},
			fmt.Errorf("staging: server opened %q with chunk %d / window %d", open.Handle, chunkSize, window)
	}

	ring := make([]*[]byte, 0, window) // chunk buffers, reused by every batch
	defer func() {
		for _, bp := range ring {
			chunkBufs.Put(bp)
		}
	}()

	var crc uint64
	var index int64
	errs := make(chan error, window)
	for eof := false; !eof; {
		// One batch: up to window chunks, each sent as soon as it is read. All
		// stay within the server's window because the previous batch is fully
		// acknowledged, and the batch is drained before anything returns, so no
		// send still reads a buffer that is reused or back in the pool.
		sent := 0
		var batchErr error
		for sent < window && !eof && batchErr == nil {
			if sent == len(ring) {
				ring = append(ring, getChunkBuf(chunkSize))
			}
			n, err := io.ReadFull(r, *ring[sent])
			eof = err == io.EOF || err == io.ErrUnexpectedEOF
			if err != nil && !eof {
				batchErr = fmt.Errorf("staging: reading upload: %w", err)
			} else if n > 0 {
				req := protocol.PutChunkRequest{Handle: open.Handle, Index: index, Data: (*ring[sent])[:n]}
				req.CRC = Checksum(req.Data)
				crc = crcCombine(crc, req.CRC, int64(n))
				go func() { errs <- putChunkRetry(ctx, p, req, opt) }()
				index++
				sent++
			}
		}
		for ; sent > 0; sent-- {
			if err := <-errs; batchErr == nil {
				batchErr = err
			}
		}
		if batchErr != nil {
			return open.Handle, protocol.PutCommitReply{}, batchErr
		}
	}

	commit, err := putCommitRetry(ctx, p, protocol.PutCommitRequest{Handle: open.Handle, CRC: crc}, opt)
	return open.Handle, commit, err
}

// putChunkRetry delivers one chunk on the shared retry policy (re-sends are
// idempotent).
func putChunkRetry(ctx context.Context, p Putter, req protocol.PutChunkRequest, opt Options) error {
	return withRetry(ctx, opt, fmt.Sprintf("chunk %d of %s", req.Index, req.Handle), func() error {
		_, err := p.PutChunk(ctx, req)
		return err
	})
}

// putCommitRetry seals the upload on the shared retry policy (committing an
// already-committed upload with the same CRC is acknowledged idempotently).
func putCommitRetry(ctx context.Context, p Putter, req protocol.PutCommitRequest, opt Options) (protocol.PutCommitReply, error) {
	var reply protocol.PutCommitReply
	err := withRetry(ctx, opt, fmt.Sprintf("commit of %s", req.Handle), func() error {
		var err error
		reply, err = p.PutCommit(ctx, req)
		return err
	})
	if err != nil {
		return protocol.PutCommitReply{}, err
	}
	return reply, nil
}
