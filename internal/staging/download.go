package staging

import (
	"context"
	"fmt"
	"io"

	"unicore/internal/checksum"
)

// Chunk is one ranged read reply: a window of the file plus the file's
// metadata at read time. Size and CRC must be identical across every chunk of
// one transfer; a difference means the file mutated mid-download and the
// engine aborts with ErrMutated instead of assembling inconsistent bytes.
type Chunk struct {
	Data []byte
	Size int64  // total file size at read time
	CRC  uint64 // whole-file crc64 at read time
}

// Source fetches one ranged chunk: up to limit bytes starting at offset. An
// offset at or past EOF returns the file metadata with no data. Reads must be
// idempotent — the engine re-issues a range after a lost reply. Wrap a
// missing file in ErrNotFound so the engine fails fast instead of retrying.
//
// buf is lent by the engine for the one call: its capacity holds the reply
// to a read of limit bytes (limit+protocol.TransferReplyOverhead) and its
// contents are garbage. The returned Data may alias it — a wire reads the
// reply straight into it — and the Source must not touch buf once it has
// returned. The engine lends at most Window buffers at a time, so at most
// Window chunks of one download are in flight or waiting to be written.
type Source func(ctx context.Context, offset, limit int64, buf []byte) (Chunk, error)

// Progress is the resumable state of a download: Offset bytes have been
// delivered to the writer and CRC is the running crc64 over them. The zero
// Progress starts from the beginning; the Progress returned by a failed
// Download/Resume continues it (against the same writer) without refetching
// or rehashing what already arrived.
type Progress struct {
	Offset int64
	CRC    uint64
}

// Download streams a whole file from src to w through a windowed parallel
// engine: opt.Window ranged requests are kept in flight (readahead), replies
// are reordered, and the bytes are written strictly in order — so w sees a
// plain sequential stream and no whole-file buffer ever exists. Each request
// fills one of at most opt.Window pooled chunk buffers, and a request starts
// only when a buffer is free: a chunk stalled at the head of the file holds
// the window still, so in-flight and reordered chunks together never exceed
// opt.Window. A buffer is reused once its chunk has been written, which is
// safe because an io.Writer must not retain what it is handed. The
// whole-file checksum is folded incrementally as bytes are written and
// verified against the server-announced CRC at the end.
//
// On failure the returned Progress tells how far the writer got; pass it to
// Resume to continue. Chunk-level failures are retried opt.Retries times with
// backoff before they abort the transfer — which is what lets a download ride
// out a replica failover (the owning replica is killed and recovers
// mid-transfer) without restarting from byte zero.
func Download(ctx context.Context, src Source, w io.Writer, opt Options) (Progress, error) {
	return Resume(ctx, src, w, Progress{}, opt)
}

// Resume is Download starting from a prior Progress (its Offset bytes are
// assumed to be already in w). The whole-file CRC is still verified, because
// Progress carries the running checksum of the bytes delivered so far.
func Resume(ctx context.Context, src Source, w io.Writer, p Progress, opt Options) (Progress, error) {
	opt = opt.withDefaults()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// free holds the chunk buffers no fetch is using, starting with the one
	// the first read borrows; they go back to the pool when the engine
	// returns. A buffer still lent to a fetch the engine gave up on is dropped
	// with that fetch.
	free := []*[]byte{getChunkBuf(opt.ChunkSize)}
	defer func() {
		for _, bp := range free {
			chunkBufs.Put(bp)
		}
	}()
	take := func() *[]byte {
		if n := len(free); n > 0 {
			bp := free[n-1]
			free = free[:n-1]
			return bp
		}
		return getChunkBuf(opt.ChunkSize)
	}

	// The first chunk is fetched inline: it establishes the file's size and
	// whole-file CRC and surfaces not-found/authorization errors before any
	// parallelism starts.
	first, err := fetchRetry(ctx, src, p.Offset, *free[0], opt)
	if err != nil {
		return p, err
	}
	size, want := first.Size, first.CRC
	if p.Offset > size {
		return p, fmt.Errorf("%w: resume offset %d beyond size %d", ErrMutated, p.Offset, size)
	}

	written, crc := p.Offset, p.CRC
	// consume folds one in-order chunk into the writer and the running CRC.
	// The progress CRC may only ever cover bytes the writer accepted — on a
	// short write exactly the delivered prefix is folded, so the returned
	// Progress still resumes correctly.
	consume := func(c Chunk) error {
		if c.Size != size || c.CRC != want {
			return fmt.Errorf("%w: size %d→%d, crc %#x→%#x", ErrMutated, size, c.Size, want, c.CRC)
		}
		expect := size - written
		if expect > opt.ChunkSize {
			expect = opt.ChunkSize
		}
		if int64(len(c.Data)) != expect {
			return fmt.Errorf("%w: chunk at %d returned %d bytes, want %d", ErrMutated, written, len(c.Data), expect)
		}
		n, err := w.Write(c.Data)
		crc = checksum.Update(crc, c.Data[:n])
		written += int64(n)
		return err
	}
	if err := consume(first); err != nil {
		return Progress{Offset: written, CRC: crc}, err
	}

	// Windowed parallel body: keep every buffer busy with a readahead fetch,
	// reorder replies, write in order, refill as buffers come free.
	type result struct {
		off   int64
		buf   *[]byte
		chunk Chunk
		err   error
	}
	results := make(chan result, opt.Window) // buffered: a cancelled engine never strands a sender
	lent := 0                                // buffers held by a fetch or by a chunk parked in pending
	pending := make(map[int64]result, opt.Window)
	for next := written; written < size; {
		for ; lent < opt.Window && next < size; next += opt.ChunkSize {
			bp, off := take(), next
			lent++
			go func() {
				c, err := fetchRetry(ctx, src, off, *bp, opt)
				results <- result{off: off, buf: bp, chunk: c, err: err}
			}()
		}
		var res result
		select {
		case res = <-results:
		case <-ctx.Done():
			return Progress{Offset: written, CRC: crc}, ctx.Err()
		}
		if res.err != nil {
			return Progress{Offset: written, CRC: crc}, res.err
		}
		pending[res.off] = res
		for {
			r, ok := pending[written]
			if !ok {
				break
			}
			delete(pending, written)
			err := consume(r.chunk)
			free = append(free, r.buf) // the writer has returned: the buffer is free
			lent--
			if err != nil {
				return Progress{Offset: written, CRC: crc}, err
			}
		}
	}
	if crc != want {
		return Progress{Offset: written, CRC: crc},
			fmt.Errorf("%w: assembled crc %#x, announced %#x", ErrChecksum, crc, want)
	}
	return Progress{Offset: written, CRC: crc}, nil
}

// fetchRetry reads one range into buf on the shared retry policy (reads are
// idempotent; ErrNotFound is permanent and fails fast).
func fetchRetry(ctx context.Context, src Source, off int64, buf []byte, opt Options) (Chunk, error) {
	var c Chunk
	what := func() string { return fmt.Sprintf("chunk at offset %d", off) }
	err := withRetry(ctx, opt, what, func() error {
		var err error
		c, err = src(ctx, off, opt.ChunkSize, buf)
		return err
	})
	if err != nil {
		return Chunk{}, err
	}
	return c, nil
}
