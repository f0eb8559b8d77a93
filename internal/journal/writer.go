package journal

import (
	"errors"
	"fmt"
	"os"
	"sync"
)

// maxPendingBytes bounds what a writer holds in memory: the weight of the
// entries queued plus the batch being written. A burst that outruns the disk
// fills the queue to this size and then waits for it.
const maxPendingBytes = 32 << 20

// writer is the batched appender behind a Store. Append enqueues an entry
// under a small mutex and returns; a background goroutine drains the queue in
// batches (group commit), so producers — which may hold NJS job locks or the
// vfs lock — do not wait on file I/O unless the queue is full. Sync blocks
// until every entry appended so far is written and fsynced.
//
// One condition variable serves three kinds of waiter. Append's Signal still
// reaches the flusher: the flusher waits only when nothing is queued or in
// flight, and then no Sync has anything to wait for and no Append is over
// the bound.
type writer struct {
	mu       sync.Mutex
	cond     *sync.Cond
	f        file
	pending  []Entry
	queued   int   // weight of pending plus the batch in flight
	appended int64 // entries handed to Append
	flushed  int64 // entries written to the file
	err      error // first write or fsync error, sticky
	closed   bool
	done     chan struct{}
}

// file is what a writer needs of its journal file — an *os.File, or a test's
// stand-in that fails a write or an fsync on cue.
type file interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// newWriter opens (creating or appending to) the journal file at path and
// starts the flusher.
func newWriter(path string) (*writer, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	return startWriter(f), nil
}

// startWriter starts a flusher over an open file.
func startWriter(f file) *writer {
	w := &writer{f: f, done: make(chan struct{})}
	w.cond = sync.NewCond(&w.mu)
	go w.flushLoop()
	return w
}

// Append enqueues one entry. It blocks only while maxPendingBytes are
// already queued and the flusher is alive to drain them — the flusher takes
// no lock but the writer's own, so a producer holding a job or vfs lock
// cannot deadlock on it. A sticky write or fsync error surfaces on the next
// Sync or Close; after one the flusher is gone, so entries are dropped rather
// than queued for nobody.
func (w *writer) Append(e Entry) {
	weight := e.weight()
	w.mu.Lock()
	for w.queued >= maxPendingBytes && !w.closed && w.err == nil {
		w.cond.Wait()
	}
	if w.closed || w.err != nil {
		w.mu.Unlock()
		return
	}
	w.pending = append(w.pending, e)
	w.queued += weight
	w.appended++
	w.mu.Unlock()
	w.cond.Signal()
}

// flushLoop drains the queue in batches until Close. Each batch is encoded
// into one reused buffer and written with one call.
func (w *writer) flushLoop() {
	defer close(w.done)
	var buf []byte
	for {
		w.mu.Lock()
		for len(w.pending) == 0 && !w.closed && w.err == nil {
			w.cond.Wait()
		}
		if w.err != nil || (w.closed && len(w.pending) == 0) {
			w.mu.Unlock()
			return
		}
		batch := w.pending
		taken := w.queued // the previous batch is already subtracted
		w.pending = nil
		w.mu.Unlock()

		buf = buf[:0]
		var err error
		for _, e := range batch {
			if buf, err = appendFrame(buf, e); err != nil {
				break
			}
		}
		if err == nil {
			_, err = w.f.Write(buf)
		}

		w.mu.Lock()
		w.flushed += int64(len(batch))
		w.queued -= taken
		if err != nil && w.err == nil {
			w.err = err
		}
		w.mu.Unlock()
		w.cond.Broadcast()
	}
}

// Sync blocks until everything appended before the call is on disk. Syncing
// a writer that Close has already retired reports Close's outcome: Close
// drains and fsyncs before closing the file, and records its fsync failure
// in the sticky error.
func (w *writer) Sync() error {
	w.mu.Lock()
	target := w.appended
	for w.flushed < target && w.err == nil {
		w.cond.Wait()
	}
	err := w.err
	closed := w.closed
	w.mu.Unlock()
	if err != nil {
		return err
	}
	if closed {
		// Close drains before fsyncing; wait for the drain so our target
		// entries are on their way to the file before we fsync.
		<-w.done
	}
	return w.syncFile()
}

// syncFile fsyncs the journal file. A failed fsync is sticky: the kernel
// reports a writeback error once, so a retried fsync may return nil over
// entries whose pages it dropped — after one failure no Sync succeeds and no
// Append is queued, and only a replay from disk says what survived. It
// tolerates a concurrent Close: the fd is only closed after Close's own
// drain+fsync, so ErrClosed means Close got there first — and its fsync
// outcome is in the sticky error, which was recorded before the fd was
// closed.
func (w *writer) syncFile() error {
	serr := w.f.Sync()
	if serr == nil {
		return nil
	}
	w.mu.Lock()
	if w.err == nil && !errors.Is(serr, os.ErrClosed) {
		w.err = serr
	}
	err := w.err
	w.mu.Unlock()
	w.cond.Broadcast() // the flusher and any Append over the bound stop waiting
	return err
}

// Close drains the queue, fsyncs, and closes the file. A failed fsync is
// recorded in the sticky error before the fd is closed, so a racing Sync
// never mistakes "file closed" for "data durable".
func (w *writer) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	w.mu.Unlock()
	w.cond.Broadcast()
	<-w.done
	serr := w.f.Sync()
	w.mu.Lock()
	if serr != nil && w.err == nil {
		w.err = serr
	}
	err := w.err
	w.mu.Unlock()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}
