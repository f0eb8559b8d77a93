package journal

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// raceEnabled is set by race_test.go under -race, where allocation counts
// include the detector's own and mean nothing.
var raceEnabled bool

// bufFile is a journal file in memory whose fsync always succeeds.
type bufFile struct {
	mu   sync.Mutex
	data bytes.Buffer
}

func (f *bufFile) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.data.Write(p)
}

func (f *bufFile) Sync() error  { return nil }
func (f *bufFile) Close() error { return nil }

// noFile takes every write and keeps nothing.
type noFile struct{}

func (noFile) Write(p []byte) (int, error) { return len(p), nil }
func (noFile) Sync() error                 { return nil }
func (noFile) Close() error                { return nil }

// taggedEntry is entry i of producer p; parseTag inverts it.
func taggedEntry(p, i int) Entry {
	return Entry{Kind: KindFileWrite, File: &FileMutation{Path: fmt.Sprintf("p%d/%06d", p, i), Data: []byte("x")}}
}

func parseTag(e Entry) (p, i int, err error) {
	if e.File == nil {
		return 0, 0, fmt.Errorf("entry of kind %s, want a file write", e.Kind)
	}
	_, err = fmt.Sscanf(e.File.Path, "p%d/%d", &p, &i)
	return p, i, err
}

// assertQueuesHoldNoPayload fails if the writer's idle queues — the pending
// queue and the spare batch — hold an entry anywhere in their arrays: a
// drained batch is cleared before it is reused, so it pins no payload.
func assertQueuesHoldNoPayload(t *testing.T, w *writer) {
	t.Helper()
	w.mu.Lock()
	defer w.mu.Unlock()
	for name, q := range map[string][]Entry{"pending": w.pending, "spare": w.spare} {
		for i, e := range q[:cap(q)] {
			if e != (Entry{}) {
				t.Errorf("%s[%d] of an idle writer still holds a %s entry", name, i, e.Kind)
			}
		}
	}
}

// TestQueueReuseKeepsOrderUnderSyncAndClose: producers append and sync
// while the flusher swaps the two queues under them, and Close lands in the
// middle. Every entry appended before Close began is on file, each
// producer's entries are on file in the order appended with none missing
// between them, and the queues Close leaves hold no payload.
func TestQueueReuseKeepsOrderUnderSyncAndClose(t *testing.T) {
	f := &bufFile{}
	w := startWriter(f)
	const producers, each = 4, 400
	var (
		closeMu sync.RWMutex
		closing bool
		before  [producers]int // entries appended before Close began
		wg      sync.WaitGroup
	)
	for p := range producers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				closeMu.RLock()
				if closing {
					closeMu.RUnlock()
					// One more append and sync race Close itself.
					w.Append(taggedEntry(p, i))
					_ = w.Sync()
					return
				}
				w.Append(taggedEntry(p, i))
				before[p] = i + 1
				closeMu.RUnlock()
				if i%5 == 0 {
					if err := w.Sync(); err != nil {
						t.Errorf("Sync: %v", err)
						return
					}
				}
			}
		}()
	}
	closed := make(chan error, 1)
	go func() {
		w.mu.Lock()
		for w.flushed < producers*each/2 {
			w.cond.Wait()
		}
		w.mu.Unlock()
		closeMu.Lock()
		closing = true
		closeMu.Unlock()
		closed <- w.Close()
	}()
	wg.Wait()
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}

	var next [producers]int
	if err := readAll(bytes.NewReader(f.data.Bytes()), false, func(e Entry) error {
		p, i, err := parseTag(e)
		if err != nil || p < 0 || p >= producers {
			return fmt.Errorf("unreadable entry %+v: %v", e.File, err)
		}
		if i != next[p] {
			return fmt.Errorf("producer %d: entry %d on file after %d", p, i, next[p])
		}
		next[p]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for p := range producers {
		if next[p] < before[p] {
			t.Errorf("producer %d: %d entries on file, %d appended before Close", p, next[p], before[p])
		}
	}
	assertQueuesHoldNoPayload(t, w)
}

// TestFlushedBatchKeepsNoPayload: once a Sync returns, the batch it waited
// for has been written and cleared, in whichever of the two queues it rests.
func TestFlushedBatchKeepsNoPayload(t *testing.T) {
	w := startWriter(&bufFile{})
	defer w.Close()
	for round := range 3 {
		for i := range 10 * (round + 1) {
			w.Append(taggedEntry(round, i))
		}
		if err := w.Sync(); err != nil {
			t.Fatalf("Sync: %v", err)
		}
		assertQueuesHoldNoPayload(t, w)
	}
}

// TestAppendSyncAllocationBudget: in steady state an Append and its Sync
// allocate nothing: the flusher hands its drained batch back as the next
// queue instead of the queue regrowing for every batch.
func TestAppendSyncAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	w := startWriter(noFile{})
	defer w.Close()
	e := entryN(1)
	if n := testing.AllocsPerRun(100, func() {
		w.Append(e)
		if err := w.Sync(); err != nil {
			t.Fatalf("Sync: %v", err)
		}
	}); n != 0 {
		t.Errorf("Append+Sync allocates %.0f times per call, want 0", n)
	}
}
