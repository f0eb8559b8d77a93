package bintest

import (
	"runtime"
	"testing"

	"unicore/internal/bin"
)

// allocated returns the heap bytes one run of decode allocated, read from
// runtime.MemStats.
func allocated(decode func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	decode()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// WithinBudget fails t unless decode, which decodes n input bytes, allocates
// at most what package bin's budget allows them — bin.Amplification × n +
// bin.Slack — plus the heap's rounding. The budget counts the bytes a decode
// asks for; the heap hands out a size class or whole pages, at most a
// quarter more (a request of 32 KiB and one byte takes 40 KiB). A run over
// the limit is tried twice more and fails only if every run is over, so a
// stray allocation elsewhere in the process does not count against decode.
func WithinBudget(t testing.TB, what string, n int, decode func()) {
	t.Helper()
	budget := bin.Amplification*n + bin.Slack
	limit := uint64(budget + budget/4)
	got := allocated(decode)
	for retry := 0; retry < 2 && got > limit; retry++ {
		got = min(got, allocated(decode))
	}
	if got > limit {
		t.Fatalf("%s: decoding %d bytes allocated %d, over the budget's %d and its rounding", what, n, got, budget)
	}
}
