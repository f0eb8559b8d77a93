package journal

import (
	"testing"

	"unicore/internal/bin/bintest"
)

// TestWalkStaysOnTheStack is the escape guard of walkEntry: encoding into a
// buffer with room allocates nothing, and decoding allocates the payload
// struct, its list and its strings' arena (package bin) and nothing else —
// the AJO stays a view.
// A walk that lets the entry or the codec escape costs every journal append
// and every replayed record an allocation, and fails here before it fails
// the benchmark gate.
func TestWalkStaysOnTheStack(t *testing.T) {
	var a Admission
	bintest.Fill(t, &a)
	e := Entry{Kind: KindAdmit, Admit: &a}
	buf := make([]byte, 0, 4096)
	if n := testing.AllocsPerRun(100, func() {
		if _, err := appendPayload(buf, e); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("encoding an admission allocates %.0f times, want 0", n)
	}
	rec, err := appendPayload(nil, e)
	if err != nil {
		t.Fatal(err)
	}
	// The Admission, the group list, and the arena chunks its eight strings
	// and its groups are cut from (twelve allocations before the arena).
	if n := testing.AllocsPerRun(100, func() {
		got, err := decodePayload(rec)
		if err != nil || got.Admit.Job != a.Job {
			t.Fatal(got, err)
		}
	}); n > 4 {
		t.Errorf("decoding an admission allocates %.0f times, want at most 4", n)
	}
}
