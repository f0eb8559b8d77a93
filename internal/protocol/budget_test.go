package protocol

import (
	"encoding/binary"
	"errors"
	"strings"
	"testing"
	"time"

	"unicore/internal/ajo"
	"unicore/internal/bin"
	"unicore/internal/bin/bintest"
	"unicore/internal/core"
)

// hostile is a body whose count, after the fields in front, claims 1 Mi
// entries, one for each of the 1 MiB of bytes behind it.
func hostile(front ...byte) []byte {
	return append(binary.AppendUvarint(front, 1<<20), make([]byte, 1<<20)...)
}

// TestHostileMapCountsAreRefused: a body whose map or list count claims an
// entry for every byte behind it is refused by name before the map or list
// is made, so the decode allocates no more than its budget — a map sized for
// 1 Mi entries takes 53–128 MiB, a list of 1 Mi snapshots 88 MiB.
func TestHostileMapCountsAreRefused(t *testing.T) {
	for _, c := range []struct {
		walk   string
		body   []byte
		decode func([]byte) error
	}{
		{"walkMap: origins", hostile(0, 0), // job, cursor
			func(p []byte) error { var m binSub; return decode(p, &m) }},
		{"walkMap: loads", hostile(0, 0, 0, 0, 0, 0, 0, 0), // overall load
			func(p []byte) error { var m LoadReply; return decode(p, &m) }},
		{"walkSnapshots: snapshots", hostile(),
			func(p []byte) error { var m MetricsReply; return decode(p, &m) }},
		{"walkMap: labels", hostile(1, 16, 0, 1, 16), // one snapshot, origin "", taken, one point, name ""
			func(p []byte) error { var m MetricsReply; return decode(p, &m) }},
	} {
		if err := c.decode(c.body); !errors.Is(err, bin.ErrOverBudget) {
			t.Errorf("%s: a 1 MiB body claiming 1 Mi entries decoded with %v, want %v", c.walk, err, bin.ErrOverBudget)
		}
		bintest.WithinBudget(t, c.walk, len(c.body), func() { c.decode(c.body) })
	}
}

// TestSmallestElementsFitTheBudget decodes long lists of the smallest
// well-formed instance of each charged element, each costing the bytes the
// derivation of bin.Amplification names: the budget must hold them all, so no
// message an encoder writes is refused.
func TestSmallestElementsFitTheBudget(t *testing.T) {
	const n = 4096
	at := time.Date(1999, 8, 3, 9, 0, 0, 0, time.UTC)
	long := strings.Repeat("j", 64) // the longest prefix a row can repeat
	for _, c := range []struct {
		element string
		size    int // input bytes of one element after the first
		encode  func(n int) []byte
		decode  func([]byte) error
	}{
		{"outcome node", 12,
			func(n int) []byte {
				root := &ajo.Outcome{}
				for range n {
					root.Children = append(root.Children, &ajo.Outcome{})
				}
				doc, err := ajo.MarshalOutcome(root)
				if err != nil {
					t.Fatal(err)
				}
				return doc
			},
			func(p []byte) error { _, err := ajo.UnmarshalOutcome(p); return err }},
		{"event", 10,
			func(n int) []byte {
				m := binEvents{}
				for range n {
					m.Events = append(m.Events, JobEvent{Job: "J", Origin: "o", Type: "t", Action: "a", Time: at})
				}
				return mustEncode(m)
			},
			func(p []byte) error { var m binEvents; return decode(p, &m) }},
		{"dependency", 3,
			func(n int) []byte {
				doc, err := ajo.Marshal(&ajo.AbstractJob{Dependencies: make([]ajo.Dependency, n)})
				if err != nil {
					t.Fatal(err)
				}
				return doc
			},
			func(p []byte) error { _, err := ajo.Unmarshal(p); return err }},
		{"front-coded list row", 6,
			func(n int) []byte {
				m := ListReply{}
				for range n {
					m.Jobs = append(m.Jobs, JobInfo{Job: core.JobID(long), Name: long, Submitted: at})
				}
				return mustEncode(m)
			},
			func(p []byte) error { var m ListReply; return decode(p, &m) }},
		{"advertisement", 16, // eight empty fields and the charge's eight bytes
			func(n int) []byte { return mustEncode(FedAdvertiseReply{Ads: make([]FedAd, n)}) },
			func(p []byte) error { var m FedAdvertiseReply; return decode(p, &m) }},
	} {
		if size := len(c.encode(n+1)) - len(c.encode(n)); size != c.size {
			t.Errorf("the smallest %s is %d bytes, want %d", c.element, size, c.size)
		}
		body := c.encode(n)
		if err := c.decode(body); err != nil {
			t.Errorf("%d of the smallest %s (%d bytes) decoded with %v", n, c.element, len(body), err)
		}
		bintest.WithinBudget(t, c.element, len(body), func() { c.decode(body) })
	}
}

// TestWarmListDecodeAllocatesOnlyItsRows: a 32-row front-coded list whose
// job IDs and names the process has decoded before allocates its Jobs slice
// and nothing else — each assembled string comes from the intern table, as a
// Str of it would.
func TestWarmListDecodeAllocatesOnlyItsRows(t *testing.T) {
	body := mustEncode(goldenList())
	decodeList := func() {
		var m ListReply
		if err := decode(body, &m); err != nil || len(m.Jobs) != 32 {
			t.Fatalf("decoded %d rows: %v", len(m.Jobs), err)
		}
	}
	decodeList() // each string noted
	decodeList() // and stored in the table
	if n := testing.AllocsPerRun(100, decodeList); n != 1 {
		t.Errorf("a warm 32-row list decode allocates %.0f times, want 1: its Jobs slice", n)
	}
}
