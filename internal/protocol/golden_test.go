package protocol

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"unicore/internal/ajo"
	"unicore/internal/core"
	"unicore/internal/events"
)

// goldenBatch is the whole history of a finished eight-step chain, as one
// pushed batch: the job admitted, each step set running, done and
// successful, the job done — 26 events. A step runs 150.5 s and the next one
// starts the instant it ends.
func goldenBatch() binEvents {
	const job = core.JobID("BENCH-000017")
	at := time.Date(1999, 8, 3, 9, 0, 0, 0, time.UTC)
	m := binEvents{EventsReply: EventsReply{Cursor: 26}, End: true}
	add := func(typ events.Type, action ajo.ActionID, status ajo.Status) {
		seq := uint64(len(m.Events) + 1)
		m.Events = append(m.Events, JobEvent{Job: job, Seq: seq, Global: 400 + seq, Type: typ,
			Action: action, Status: status, Time: at, Terminal: typ == events.TypeJobDone})
	}
	add(events.TypeAdmitted, "", ajo.StatusRunning)
	for s := range 8 {
		step := ajo.ActionID(fmt.Sprintf("step-%d", s))
		add(events.TypeStatus, step, ajo.StatusRunning)
		at = at.Add(150500 * time.Millisecond)
		add(events.TypeActionDone, step, ajo.StatusSuccessful)
		add(events.TypeStatus, step, ajo.StatusSuccessful)
	}
	add(events.TypeJobDone, "", ajo.StatusSuccessful)
	return m
}

// goldenList is a user's 32 finished jobs, all submitted in the same instant
// of the virtual clock.
func goldenList() ListReply {
	at := time.Date(1999, 8, 3, 9, 0, 0, 0, time.UTC)
	var m ListReply
	for j := range 32 {
		m.Jobs = append(m.Jobs, JobInfo{Job: core.JobID(fmt.Sprintf("BENCH-%06d", j+1)),
			Name: fmt.Sprintf("done-0-%02d", j), Status: ajo.StatusSuccessful, Submitted: at})
	}
	return m
}

// goldenOutcome is the reply to an outcome fetch of the same finished
// chain: the job and its eight steps, each step's one line of output.
func goldenOutcome() OutcomeReply {
	at := time.Date(1999, 8, 3, 9, 0, 0, 0, time.UTC)
	root := &ajo.Outcome{Action: "job-17", Name: "done-0-16", Kind: ajo.KindJob, Status: ajo.StatusSuccessful, Started: at}
	for s := range 8 {
		step := &ajo.Outcome{Action: ajo.ActionID(fmt.Sprintf("step-%d", s)), Name: fmt.Sprintf("step-%d", s),
			Kind: ajo.KindScript, Status: ajo.StatusSuccessful, Stdout: []byte("step\n"), Started: at}
		at = at.Add(150500 * time.Millisecond)
		step.Finished = at
		root.Children = append(root.Children, step)
	}
	root.Finished = at
	return OutcomeReply{Found: true, Outcome: root}
}

// TestFrameBodiesArePinned holds the three largest bodies of a monitoring
// sweep to the bytes committed for this protocol Version, and to a size
// ceiling. A walk change that regrows them fails the ceiling; one that
// changes their bytes fails the pin until Version is bumped and the new
// bytes are committed under testdata/wire-v<Version>.
func TestFrameBodiesArePinned(t *testing.T) {
	batch, list, outcome := goldenBatch(), goldenList(), goldenOutcome()
	for _, c := range []struct {
		name    string
		body    []byte
		ceiling int
		decodes func(p []byte) bool // to the message encoded
	}{
		{"events", mustEncode(batch), 500, func(p []byte) bool { var m binEvents; return decode(p, &m) == nil && reflect.DeepEqual(m, batch) }},
		{"list", mustEncode(list), 320, func(p []byte) bool { var m ListReply; return decode(p, &m) == nil && reflect.DeepEqual(m, list) }},
		{"outcome", mustEncode(outcome), 600, func(p []byte) bool {
			var m OutcomeReply
			return decode(p, &m) == nil && reflect.DeepEqual(m, outcome)
		}},
	} {
		if len(c.body) > c.ceiling {
			t.Errorf("protocol.Version %d: the %s body is %d bytes, over its ceiling of %d", Version, c.name, len(c.body), c.ceiling)
		}
		path := filepath.Join("testdata", fmt.Sprintf("wire-v%d", Version), c.name+".hex")
		pinned, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("protocol.Version %d pins no %s body (%v); its bytes are\n%s", Version, c.name, err, hexLines(c.body))
			continue
		}
		want, err := hex.DecodeString(strings.Join(strings.Fields(string(pinned)), ""))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if !bytes.Equal(c.body, want) {
			t.Errorf("the %s body changed under protocol.Version %d: bump Version and pin the new bytes; they are\n%s", c.name, Version, hexLines(c.body))
		}
		if !c.decodes(want) {
			t.Errorf("%s does not decode to the message it pins", path)
		}
	}
}

// hexLines is p as the pinned files hold it: 32 bytes of hex a line.
func hexLines(p []byte) string {
	var b strings.Builder
	for len(p) > 0 {
		n := min(32, len(p))
		b.WriteString(hex.EncodeToString(p[:n]) + "\n")
		p = p[n:]
	}
	return b.String()
}
