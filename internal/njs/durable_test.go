package njs

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"unicore/internal/ajo"
	"unicore/internal/core"
	"unicore/internal/events"
	"unicore/internal/journal"
	"unicore/internal/machine"
	"unicore/internal/protocol"
	"unicore/internal/sim"
	"unicore/internal/uudb"
)

// newDurableNJS builds a journal-backed NJS over dir.
func newDurableNJS(t testing.TB, clock *sim.VirtualClock, dir string, snapshotEvery int) (*NJS, *journal.Store) {
	t.Helper()
	store, err := journal.Open(dir)
	if err != nil {
		t.Fatalf("journal.Open: %v", err)
	}
	n, err := recoverFrom(store, clock, snapshotEvery)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return n, store
}

// recoverFrom builds an NJS over store, replaying whatever it holds.
func recoverFrom(store *journal.Store, clock *sim.VirtualClock, snapshotEvery int) (*NJS, error) {
	cfg := durableCfg(clock)
	cfg.Journal, cfg.SnapshotEvery = store, snapshotEvery
	return New(cfg)
}

func durableCfg(clock *sim.VirtualClock) Config {
	return Config{
		Usite: "FZJ",
		Clock: clock,
		Vsites: []VsiteConfig{
			{Name: "T3E", Profile: machine.CrayT3E(64)},
			{Name: "CLUSTER", Profile: machine.GenericCluster(8)},
		},
		Logins: testMapper,
	}
}

func testMapper(dn core.DN, v core.Vsite) (uudb.Login, error) {
	return uudb.Login{UID: loginOf(dn)}, nil
}

// crashRestart simulates a process death and restart: the old NJS is killed,
// the store is flushed and closed (the crash point is "right after the last
// fsync"), and a fresh NJS recovers from the directory.
func crashRestart(t testing.TB, old *NJS, store *journal.Store, clock *sim.VirtualClock, dir string, snapshotEvery int) (*NJS, *journal.Store) {
	t.Helper()
	if err := store.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	old.Kill()
	if err := store.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	store2, err := journal.Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	n, err := recoverFrom(store2, clock, snapshotEvery)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	n.ResumeRecovered()
	return n, store2
}

// canonical renders an outcome tree without timestamps, for comparing a
// recovered run against an uninterrupted one.
func canonical(o *ajo.Outcome) string {
	var b strings.Builder
	var rec func(o *ajo.Outcome, depth int)
	rec = func(o *ajo.Outcome, depth int) {
		fmt.Fprintf(&b, "%s%s %s exit=%d stdout=%q files=%d\n",
			strings.Repeat("  ", depth), o.Action, o.Status, o.ExitCode, o.Stdout, len(o.Files))
		for _, c := range o.Children {
			rec(c, depth+1)
		}
	}
	rec(o, 0)
	return b.String()
}

func durableStagedJob(name string) *ajo.AbstractJob {
	b := &ajo.AbstractJob{
		Header: ajo.Header{ActionID: ajo.ActionID(name), ActionName: name},
		Target: core.Target{Usite: "FZJ", Vsite: "CLUSTER"},
	}
	imp := &ajo.ImportTask{
		Header: ajo.Header{ActionID: "imp"},
		Source: ajo.ImportSource{Inline: []byte("input for " + name)},
		To:     "input.dat",
	}
	run := script("run", "cat input.dat > used.tmp\ncpu 10m\nwrite result.dat 2048\necho "+name+" done\n")
	exp := &ajo.ExportTask{
		Header: ajo.Header{ActionID: "exp"}, From: "result.dat", ToXspace: "/results/" + name + ".dat",
	}
	b.Actions = ajo.ActionList{imp, run, exp}
	b.Dependencies = []ajo.Dependency{{Before: "imp", After: "run"}, {Before: "run", After: "exp"}}
	return b
}

func TestRecoverCompletedJobVerbatim(t *testing.T) {
	clock := sim.NewVirtualClock()
	dir := t.TempDir()
	n, store := newDurableNJS(t, clock, dir, 0)

	id, err := n.Consign(context.Background(), alice, "consign-1", durableStagedJob("done-before-crash"))
	if err != nil {
		t.Fatalf("Consign: %v", err)
	}
	clock.RunUntilIdle(0)
	before, found, err := n.Outcome(alice, false, id)
	if err != nil || !found {
		t.Fatalf("Outcome before crash: %v found=%v", err, found)
	}
	if before.Status != ajo.StatusSuccessful {
		t.Fatalf("status before crash = %s", before.Status)
	}

	n2, store2 := crashRestart(t, n, store, clock, dir, 0)
	defer store2.Close()
	clock.RunUntilIdle(0)

	after, found, err := n2.Outcome(alice, false, id)
	if err != nil || !found {
		t.Fatalf("Outcome after recovery: %v found=%v", err, found)
	}
	// A job that was terminal before the crash recovers with full fidelity,
	// timestamps included.
	rawBefore, _ := ajo.MarshalOutcome(before)
	rawAfter, _ := ajo.MarshalOutcome(after)
	if string(rawBefore) != string(rawAfter) {
		t.Fatalf("terminal outcome changed across recovery:\nbefore: %s\nafter:  %s", rawBefore, rawAfter)
	}

	// The Uspace contents survived: the result file is still fetchable.
	reply, err := n2.FetchFileOwned(alice, false, id, "result.dat", 0, 1<<20)
	if err != nil || !reply.Found {
		t.Fatalf("FetchFile after recovery: %v found=%v", err, reply.Found)
	}
	if reply.Size != 2048 {
		t.Fatalf("result.dat size = %d", reply.Size)
	}
	// And the exported Xspace copy too.
	vs, _ := n2.Vsite("CLUSTER")
	if _, err := vs.Space.ReadXspace("/results/done-before-crash.dat"); err != nil {
		t.Fatalf("export lost: %v", err)
	}

	// The idempotent consign index survived: a retry returns the same job.
	again, err := n2.Consign(context.Background(), alice, "consign-1", durableStagedJob("done-before-crash"))
	if err != nil || again != id {
		t.Fatalf("consign retry after recovery: id=%s err=%v, want %s", again, err, id)
	}
}

func TestRecoverMidFlightMatchesUninterruptedRun(t *testing.T) {
	runOnce := func(crash bool) string {
		clock := sim.NewVirtualClock()
		dir := t.TempDir()
		n, store := newDurableNJS(t, clock, dir, 0)
		defer func() { _ = store }()

		var ids []core.JobID
		for i := 0; i < 6; i++ {
			id, err := n.Consign(context.Background(), alice, fmt.Sprintf("c-%d", i), durableStagedJob(fmt.Sprintf("wl-%02d", i)))
			if err != nil {
				t.Fatalf("Consign: %v", err)
			}
			ids = append(ids, id)
		}
		// Mid-workload: imports have landed, batch jobs are queued/running,
		// nothing is finished yet.
		clock.Advance(2 * time.Minute)

		if crash {
			n, store = crashRestart(t, n, store, clock, dir, 0)
		}
		defer store.Close()
		clock.RunUntilIdle(0)

		var b strings.Builder
		for _, id := range ids {
			o, found, err := n.Outcome(alice, false, id)
			if err != nil || !found {
				t.Fatalf("Outcome(%s): %v found=%v", id, err, found)
			}
			b.WriteString(canonical(o))
		}
		return b.String()
	}

	base := runOnce(false)
	crashed := runOnce(true)
	if base != crashed {
		t.Fatalf("recovered outcomes diverge from uninterrupted run:\n--- uninterrupted ---\n%s--- recovered ---\n%s", base, crashed)
	}
	if !strings.Contains(base, "SUCCESSFUL") {
		t.Fatalf("workload did not succeed:\n%s", base)
	}
}

func TestRecoverWithSnapshotCompaction(t *testing.T) {
	clock := sim.NewVirtualClock()
	dir := t.TempDir()
	// Aggressive cadence so several compactions happen mid-workload.
	n, store := newDurableNJS(t, clock, dir, 40)

	var ids []core.JobID
	for i := 0; i < 8; i++ {
		id, err := n.Consign(context.Background(), alice, "", durableStagedJob(fmt.Sprintf("snap-%02d", i)))
		if err != nil {
			t.Fatalf("Consign: %v", err)
		}
		ids = append(ids, id)
	}
	clock.RunUntilIdle(0)

	n2, store2 := crashRestart(t, n, store, clock, dir, 40)
	defer store2.Close()
	clock.RunUntilIdle(0)
	for _, id := range ids {
		o, found, err := n2.Outcome(alice, false, id)
		if err != nil || !found {
			t.Fatalf("Outcome(%s) after compacted recovery: %v found=%v", id, err, found)
		}
		if o.Status != ajo.StatusSuccessful {
			t.Fatalf("job %s = %s after compacted recovery", id, o.Status)
		}
	}
}

func TestRecoverHeldJobStaysHeld(t *testing.T) {
	clock := sim.NewVirtualClock()
	dir := t.TempDir()
	n, store := newDurableNJS(t, clock, dir, 0)

	// Hold before anything dispatches beyond the first actions.
	id, err := n.Consign(context.Background(), alice, "", durableStagedJob("held"))
	if err != nil {
		t.Fatalf("Consign: %v", err)
	}
	if err := n.Control(alice, false, id, ajo.OpHold); err != nil {
		t.Fatalf("Hold: %v", err)
	}
	clock.RunUntilIdle(0)

	n2, store2 := crashRestart(t, n, store, clock, dir, 0)
	defer store2.Close()
	clock.RunUntilIdle(0)

	poll, err := n2.Poll(alice, false, id)
	if err != nil || !poll.Found {
		t.Fatalf("Poll: %v", err)
	}
	if poll.Summary.Status.Terminal() {
		t.Fatalf("held job ran to %s across recovery", poll.Summary.Status)
	}
	if err := n2.Control(alice, false, id, ajo.OpResume); err != nil {
		t.Fatalf("Resume: %v", err)
	}
	clock.RunUntilIdle(0)
	o, _, _ := n2.Outcome(alice, false, id)
	if o.Status != ajo.StatusSuccessful {
		t.Fatalf("resumed job = %s", o.Status)
	}
}

func TestRecoverAbortedJobStaysAborted(t *testing.T) {
	clock := sim.NewVirtualClock()
	dir := t.TempDir()
	n, store := newDurableNJS(t, clock, dir, 0)

	id, err := n.Consign(context.Background(), alice, "", durableStagedJob("aborted"))
	if err != nil {
		t.Fatalf("Consign: %v", err)
	}
	clock.Advance(time.Minute)
	if err := n.Control(alice, false, id, ajo.OpAbort); err != nil {
		t.Fatalf("Abort: %v", err)
	}

	n2, store2 := crashRestart(t, n, store, clock, dir, 0)
	defer store2.Close()
	clock.RunUntilIdle(0)

	o, found, err := n2.Outcome(alice, false, id)
	if err != nil || !found {
		t.Fatalf("Outcome: %v found=%v", err, found)
	}
	if o.Status != ajo.StatusAborted {
		t.Fatalf("aborted job recovered as %s", o.Status)
	}
}

// TestRecoverPartialAbortFinishes covers a crash whose durable journal
// prefix ends right after an abort's KindControl entry but before the
// per-action cancellations: the job recovers aborted but non-terminal, and
// since dispatch refuses aborted jobs, ResumeRecovered must finish the abort
// or the job would stay non-terminal forever.
func TestRecoverPartialAbortFinishes(t *testing.T) {
	clock := sim.NewVirtualClock()
	store, err := journal.Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer store.Close()

	// Hand-write the torn prefix: admission, then only the abort control.
	raw, err := ajo.Marshal(durableStagedJob("torn-abort"))
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	store.Append(journal.Entry{Kind: journal.KindAdmit, Admit: &journal.Admission{
		Job: "FZJ-000001", Owner: string(alice), UID: "u_alice", Vsite: "CLUSTER", AJO: raw,
	}})
	store.Append(journal.Entry{Kind: journal.KindControl,
		Control: &journal.ControlEvent{Job: "FZJ-000001", Op: string(ajo.OpAbort)}})
	if err := store.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}

	n, err := recoverFrom(store, clock, 0)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	n.ResumeRecovered()
	clock.RunUntilIdle(0)

	o, found, err := n.Outcome(alice, false, "FZJ-000001")
	if err != nil || !found {
		t.Fatalf("Outcome: %v found=%v", err, found)
	}
	if o.Status != ajo.StatusAborted {
		t.Fatalf("partially aborted job recovered as %s, want ABORTED", o.Status)
	}
	for _, c := range o.Children {
		if !c.Status.Terminal() {
			t.Fatalf("action %s left non-terminal (%s) after resumed abort", c.Action, c.Status)
		}
	}
}

// TestReplayRenameIntoOwnSubtree: a journal can hold a move of a directory
// into its own subtree, which vfs.Rename refuses today. Recovery still
// succeeds and leaves the tree such a move left visible: the source gone,
// and its bytes no longer charged.
func TestReplayRenameIntoOwnSubtree(t *testing.T) {
	clock := sim.NewVirtualClock()
	store, err := journal.Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer store.Close()
	file := func(kind journal.Kind, p, to string, data []byte) {
		store.Append(journal.Entry{Kind: kind, File: &journal.FileMutation{Vsite: "T3E", Path: p, To: to, Data: data}})
	}
	file(journal.KindMkdir, "/a/sub", "", nil)
	file(journal.KindFileWrite, "/a/sub/f", "", []byte("hello"))
	file(journal.KindRename, "/a", "/a/x/b", nil)
	file(journal.KindFileWrite, "/after", "", []byte("ok"))
	if err := store.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}

	n, err := recoverFrom(store, clock, 0)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	fs := n.vsites["T3E"].Space.FS()
	if fs.Exists("/a") {
		t.Error("source of a move into its own subtree survived replay")
	}
	if !fs.Exists("/after") {
		t.Error("entries after the move were not replayed")
	}
	if used := fs.Used(); used != 2 {
		t.Errorf("Used() = %d after replay, want 2 (only /after)", used)
	}
}

func TestRecoverLocalSubJobTree(t *testing.T) {
	runOnce := func(crash bool) string {
		clock := sim.NewVirtualClock()
		dir := t.TempDir()
		n, store := newDurableNJS(t, clock, dir, 0)

		// Parent at CLUSTER with a sub-job at T3E (same Usite) feeding a
		// transfer — exercises child recovery and the parent/child links.
		sub := &ajo.AbstractJob{
			Header: ajo.Header{ActionID: "pre", ActionName: "pre"},
			Target: core.Target{Usite: "FZJ", Vsite: "T3E"},
			Actions: ajo.ActionList{
				script("prep", "cpu 5m\nwrite prepped.dat 1024\necho prepped\n"),
			},
		}
		parent := &ajo.AbstractJob{
			Header: ajo.Header{ActionID: "parent", ActionName: "parent"},
			Target: core.Target{Usite: "FZJ", Vsite: "CLUSTER"},
			Actions: ajo.ActionList{
				sub,
				&ajo.TransferTask{Header: ajo.Header{ActionID: "tr"}, FromAction: "pre", Files: []string{"prepped.dat"}},
				script("main", "cat prepped.dat > staged.tmp\ncpu 5m\necho main done\n"),
			},
			Dependencies: []ajo.Dependency{
				{Before: "pre", After: "tr"},
				{Before: "tr", After: "main"},
			},
		}
		id, err := n.Consign(context.Background(), alice, "", parent)
		if err != nil {
			t.Fatalf("Consign: %v", err)
		}
		clock.Advance(90 * time.Second) // sub-job in flight

		if crash {
			n, store = crashRestart(t, n, store, clock, dir, 0)
		}
		defer store.Close()
		clock.RunUntilIdle(0)

		o, found, err := n.Outcome(alice, false, id)
		if err != nil || !found {
			t.Fatalf("Outcome: %v found=%v", err, found)
		}
		return canonical(o)
	}

	base := runOnce(false)
	crashed := runOnce(true)
	if base != crashed {
		t.Fatalf("sub-job recovery diverged:\n--- uninterrupted ---\n%s--- recovered ---\n%s", base, crashed)
	}
	if !strings.Contains(base, "SUCCESSFUL") {
		t.Fatalf("sub-job workload failed:\n%s", base)
	}
}

// TestSubJobOutcomeTreeReplaysFromTheJournal: a finished sub-job's outcome
// tree rides its parent's ACTION_DONE record in the binary outcome form, and
// recovery rebuilds the children from it. The JSON tree an older build wrote
// there is a record this build cannot read: recovery stops and names the
// format, it does not fall back to the record's flat fields and come up with
// a childless sub-job.
func TestSubJobOutcomeTreeReplaysFromTheJournal(t *testing.T) {
	clock := sim.NewVirtualClock()
	dir := t.TempDir()
	n, store := newDurableNJS(t, clock, dir, 0)
	sub := &ajo.AbstractJob{
		Header:  ajo.Header{ActionID: "pre", ActionName: "pre"},
		Target:  core.Target{Usite: "FZJ", Vsite: "T3E"},
		Actions: ajo.ActionList{script("prep", "cpu 5m\necho prepped\n")},
	}
	parent := &ajo.AbstractJob{
		Header:       ajo.Header{ActionID: "parent", ActionName: "parent"},
		Target:       core.Target{Usite: "FZJ", Vsite: "CLUSTER"},
		Actions:      ajo.ActionList{sub, script("main", "cpu 5m\necho main done\n")},
		Dependencies: []ajo.Dependency{{Before: "pre", After: "main"}},
	}
	id, err := n.Consign(context.Background(), alice, "", parent)
	if err != nil {
		t.Fatalf("Consign: %v", err)
	}
	clock.RunUntilIdle(0)
	before, found, err := n.Outcome(alice, false, id)
	if err != nil || !found || before.Status != ajo.StatusSuccessful {
		t.Fatalf("Outcome before the crash: %+v found=%v %v", before, found, err)
	}
	pre, ok := before.Find("pre")
	if !ok || len(pre.Children) != 1 || string(pre.Children[0].Stdout) != "prepped\n" {
		t.Fatalf("sub-job outcome before the crash: %+v", pre)
	}

	n2, store2 := crashRestart(t, n, store, clock, dir, 0)
	after, found, err := n2.Outcome(alice, false, id)
	if err != nil || !found {
		t.Fatalf("Outcome after recovery: found=%v %v", found, err)
	}
	// Compared encoded: the recovered tree's timestamps are the same instants
	// in UTC.
	rawBefore, _ := ajo.MarshalOutcome(before)
	rawAfter, _ := ajo.MarshalOutcome(after)
	if !bytes.Equal(rawBefore, rawAfter) {
		t.Fatalf("outcome changed across recovery:\nbefore: %s\nafter:  %s", canonical(before), canonical(after))
	}

	// The same journal, its outcome trees rewritten as an older build wrote
	// them.
	old, err := journal.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	trees := 0
	err = store2.Replay(func(e journal.Entry) error {
		if e.Kind == journal.KindActionDone && len(e.Action.Tree) > 0 {
			tree, err := ajo.UnmarshalOutcome(e.Action.Tree)
			if err != nil {
				return err
			}
			ev := *e.Action
			if ev.Tree, err = json.Marshal(tree); err != nil {
				return err
			}
			e.Action = &ev
			trees++
		}
		old.Append(e)
		return nil
	})
	if err != nil || trees == 0 {
		t.Fatalf("rewriting the journal: %d trees, %v", trees, err)
	}
	n2.Kill()
	store2.Close()
	if err := old.Sync(); err != nil {
		t.Fatal(err)
	}
	_, err = recoverFrom(old, clock, 0)
	if !errors.Is(err, journal.ErrCorrupt) || !strings.Contains(err.Error(), "format tag 0x7b") {
		t.Fatalf("Recover over JSON outcome trees: %v, want ErrCorrupt naming the foreign format tag", err)
	}
}

// TestConsignAckIsDurable is the regression for acknowledging a consignment
// before its admission record is durable: the site dies immediately after the
// Consign call returns — no explicit SyncJournal, no store.Close flushing on
// its behalf — and the acknowledged job must still be recoverable and run to
// completion.
func TestConsignAckIsDurable(t *testing.T) {
	clock := sim.NewVirtualClock()
	dir := t.TempDir()
	n, store := newDurableNJS(t, clock, dir, 0)

	id, err := n.Consign(context.Background(), alice, "ack-1", durableStagedJob("acked"))
	if err != nil {
		t.Fatalf("Consign: %v", err)
	}
	// Crash right after the ack: the dead store is abandoned (never synced or
	// closed), so only what Consign itself made durable is on disk.
	n.Kill()
	defer store.Close()

	store2, err := journal.Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer store2.Close()
	n2, err := recoverFrom(store2, clock, 0)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	n2.ResumeRecovered()
	clock.RunUntilIdle(0)

	o, found, err := n2.Outcome(alice, false, id)
	if err != nil || !found {
		t.Fatalf("acknowledged job lost across crash: %v found=%v", err, found)
	}
	if o.Status != ajo.StatusSuccessful {
		t.Fatalf("recovered job = %s", o.Status)
	}
	// The idempotent consign index recovered with it.
	again, err := n2.Consign(context.Background(), alice, "ack-1", durableStagedJob("acked"))
	if err != nil || again != id {
		t.Fatalf("consign retry: id=%s err=%v, want %s", again, err, id)
	}
}

// BenchmarkConsignDurable drives concurrent consignments with journaling
// attached: the journal append is an enqueue on the batched flusher, so
// adding durability must not serialize the Consign hot path.
func BenchmarkConsignDurable(b *testing.B) {
	clock := sim.NewVirtualClock()
	n, store := newDurableNJS(b, clock, b.TempDir(), 0)
	defer store.Close()
	var seq atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := seq.Add(1)
			if _, err := n.Consign(context.Background(), alice, "", durableStagedJob(fmt.Sprintf("bench-%06d", i))); err != nil {
				b.Fatalf("Consign: %v", err)
			}
		}
	})
	b.StopTimer()
	if err := store.Sync(); err != nil {
		b.Fatalf("Sync: %v", err)
	}
}

// BenchmarkJournalRecover measures boot-time recovery: replaying a journal
// holding many completed jobs (plus their Uspace contents) into a fresh NJS.
func BenchmarkJournalRecover(b *testing.B) {
	clock := sim.NewVirtualClock()
	dir := b.TempDir()
	n, store := newDurableNJS(b, clock, dir, 0)
	const jobs = 50
	for i := 0; i < jobs; i++ {
		if _, err := n.Consign(context.Background(), alice, "", durableStagedJob(fmt.Sprintf("bench-%03d", i))); err != nil {
			b.Fatalf("Consign: %v", err)
		}
	}
	clock.RunUntilIdle(0)
	if err := store.Sync(); err != nil {
		b.Fatalf("Sync: %v", err)
	}
	n.Kill()
	if err := store.Close(); err != nil {
		b.Fatalf("Close: %v", err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store, err := journal.Open(dir)
		if err != nil {
			b.Fatalf("Open: %v", err)
		}
		rn, err := recoverFrom(store, clock, 0)
		if err != nil {
			b.Fatalf("Recover: %v", err)
		}
		rn.Kill()
		store.Close()
	}
}

// frameEnds parses a journal image into the end offset of each record (the
// frame is a 4-byte little-endian payload length, an 8-byte checksum, the
// payload).
func frameEnds(t *testing.T, wal []byte) []int {
	t.Helper()
	var ends []int
	for off := 0; off < len(wal); {
		if off+12 > len(wal) {
			t.Fatalf("journal image ends inside a frame header at %d", off)
		}
		off += 12 + int(binary.LittleEndian.Uint32(wal[off:]))
		ends = append(ends, off)
	}
	return ends
}

// TestTornWriteSweepOverLastRecords crashes a site at every byte of its
// journal's tail. The journal holds one finished job and, last, one durable
// consign — exactly its three records — and is cut at every offset inside the
// last eight records (the consign's three and the finished job's final five).
// Every cut must recover, and leave each job whole or gone:
//
//   - the finished job is always there and runs (again) to SUCCESSFUL;
//   - the consigned job is there iff its ADMIT record survived whole, and
//     then runs to SUCCESSFUL; otherwise no trace of it is left — no
//     directory, no listing, no event, no consign-index entry;
//   - retrying the consign under its ID converges on one job, and the
//     journal afterwards holds exactly one admission per consign ID;
//   - every job's event sequence is contiguous and opens with one admission.
func TestTornWriteSweepOverLastRecords(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	clock := sim.NewVirtualClock()
	n, store := newDurableNJS(t, clock, dir, 0)
	finished, err := n.Consign(ctx, alice, "finished-1", durableStagedJob("finished"))
	if err != nil {
		t.Fatalf("Consign: %v", err)
	}
	clock.RunUntilIdle(0)
	acked, err := n.Consign(ctx, alice, "acked-1", durableStagedJob("acked"))
	if err != nil {
		t.Fatalf("Consign: %v", err)
	}
	n.Kill() // the ack is out; nothing after it reaches the journal
	var kinds []journal.Kind
	if err := store.Replay(func(e journal.Entry) error { kinds = append(kinds, e.Kind); return nil }); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if err := store.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wal, err := os.ReadFile(filepath.Join(dir, "journal-00000000.wal"))
	if err != nil {
		t.Fatal(err)
	}
	ends := frameEnds(t, wal)
	if len(ends) != len(kinds) || len(ends) < 9 {
		t.Fatalf("journal image has %d frames, replay saw %d entries", len(ends), len(kinds))
	}
	consign := []journal.Kind{journal.KindMkdir, journal.KindAdmit, journal.KindFileWrite}
	if got := kinds[len(kinds)-3:]; !reflect.DeepEqual(got, consign) {
		t.Fatalf("a durable consign wrote %v, want its three records %v", got, consign)
	}
	admitEnd := ends[len(ends)-2]

	for cut := ends[len(ends)-9]; cut <= len(wal); cut++ {
		cutDir := t.TempDir()
		if err := os.WriteFile(filepath.Join(cutDir, "journal-00000000.wal"), wal[:cut], 0o600); err != nil {
			t.Fatal(err)
		}
		func() {
			fail := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("cut at %d of %d: %s", cut, len(wal), fmt.Sprintf(format, args...))
			}
			store, err := journal.Open(cutDir)
			if err != nil {
				fail("Open: %v", err)
			}
			defer store.Close()
			clock := sim.NewVirtualClock()
			n, err := recoverFrom(store, clock, 0)
			if err != nil {
				fail("Recover: %v", err)
			}
			defer n.Kill()
			n.ResumeRecovered()
			clock.RunUntilIdle(0)

			_, present, err := n.Outcome(alice, false, acked)
			if err != nil {
				fail("Outcome(%s): %v", acked, err)
			}
			if present != (cut >= admitEnd) {
				fail("consigned job present=%v, but its ADMIT record ends at %d", present, admitEnd)
			}
			if !present {
				fs := n.vsites["CLUSTER"].Space.FS()
				if p := n.vsites["CLUSTER"].Space.JobDir(acked); fs.Exists(p) {
					fail("absent job %s left its directory %s behind", acked, p)
				}
				if rep, err := n.Events(alice, false, protocol.SubscribeRequest{}); err != nil {
					fail("Events: %v", err)
				} else {
					for _, ev := range rep.Events {
						if ev.Job == acked {
							fail("absent job %s left event %+v behind", acked, ev)
						}
					}
				}
				if jobs, err := n.List(alice); err != nil || len(jobs) != 1 {
					fail("List with the consign lost: %d jobs, %v", len(jobs), err)
				}
			}

			// The client never saw (or lost) the ack and retries.
			again, err := n.Consign(ctx, alice, "acked-1", durableStagedJob("acked"))
			if err != nil {
				fail("consign retry: %v", err)
			}
			if present && again != acked {
				fail("consign retry admitted %s beside the recovered %s", again, acked)
			}
			clock.RunUntilIdle(0)
			for _, id := range []core.JobID{finished, again} {
				o, found, err := n.Outcome(alice, false, id)
				if err != nil || !found {
					fail("Outcome(%s): found=%v err=%v", id, found, err)
				}
				if o.Status != ajo.StatusSuccessful {
					fail("job %s ended %s:\n%s", id, o.Status, canonical(o))
				}
				rep, err := n.Events(alice, false, protocol.SubscribeRequest{Job: id})
				if err != nil {
					fail("Events(%s): %v", id, err)
				}
				admitted := 0
				for i, ev := range rep.Events {
					if ev.Seq != uint64(i+1) {
						fail("job %s: event %d has seq %d", id, i, ev.Seq)
					}
					if ev.Type == events.TypeAdmitted {
						admitted++
					}
				}
				if admitted != 1 {
					fail("job %s: %d admission events", id, admitted)
				}
			}
			if jobs, err := n.List(alice); err != nil || len(jobs) != 2 {
				fail("List: %d jobs, %v", len(jobs), err)
			}
			if err := store.Sync(); err != nil {
				fail("Sync: %v", err)
			}
			admits := map[string]int{}
			err = store.Replay(func(e journal.Entry) error {
				if e.Kind == journal.KindAdmit {
					admits[e.Admit.ConsignID]++
				}
				return nil
			})
			if err != nil {
				fail("Replay: %v", err)
			}
			if admits["finished-1"] != 1 || admits["acked-1"] != 1 || len(admits) != 2 {
				fail("admissions per consign ID: %v", admits)
			}
		}()
	}
}

// stampedKinds are the records whose transition raises an event.
var stampedKinds = map[journal.Kind]bool{
	journal.KindAdmit: true, journal.KindActionStart: true, journal.KindActionDone: true,
	journal.KindControl: true, journal.KindRootDone: true,
}

// jobEvents returns a job's retained events with their times in the form a
// replayed record yields (UTC, no monotonic reading), for comparison.
func jobEvents(n *NJS, id core.JobID) []events.Event {
	evs, _ := n.log.JobEvents(id, 0, 0)
	out := make([]events.Event, len(evs))
	for i, ev := range evs {
		ev.Time = ev.Time.Round(0).UTC()
		out[i] = ev
	}
	return out
}

// recoverCut writes files into a fresh state directory and recovers an NJS
// from it without resuming, so its event log holds only what was replayed.
func recoverCut(t *testing.T, files map[string][]byte) *NJS {
	t.Helper()
	dir := t.TempDir()
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	store, err := journal.Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { store.Close() })
	n, err := recoverFrom(store, sim.NewVirtualClock(), 0)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	t.Cleanup(n.Kill)
	return n
}

// checkEventPrefix holds a recovered job's events against the uncut run's:
// the first want of them, equal in every field.
func checkEventPrefix(t *testing.T, where string, got, uncut []events.Event, want int) {
	t.Helper()
	if len(got) != want {
		t.Fatalf("%s: recovered %d events, want the uncut run's first %d", where, len(got), want)
	}
	for i := range got {
		if got[i] != uncut[i] {
			t.Fatalf("%s: event %d recovered as %+v, the uncut run raised %+v", where, i, got[i], uncut[i])
		}
	}
}

// TestEventsSurviveEveryRecordBoundary crashes one durable three-action job,
// held and resumed once, at every record boundary of its journal. An event
// rides the record of its transition, so recovery yields a prefix of the
// uncut run's events — same numbers, type, status and time — exactly as long
// as the stamped state records that were replayed.
func TestEventsSurviveEveryRecordBoundary(t *testing.T) {
	dir := t.TempDir()
	clock := sim.NewVirtualClock()
	n, store := newDurableNJS(t, clock, dir, 0)
	id, err := n.Consign(context.Background(), alice, "every-boundary", durableStagedJob("boundary"))
	if err != nil {
		t.Fatalf("Consign: %v", err)
	}
	for _, op := range []ajo.ControlOp{ajo.OpHold, ajo.OpResume} {
		if err := n.Control(alice, false, id, op); err != nil {
			t.Fatalf("Control(%s): %v", op, err)
		}
	}
	clock.RunUntilIdle(0)
	uncut := jobEvents(n, id)
	if len(uncut) != 9 {
		t.Fatalf("uncut run raised %d events, want 9", len(uncut))
	}
	var kinds []journal.Kind
	if err := store.Sync(); err != nil {
		t.Fatal(err)
	}
	n.Kill()
	if err := store.Replay(func(e journal.Entry) error { kinds = append(kinds, e.Kind); return nil }); err != nil {
		t.Fatal(err)
	}
	store.Close()
	wal, err := os.ReadFile(filepath.Join(dir, "journal-00000000.wal"))
	if err != nil {
		t.Fatal(err)
	}
	ends := append([]int{0}, frameEnds(t, wal)...)
	stamped := 0
	for i, end := range ends {
		if i > 0 && stampedKinds[kinds[i-1]] {
			stamped++
		}
		rn := recoverCut(t, map[string][]byte{"journal-00000000.wal": wal[:end]})
		checkEventPrefix(t, fmt.Sprintf("cut after record %d of %d", i, len(kinds)), jobEvents(rn, id), uncut, stamped)
	}
	if stamped != len(uncut) {
		t.Fatalf("the journal holds %d stamped records for %d events", stamped, len(uncut))
	}
}

// TestEventsSurviveEveryRecordBoundaryAfterCompact is the same sweep over the
// tail of a compacted journal whose snapshot overlaps it: transitions run
// between the rotation and the capture, so their records are in the tail and
// their events in the snapshot's window too. Recovery at every tail boundary
// yields the uncut run's first max(window, rotated + stamped tail records)
// events.
func TestEventsSurviveEveryRecordBoundaryAfterCompact(t *testing.T) {
	dir := t.TempDir()
	clock := sim.NewVirtualClock()
	n, store := newDurableNJS(t, clock, dir, 0)
	id, err := n.Consign(context.Background(), alice, "after-compact", durableStagedJob("compact"))
	if err != nil {
		t.Fatalf("Consign: %v", err)
	}
	clock.RunUntilIdle(1)
	var rotated, window int
	err = store.Compact(func(emit func(journal.Entry) error) error {
		rotated = len(jobEvents(n, id))
		clock.RunUntilIdle(2)
		window = len(jobEvents(n, id))
		return n.emitSnapshot(emit)
	})
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if window <= rotated {
		t.Fatalf("no transition ran between rotation and capture (%d events at both)", window)
	}
	clock.RunUntilIdle(0)
	uncut := jobEvents(n, id)
	if len(uncut) <= window {
		t.Fatalf("no transition ran after the capture (%d events)", len(uncut))
	}
	if err := store.Sync(); err != nil {
		t.Fatal(err)
	}
	n.Kill()
	store.Close()
	snap, err := os.ReadFile(filepath.Join(dir, "snapshot-00000001.snap"))
	if err != nil {
		t.Fatal(err)
	}
	wal, err := os.ReadFile(filepath.Join(dir, "journal-00000001.wal"))
	if err != nil {
		t.Fatal(err)
	}
	tail := recoverCut(t, map[string][]byte{"journal-00000000.wal": wal}) // the tail alone: no ADMIT, so no job
	if evs := jobEvents(tail, id); len(evs) != 0 {
		t.Fatalf("the tail alone restored %d events of a job it never admitted", len(evs))
	}
	var kinds []journal.Kind
	err = tail.Journal().Replay(func(e journal.Entry) error { kinds = append(kinds, e.Kind); return nil })
	if err != nil {
		t.Fatal(err)
	}
	ends := append([]int{0}, frameEnds(t, wal)...)
	stamped := 0
	for i, end := range ends {
		if i > 0 && stampedKinds[kinds[i-1]] {
			stamped++
		}
		rn := recoverCut(t, map[string][]byte{"snapshot-00000001.snap": snap, "journal-00000001.wal": wal[:end]})
		checkEventPrefix(t, fmt.Sprintf("tail cut after record %d of %d", i, len(kinds)), jobEvents(rn, id), uncut, max(window, rotated+stamped))
	}
	if rotated+stamped != len(uncut) {
		t.Fatalf("%d events before the rotation and %d stamped tail records, for %d events", rotated, stamped, len(uncut))
	}
}

// TestRecoverRefusesParentFormat replays a journal and a snapshot written by
// the build before format 0x02, when events were records of their own. Each
// checksums, so neither is a torn tail; each must stop recovery with an
// ErrCorrupt that names both formats, not replay as empty or without its
// events.
func TestRecoverRefusesParentFormat(t *testing.T) {
	for _, tc := range []struct{ fixture, name string }{
		{"format01.wal", "journal-00000000.wal"},
		{"format01.snap", "snapshot-00000001.snap"},
	} {
		data, err := os.ReadFile(filepath.Join("..", "journal", "testdata", tc.fixture))
		if err != nil {
			t.Fatal(err)
		}
		if ends := frameEnds(t, data); len(ends) < 5 || ends[len(ends)-1] != len(data) {
			t.Fatalf("%s: %d bytes are not whole records", tc.fixture, len(data))
		}
		dir := t.TempDir()
		path := filepath.Join(dir, tc.name)
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		store, err := journal.Open(dir)
		if err != nil {
			t.Fatalf("%s: Open: %v", tc.fixture, err)
		}
		n, err := recoverFrom(store, sim.NewVirtualClock(), 0)
		if err == nil {
			n.Kill()
		}
		store.Close()
		if !errors.Is(err, journal.ErrCorrupt) || !strings.Contains(err.Error(), "0x01") || !strings.Contains(err.Error(), "0x02") {
			t.Fatalf("%s: Recover = %v, want ErrCorrupt naming formats 0x01 and 0x02", tc.fixture, err)
		}
		if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, data) {
			t.Fatalf("%s: the file changed on Open and Recover (%d of %d bytes left, %v)", tc.fixture, len(after), len(data), err)
		}
	}
}
