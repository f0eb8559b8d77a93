package main

import (
	"bytes"
	"fmt"
	"hash/crc64"
	"math/rand"
	"time"

	"unicore"
	"unicore/internal/journal"
	"unicore/internal/protocol"
	"unicore/internal/staging"
)

// workload is one of the five traffic mixes. k and warm are the timed and
// warm-up operation counts of one round, shared between the two clients.
type workload struct {
	name    string
	why     string
	durable bool // the NJS journals to the state directory
	k, warm int
	// prepare preloads the fresh site (untimed).
	prepare func(r *round) error
	// op runs operation i for client u and checks its reply; an error makes
	// the operation failed.
	op func(r *round, u *user, i int) error
	// verify checks what only the whole round can show (untimed). total is
	// the number of operations the round ran, warm-up included.
	verify func(r *round, total int) error
}

// The round sizes are fixed: both sides of a comparison do identical work
// per timed section. They were chosen so one round lasts about a second on
// the reference machine (2-core Xeon 2.1 GHz), which keeps retained state
// small and gives the per-round medians enough rounds to work with.
var workloads = []*workload{
	{
		name:    "consign_durable",
		why:     "control-plane write path: build a 3-action job, consign it over the v3 stream, wait for the durable ack; ajo, protocol, njs admission and journal do the work, staging and events none",
		durable: true, k: 2400, warm: 200,
		op: consignOp, verify: consignVerify,
	},
	{
		name:    "job_cycle",
		why:     "whole job lifecycle a user waits on: submit, run on the virtual clock, await pushed events, fetch outcome; njs scheduling, incarnation, codine, events dominate",
		durable: true, k: 600, warm: 50,
		op: cycleOp, verify: cycleVerify,
	},
	{
		name: "monitor_mix",
		why:  "control-plane read path: sweeps of 10 status + 3 events (frames) + 2 list + 1 outcome (signed envelopes) over finished jobs; gateway dispatch and pki verify dominate, journal idle",
		k:    500, warm: 25,
		prepare: monitorPrepare, op: monitorOp,
	},
	{
		name: "stage_upload",
		why:  "data-plane write path: 16 MiB staged upload in 1 MiB chunk frames; client chunking, frame mux, spool and vfs writes, control plane idle",
		k:    12, warm: 2,
		prepare: uploadPrepare, op: uploadOp, verify: uploadVerify,
	},
	{
		name: "stage_download",
		why:  "data-plane read path: 16 MiB windowed download into a CRC sink; vfs ranged reads, CRC and the stream read side, the guard for upload-side changes",
		k:    24, warm: 4,
		prepare: downloadPrepare, op: downloadOp,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

var target = unicore.Target{Usite: benchUsite, Vsite: benchVsite}

const (
	stepOutput = "done\n"
	fileSize   = 16 << 20
)

var crcTable = crc64.MakeTable(crc64.ECMA)

// opRand is the deterministic random source of one operation: inputs depend
// on the seed and the operation's index, never on which client claimed it.
func opRand(r *round, i int) *rand.Rand {
	return rand.New(rand.NewSource(r.seed*1_000_033 + int64(i)))
}

// threeStepJob is the small job of the two consign workloads: a 256-byte
// inline import, a script over it, and an export of the result (about 1.2 KB
// of AJO).
func threeStepJob(r *round, i int) (*unicore.AbstractJob, error) {
	payload := make([]byte, 256)
	opRand(r, i).Read(payload)
	name := fmt.Sprintf("job-%x-%06d", uint64(r.seed)&0xffffff, i)
	b := unicore.NewJob(name, target)
	in := b.ImportBytes("stage-in", payload, "input.dat")
	run := b.Script("run", "cat input.dat > out.dat\necho done\n", unicore.ResourceRequest{Processors: 1, RunTime: time.Minute})
	out := b.Export("stage-out", "out.dat", "results/"+name+".dat")
	b.Chain(in, run, out)
	return b.Build()
}

// --- consign_durable ---------------------------------------------------------

func consignOp(r *round, u *user, i int) error {
	var id unicore.JobID
	err := u.call("Submit", func() error {
		job, err := threeStepJob(r, i)
		if err != nil {
			return err
		}
		id, err = u.sess.Submit(r.ctx, job)
		return err
	})
	if err != nil {
		return err
	}
	if id == "" {
		return fmt.Errorf("empty job id")
	}
	r.acked[u.idx] = append(r.acked[u.idx], string(id))
	return nil
}

// consignVerify checks the round as a whole: every ack named a distinct job,
// every user lists exactly the jobs acked to them, and (first round) the
// journal replays exactly one admission per ack.
func consignVerify(r *round, total int) error {
	seen := map[string]bool{}
	for c, ids := range r.acked {
		for _, id := range ids {
			if seen[id] {
				return fmt.Errorf("job id %s acknowledged twice", id)
			}
			seen[id] = true
		}
		jobs, err := r.site.users[c].sess.List(r.ctx)
		if err != nil {
			return fmt.Errorf("list: %w", err)
		}
		if len(jobs) != len(ids) {
			return fmt.Errorf("client %d lists %d jobs, %d were acknowledged", c, len(jobs), len(ids))
		}
	}
	if len(seen) != total {
		return fmt.Errorf("%d distinct acks for %d operations", len(seen), total)
	}
	if r.n > 0 {
		// Replaying a round's journal takes as long as the round itself
		// (a fresh gob decoder per record), so the replay check runs on the
		// first round of a run; acks, ids and listings are checked on all.
		return nil
	}
	if err := r.site.store.Sync(); err != nil {
		return fmt.Errorf("journal sync: %w", err)
	}
	admits := 0
	err := r.site.store.Replay(func(e journal.Entry) error {
		if e.Kind == journal.KindAdmit && e.Admit != nil {
			if !seen[e.Admit.Job] {
				return fmt.Errorf("journal admits %s, which was never acknowledged", e.Admit.Job)
			}
			admits++
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("journal replay: %w", err)
	}
	if admits != total {
		return fmt.Errorf("journal holds %d admissions for %d acks", admits, total)
	}
	return nil
}

// --- job_cycle ---------------------------------------------------------------

func cycleOp(r *round, u *user, i int) error {
	var id unicore.JobID
	err := u.call("Submit", func() error {
		job, err := threeStepJob(r, i)
		if err != nil {
			return err
		}
		id, err = u.sess.Submit(r.ctx, job)
		return err
	})
	if err != nil {
		return err
	}
	// The batch system runs on virtual time: running the job costs the
	// events it fires, not the minutes it simulates.
	r.site.runMu.Lock()
	r.site.d.Run(1_000_000)
	r.site.runMu.Unlock()

	var sum unicore.Summary
	if err := u.call("Await", func() (err error) { sum, err = u.sess.Await(r.ctx, id); return }); err != nil {
		return err
	}
	if sum.Status != unicore.StatusSuccessful {
		return fmt.Errorf("job %s finished %s", id, sum.Status)
	}
	var out *unicore.Outcome
	if err := u.call("Outcome", func() (err error) { out, err = u.sess.Outcome(r.ctx, id); return }); err != nil {
		return err
	}
	if out.Status != unicore.StatusSuccessful || len(out.Children) != 3 {
		return fmt.Errorf("job %s outcome is %s with %d children", id, out.Status, len(out.Children))
	}
	for _, c := range out.Children {
		if c.Status != unicore.StatusSuccessful {
			return fmt.Errorf("job %s action %s is %s", id, c.Action, c.Status)
		}
	}
	if got := string(out.Children[1].Stdout); got != stepOutput {
		return fmt.Errorf("job %s printed %q, want %q", id, got, stepOutput)
	}
	r.acked[u.idx] = append(r.acked[u.idx], string(id))
	return nil
}

// cycleVerify reads every job's event stream back and checks that its
// sequence numbers are contiguous from 1 and end in the terminal event.
func cycleVerify(r *round, total int) error {
	n := 0
	for c, ids := range r.acked {
		dn := r.site.users[c].cred.DN()
		for _, id := range ids {
			n++
			rep, err := r.site.ts.NJS.Events(dn, false, protocol.SubscribeRequest{Job: unicore.JobID(id), Max: 1024})
			if err != nil {
				return fmt.Errorf("events of %s: %w", id, err)
			}
			for j, ev := range rep.Events {
				if ev.Seq != uint64(j+1) {
					return fmt.Errorf("job %s event %d has seq %d", id, j, ev.Seq)
				}
			}
			if len(rep.Events) == 0 || !rep.Events[len(rep.Events)-1].Terminal {
				return fmt.Errorf("job %s event stream does not end in a terminal event", id)
			}
		}
	}
	if n != total {
		return fmt.Errorf("%d jobs completed for %d operations", n, total)
	}
	return nil
}

// --- monitor_mix -------------------------------------------------------------

const (
	monitorJobsPerUser = 32
	monitorSteps       = 8
)

// monitorTruth is what every reply of the sweep must equal, read from the
// NJS directly after the preload.
type monitorTruth struct {
	ids     [clients][]unicore.JobID
	status  map[unicore.JobID]unicore.Summary
	events  map[unicore.JobID][]unicore.JobEvent
	outcome map[unicore.JobID]*unicore.Outcome
	list    [clients][]protocol.JobInfo
}

func monitorPrepare(r *round) error {
	mt := &monitorTruth{
		status:  map[unicore.JobID]unicore.Summary{},
		events:  map[unicore.JobID][]unicore.JobEvent{},
		outcome: map[unicore.JobID]*unicore.Outcome{},
	}
	for _, u := range r.site.users {
		for j := 0; j < monitorJobsPerUser; j++ {
			b := unicore.NewJob(fmt.Sprintf("done-%d-%02d", u.idx, j), target)
			var steps []unicore.ActionID
			for s := 0; s < monitorSteps; s++ {
				steps = append(steps, b.Script(fmt.Sprintf("step-%d", s), "cpu 1m\necho step\n",
					unicore.ResourceRequest{Processors: 1, RunTime: time.Hour}))
			}
			b.Chain(steps...)
			job, err := b.Build()
			if err != nil {
				return err
			}
			id, err := u.sess.Submit(r.ctx, job)
			if err != nil {
				return err
			}
			mt.ids[u.idx] = append(mt.ids[u.idx], id)
		}
	}
	r.site.d.Run(10_000_000)
	n := r.site.ts.NJS
	for _, u := range r.site.users {
		dn := u.cred.DN()
		for _, id := range mt.ids[u.idx] {
			poll, err := n.Poll(dn, false, id)
			if err != nil || !poll.Found || poll.Summary.Status != unicore.StatusSuccessful {
				return fmt.Errorf("preloaded job %s is not finished: %+v %v", id, poll, err)
			}
			mt.status[id] = poll.Summary
			evs, err := n.Events(dn, false, protocol.SubscribeRequest{Job: id})
			if err != nil {
				return err
			}
			mt.events[id] = evs.Events
			out, found, err := n.Outcome(dn, false, id)
			if err != nil || !found {
				return fmt.Errorf("outcome of preloaded job %s: found=%v %v", id, found, err)
			}
			mt.outcome[id] = out
		}
		list, err := n.List(dn)
		if err != nil {
			return err
		}
		mt.list[u.idx] = list
	}
	r.data = mt
	return nil
}

// The sweep: 16 requests, as a monitoring display would issue them.
const (
	reqStatus = iota
	reqEvents
	reqList
	reqOutcome
)

var sweepMix = [16]int{
	reqStatus, reqStatus, reqStatus, reqStatus, reqStatus, reqStatus, reqStatus, reqStatus, reqStatus, reqStatus,
	reqEvents, reqEvents, reqEvents, reqList, reqList, reqOutcome,
}

func monitorOp(r *round, u *user, i int) error {
	mt := r.data.(*monitorTruth)
	rng := opRand(r, i)
	order := sweepMix
	rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
	for _, kind := range order {
		id := mt.ids[u.idx][rng.Intn(monitorJobsPerUser)]
		var err error
		switch kind {
		case reqStatus:
			var got unicore.Summary
			err = u.call("Status", func() (err error) { got, err = u.sess.Status(r.ctx, id); return })
			if want := mt.status[id]; err == nil && (got.Status != want.Status || got.Total != want.Total ||
				got.Done != want.Done || got.Failed != want.Failed || !got.Updated.Equal(want.Updated)) {
				err = fmt.Errorf("status of %s is %+v, want %+v", id, got, want)
			}
		case reqEvents:
			var got protocol.EventsReply
			err = u.call("Events", func() (err error) {
				got, err = u.sess.Events(r.ctx, protocol.SubscribeRequest{Job: id})
				return
			})
			if err == nil {
				err = sameEvents(got.Events, mt.events[id])
			}
		case reqList:
			var got []protocol.JobInfo
			err = u.call("List", func() (err error) { got, err = u.sess.List(r.ctx); return })
			if err == nil {
				err = sameList(got, mt.list[u.idx])
			}
		case reqOutcome:
			var got *unicore.Outcome
			err = u.call("Outcome", func() (err error) { got, err = u.sess.Outcome(r.ctx, id); return })
			if err == nil {
				err = sameOutcome(got, mt.outcome[id])
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func sameEvents(got, want []unicore.JobEvent) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d events, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Job != w.Job || g.Seq != w.Seq || g.Type != w.Type || g.Action != w.Action ||
			g.Status != w.Status || g.Terminal != w.Terminal || !g.Time.Equal(w.Time) {
			return fmt.Errorf("event %d of %s is %+v, want %+v", i, w.Job, g, w)
		}
	}
	return nil
}

func sameList(got, want []protocol.JobInfo) error {
	if len(got) != len(want) {
		return fmt.Errorf("list has %d jobs, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Job != w.Job || g.Name != w.Name || g.Status != w.Status || !g.Submitted.Equal(w.Submitted) {
			return fmt.Errorf("list row %d is %+v, want %+v", i, g, w)
		}
	}
	return nil
}

func sameOutcome(got, want *unicore.Outcome) error {
	if got.Action != want.Action || got.Kind != want.Kind || got.Status != want.Status ||
		got.ExitCode != want.ExitCode || !bytes.Equal(got.Stdout, want.Stdout) ||
		!got.Finished.Equal(want.Finished) || len(got.Children) != len(want.Children) {
		return fmt.Errorf("outcome of %s differs from the preloaded one", want.Action)
	}
	for i := range got.Children {
		if err := sameOutcome(got.Children[i], want.Children[i]); err != nil {
			return err
		}
	}
	return nil
}

// --- stage_upload ------------------------------------------------------------

// blob is one incompressible file and its checksum.
type blob struct {
	data []byte
	crc  uint64
}

func newBlob(seed int64) blob {
	data := make([]byte, fileSize)
	rand.New(rand.NewSource(seed)).Read(data)
	return blob{data: data, crc: crc64.Checksum(data, crcTable)}
}

// uploadPrepare makes one source file per client. Every upload of a client
// in this round sends the same bytes; the server neither caches nor
// deduplicates uploads, and hashing a fresh 16 MiB per operation would put
// the harness's own work inside the timed section.
func uploadPrepare(r *round) error {
	var files [clients]blob
	for c := range files {
		files[c] = newBlob(r.seed*7 + int64(c))
	}
	r.data = &files
	return nil
}

func uploadOp(r *round, u *user, i int) error {
	src := r.data.(*[clients]blob)[u.idx]
	var handle string
	var commit protocol.PutCommitReply
	// Session.Upload is staging.Upload with the session as its Putter; the
	// direct call also returns the commit reply, which the check needs.
	err := u.call("Upload", func() (err error) {
		handle, commit, err = staging.Upload(r.ctx, u.sess, benchVsite, fmt.Sprintf("in-%06d.dat", i),
			bytes.NewReader(src.data), u.sess.Transfer)
		return
	})
	if err != nil {
		return err
	}
	if commit.Size != fileSize || commit.CRC != src.crc {
		return fmt.Errorf("upload %s committed %d bytes crc %#x, sent %d bytes crc %#x", handle, commit.Size, commit.CRC, fileSize, src.crc)
	}
	r.acked[u.idx] = append(r.acked[u.idx], handle)
	return nil
}

func uploadVerify(r *round, total int) error {
	held := map[string]bool{}
	for _, h := range r.site.ts.NJS.StagedHandles() {
		held[h] = true
	}
	n := 0
	for _, hs := range r.acked {
		for _, h := range hs {
			if !held[h] {
				return fmt.Errorf("committed handle %s is not in the spool", h)
			}
			n++
		}
	}
	if n != total {
		return fmt.Errorf("%d handles committed for %d operations", n, total)
	}
	return nil
}

// --- stage_download ----------------------------------------------------------

const downloadFilesPerUser = 2 // four preloaded files in all

type downloadSet struct {
	job   [clients]unicore.JobID
	files [clients][downloadFilesPerUser]blob
}

// downloadPrepare gives each client a finished job whose Uspace holds two
// 16 MiB result files (fetches are owner-authorised, so each client reads
// its own).
func downloadPrepare(r *round) error {
	ds := &downloadSet{}
	for _, u := range r.site.users {
		b := unicore.NewJob(fmt.Sprintf("results-%d", u.idx), target)
		b.Script("produce", "echo produced\n", unicore.ResourceRequest{Processors: 1, RunTime: time.Minute})
		job, err := b.Build()
		if err != nil {
			return err
		}
		id, err := u.sess.Submit(r.ctx, job)
		if err != nil {
			return err
		}
		ds.job[u.idx] = id
	}
	r.site.d.Run(1_000_000)
	vs, _ := r.site.ts.NJS.Vsite(benchVsite)
	for _, u := range r.site.users {
		for f := 0; f < downloadFilesPerUser; f++ {
			bl := newBlob(r.seed*13 + int64(u.idx*downloadFilesPerUser+f))
			if err := vs.Space.WriteJobFile(ds.job[u.idx], downloadName(f), bl.data); err != nil {
				return err
			}
			ds.files[u.idx][f] = bl
		}
	}
	r.data = ds
	return nil
}

func downloadName(f int) string { return fmt.Sprintf("result-%d.dat", f) }

// crcSink is where downloads go: it checksums and counts, and keeps nothing.
type crcSink struct {
	crc uint64
	n   int64
}

func (s *crcSink) Write(p []byte) (int, error) {
	s.crc = crc64.Update(s.crc, crcTable, p)
	s.n += int64(len(p))
	return len(p), nil
}

func downloadOp(r *round, u *user, i int) error {
	ds := r.data.(*downloadSet)
	f := opRand(r, i).Intn(downloadFilesPerUser)
	want := ds.files[u.idx][f]
	var sink crcSink
	err := u.call("Download", func() error {
		_, err := u.sess.Download(r.ctx, ds.job[u.idx], downloadName(f), &sink)
		return err
	})
	if err != nil {
		return err
	}
	if sink.n != fileSize || sink.crc != want.crc {
		return fmt.Errorf("download of %s gave %d bytes crc %#x, want %d bytes crc %#x", downloadName(f), sink.n, sink.crc, fileSize, want.crc)
	}
	return nil
}
