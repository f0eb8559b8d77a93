// The benchmark harness regenerates every figure and evaluated claim of the
// paper (see DESIGN.md §4 for the experiment index and EXPERIMENTS.md for
// recorded results):
//
//	E1 BenchmarkFig1_SingleSiteJobFlow       — Figure 1, one Usite end to end
//	E2 BenchmarkFig2_MultiSiteDistribution   — Figure 2, N-site job groups
//	E3 BenchmarkFig3_AJORoundTrip            — Figure 3, AJO codec round trips
//	E4 BenchmarkSec57_GermanTestbed          — §5.7 six-site mixed workload
//	E5 BenchmarkSec56_TransferHTTPSvsLocal   — §5.6 transfer-rate disadvantage
//	E6 BenchmarkSec53_AsyncVsSyncRobustness  — §5.3 protocol robustness claim
//	E7 BenchmarkSec55_UnicoreOverhead        — §5.5 minimal-interference claim
//	E8 BenchmarkSec6_BrokerExtension         — §6 resource-broker outlook
//	   BenchmarkAblation_Backfill            — batch-scheduler design choice
//	   BenchmarkAblation_FirewallSplit       — §5.2 deployment choice
//	   BenchmarkFederatedConsign             — §6 multi-gateway outlook
//
// Batch execution is simulated on a virtual clock, so the *virtual* metrics
// (vms/op, vmin/run, ...) carry the paper-facing shapes while ns/op measures
// the middleware's real processing cost. These report and gate nothing: the
// gated figures are `go run ./bench`'s (BENCHMARK.json), held by
// tools/benchgate against BENCH_HISTORY.jsonl.
package unicore_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"unicore"
	"unicore/internal/accounting"
	"unicore/internal/ajo"
	"unicore/internal/codine"
	"unicore/internal/machine"
	"unicore/internal/njs"
	"unicore/internal/protocol"
	"unicore/internal/resources"
	"unicore/internal/sim"
	"unicore/internal/testbed"
	"unicore/internal/vfs"
)

// mustDeploy builds a deployment or aborts the benchmark.
func mustDeploy(b *testing.B, specs ...testbed.SiteSpec) *testbed.Deployment {
	b.Helper()
	d, err := testbed.New(specs...)
	if err != nil {
		b.Fatalf("deploy: %v", err)
	}
	b.Cleanup(d.Close)
	return d
}

func mustUser(b *testing.B, d *testbed.Deployment, uid string) *unicore.Credential {
	b.Helper()
	cred, err := d.NewUser("Bench User "+uid, "Bench", uid)
	if err != nil {
		b.Fatalf("user: %v", err)
	}
	return cred
}

// runJob submits a built job, drives the clock to idle, and returns the
// root outcome (failing the benchmark on any non-success).
func runJob(b *testing.B, d *testbed.Deployment, user *unicore.Credential, job *unicore.AbstractJob) *unicore.Outcome {
	b.Helper()
	id, err := d.JPA(user).Submit(job)
	if err != nil {
		b.Fatalf("submit: %v", err)
	}
	d.Run(50_000_000)
	o, err := d.Session(user, job.Target.Usite).Outcome(context.Background(), id)
	if err != nil {
		b.Fatalf("outcome: %v", err)
	}
	if o.Status != unicore.StatusSuccessful {
		b.Fatalf("job finished %s:\n%s", o.Status, unicore.Display(o))
	}
	return o
}

// singleSiteSpec is the Figure 1 topology: one Usite, one T3E Vsite.
func singleSiteSpec(usite unicore.Usite) testbed.SiteSpec {
	return testbed.SiteSpec{
		Usite:  usite,
		Vsites: []njs.VsiteConfig{{Name: "T3E", Profile: machine.CrayT3E(128)}},
	}
}

// --- E1: Figure 1 — the detailed single-site architecture ----------------

// BenchmarkFig1_SingleSiteJobFlow pushes one script job through every box of
// Figure 1: the user signs the AJO, the gateway authenticates and maps the
// DN, the NJS incarnates and submits, the batch subsystem runs the script,
// and the outcome flows back. ns/op is the real middleware cost per job;
// vms/op is the virtual end-to-end latency (dominated by the batch tier).
func BenchmarkFig1_SingleSiteJobFlow(b *testing.B) {
	d := mustDeploy(b, singleSiteSpec("FZJ"))
	user := mustUser(b, d, "fig1")
	var virtual time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jb := unicore.NewJob(fmt.Sprintf("fig1-%06d", i), unicore.Target{Usite: "FZJ", Vsite: "T3E"})
		imp := jb.ImportBytes("stage", []byte("data"), "in.dat")
		run := jb.Script("app", "cat in.dat > seen.tmp\ncpu 10m\necho done\n",
			unicore.ResourceRequest{Processors: 4, RunTime: time.Hour})
		exp := jb.Export("archive", "seen.tmp", fmt.Sprintf("/res/fig1-%06d.out", i))
		jb.After(imp, run).After(run, exp)
		job, err := jb.Build()
		if err != nil {
			b.Fatalf("build: %v", err)
		}
		o := runJob(b, d, user, job)
		virtual += o.Finished.Sub(o.Started)
	}
	b.ReportMetric(float64(virtual.Milliseconds())/float64(b.N), "vms/op")
}

// --- E2: Figure 2 — multiple connected Usites -----------------------------

// BenchmarkFig2_MultiSiteDistribution consigns one UNICORE job whose N-1
// sub-job-groups run at peer Usites, with a Uspace-to-Uspace transfer from
// each — the "different servers are connected" overview of Figure 2. The
// virtual latency grows with N (more transfers and remote polling); the real
// per-job middleware cost measures the distribution machinery.
func BenchmarkFig2_MultiSiteDistribution(b *testing.B) {
	for _, sites := range []int{2, 4, 6} {
		b.Run(fmt.Sprintf("usites=%d", sites), func(b *testing.B) {
			specs := make([]testbed.SiteSpec, sites)
			for i := range specs {
				specs[i] = singleSiteSpec(unicore.Usite(fmt.Sprintf("SITE%02d", i)))
			}
			d := mustDeploy(b, specs...)
			user := mustUser(b, d, "fig2")
			var virtual time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				jb := unicore.NewJob(fmt.Sprintf("fig2-%06d", i), unicore.Target{Usite: "SITE00", Vsite: "T3E"})
				var gather []unicore.ActionID
				for s := 1; s < sites; s++ {
					sub := unicore.NewJob(fmt.Sprintf("part-%d", s),
						unicore.Target{Usite: unicore.Usite(fmt.Sprintf("SITE%02d", s)), Vsite: "T3E"})
					sub.Script("produce", fmt.Sprintf("cpu 5m\nwrite part%d.dat 8192\n", s),
						unicore.ResourceRequest{Processors: 2, RunTime: time.Hour})
					g := jb.SubJob(sub)
					tr := jb.Transfer(fmt.Sprintf("fetch-%d", s), g, fmt.Sprintf("part%d.dat", s))
					jb.After(g, tr)
					gather = append(gather, tr)
				}
				merge := jb.Script("merge", "cpu 2m\necho merged\n",
					unicore.ResourceRequest{Processors: 1, RunTime: time.Hour})
				for _, tr := range gather {
					jb.After(tr, merge)
				}
				job, err := jb.Build()
				if err != nil {
					b.Fatalf("build: %v", err)
				}
				o := runJob(b, d, user, job)
				virtual += o.Finished.Sub(o.Started)
			}
			b.ReportMetric(float64(virtual.Milliseconds())/float64(b.N), "vms/op")
		})
	}
}

// --- E3: Figure 3 — the AJO class hierarchy as the wire protocol ----------

// fullAJO builds a job exercising all 14 concrete AbstractAction classes of
// Figure 3, nested to the given job-group depth.
func fullAJO(depth int) *ajo.AbstractJob {
	req := resources.Request{Processors: 4, RunTime: time.Hour, MemoryMB: 128}
	leaf := func(level int) *ajo.AbstractJob {
		id := func(s string) ajo.Header {
			return ajo.Header{ActionID: ajo.ActionID(fmt.Sprintf("%s-%d", s, level)), ActionName: s}
		}
		j := &ajo.AbstractJob{
			Header: ajo.Header{ActionID: ajo.ActionID(fmt.Sprintf("job-%d", level)), ActionName: "level"},
			Target: unicore.Target{Usite: "FZJ", Vsite: "T3E"},
			Actions: ajo.ActionList{
				&ajo.ImportTask{Header: id("import"), Source: ajo.ImportSource{Inline: []byte("x")}, To: "in"},
				&ajo.ExportTask{Header: id("export"), From: "out", ToXspace: "/x/out"},
				&ajo.ExecuteTask{TaskBase: ajo.TaskBase{Header: id("exec"), Resources: req}, Executable: "a.out"},
				&ajo.CompileTask{TaskBase: ajo.TaskBase{Header: id("compile"), Resources: req},
					Language: "f90", Sources: []string{"m.f90"}, Output: "m.o"},
				&ajo.LinkTask{TaskBase: ajo.TaskBase{Header: id("link"), Resources: req},
					Objects: []string{"m.o"}, Output: "a.out"},
				&ajo.UserTask{TaskBase: ajo.TaskBase{Header: id("user"), Resources: req}, Command: "hostname"},
				&ajo.ScriptTask{TaskBase: ajo.TaskBase{Header: id("script"), Resources: req}, Script: "echo hi\n"},
			},
		}
		j.Actions = append(j.Actions, &ajo.TransferTask{
			Header: id("transfer"), FromAction: ajo.ActionID(fmt.Sprintf("exec-%d", level)), Files: []string{"f"},
		})
		return j
	}
	root := leaf(0)
	cur := root
	for lvl := 1; lvl < depth; lvl++ {
		next := leaf(lvl)
		cur.Actions = append(cur.Actions, next)
		cur = next
	}
	return root
}

// BenchmarkFig3_AJORoundTrip measures encode+decode of the full Figure 3
// hierarchy at increasing recursion depth, for both forms of the AJO (the
// binary wire form, and the JSON debug form with its type registry). B/op
// tracks the wire size pressure.
func BenchmarkFig3_AJORoundTrip(b *testing.B) {
	codecs := []struct {
		name      string
		marshal   func(ajo.Action) ([]byte, error)
		unmarshal func([]byte) (ajo.Action, error)
	}{
		{"json", ajo.MarshalJSON, ajo.UnmarshalJSON},
		{"bin", ajo.Marshal, ajo.Unmarshal},
	}
	for _, depth := range []int{1, 2, 4, 6} {
		job := fullAJO(depth)
		for _, c := range codecs {
			b.Run(fmt.Sprintf("codec=%s/depth=%d", c.name, depth), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					raw, err := c.marshal(job)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := c.unmarshal(raw); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- E4: §5.7 — the German production testbed -----------------------------

// BenchmarkSec57_GermanTestbed deploys the six 1999 sites and drives the
// mixed workload (scripts, F90 compile-link-execute, multi-site job groups)
// through them. Reported: virtual makespan, jobs per virtual hour, and mean
// batch utilisation.
func BenchmarkSec57_GermanTestbed(b *testing.B) {
	const jobs = 40
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := mustDeploy(b, testbed.GermanSpecs()...)
		user := mustUser(b, d, fmt.Sprintf("s57-%d", i))
		workload, err := testbed.GenerateWorkload(testbed.DefaultWorkload(int64(i)+1999, jobs, d.Targets()))
		if err != nil {
			b.Fatalf("workload: %v", err)
		}
		jpa := d.JPA(user)
		b.StartTimer()

		for _, j := range workload {
			if _, err := jpa.Submit(j); err != nil {
				b.Fatalf("submit %s: %v", j.Name(), err)
			}
		}
		d.Run(50_000_000)

		b.StopTimer()
		recs := d.Accounting()
		sum := accounting.Summarise(recs)
		if sum.Failed != 0 {
			b.Fatalf("%d batch jobs failed", sum.Failed)
		}
		makespan := accounting.Makespan(recs)
		b.ReportMetric(makespan.Minutes(), "vmin/run")
		b.ReportMetric(float64(jobs)/makespan.Hours(), "jobs/vhour")
		d.Close()
		b.StartTimer()
	}
}

// --- E5: §5.6 — transfer rates, https vs local copy -----------------------

// BenchmarkSec56_TransferHTTPSvsLocal reproduces the §5.6 admission: Uspace
// to Uspace transfers over the https NJS–NJS path "[have] disadvantages with
// respect to transfer rates especially for huge data sets", versus the local
// Xspace-to-Uspace copy at a Vsite. vms/op is the virtual duration of the
// staging action; the https path is slower and the gap widens with size.
func BenchmarkSec56_TransferHTTPSvsLocal(b *testing.B) {
	sizes := []int{4 << 10, 256 << 10, 1 << 20, 16 << 20}
	d := mustDeploy(b, singleSiteSpec("FZJ"), singleSiteSpec("ZIB"))
	user := mustUser(b, d, "s56")
	fzj, _ := d.Sites["FZJ"].NJS.Vsite("T3E")

	for _, size := range sizes {
		b.Run(fmt.Sprintf("path=local/size=%d", size), func(b *testing.B) {
			var virtual time.Duration
			for i := 0; i < b.N; i++ {
				src := fmt.Sprintf("/stage/local-%d-%06d.dat", size, i)
				if err := fzj.Space.WriteXspace(src, make([]byte, size)); err != nil {
					b.Fatalf("xspace: %v", err)
				}
				jb := unicore.NewJob("local-import", unicore.Target{Usite: "FZJ", Vsite: "T3E"})
				imp := jb.ImportXspace("import", src, "in.dat")
				job, err := jb.Build()
				if err != nil {
					b.Fatalf("build: %v", err)
				}
				o := runJob(b, d, user, job)
				act, _ := o.Find(imp)
				virtual += act.Finished.Sub(act.Started)
			}
			b.ReportMetric(float64(virtual.Milliseconds())/float64(b.N), "vms/op")
		})
		b.Run(fmt.Sprintf("path=https/size=%d", size), func(b *testing.B) {
			var virtual time.Duration
			for i := 0; i < b.N; i++ {
				sub := unicore.NewJob("producer", unicore.Target{Usite: "ZIB", Vsite: "T3E"})
				sub.Script("produce", fmt.Sprintf("write big.dat %d\n", size),
					unicore.ResourceRequest{Processors: 1, RunTime: time.Hour})
				jb := unicore.NewJob("remote-transfer", unicore.Target{Usite: "FZJ", Vsite: "T3E"})
				g := jb.SubJob(sub)
				tr := jb.Transfer("pull", g, "big.dat")
				jb.After(g, tr)
				job, err := jb.Build()
				if err != nil {
					b.Fatalf("build: %v", err)
				}
				o := runJob(b, d, user, job)
				act, _ := o.Find(tr)
				virtual += act.Finished.Sub(act.Started)
			}
			b.ReportMetric(float64(virtual.Milliseconds())/float64(b.N), "vms/op")
		})
	}
}

// --- E6: §5.3 — asynchronous vs synchronous protocol robustness -----------

// BenchmarkSec53_AsyncVsSyncRobustness quantifies "the asynchronous protocol
// protects against any unreliability of the underlying communication
// mechanism": completion rates of both protocol variants over a lossy link,
// swept across failure rates. The async rate stays ≈100%; the sync baseline
// collapses as job duration × failure rate grows.
func BenchmarkSec53_AsyncVsSyncRobustness(b *testing.B) {
	for _, perHour := range []float64{1, 6, 30} {
		b.Run(fmt.Sprintf("failures-per-hour=%g", perHour), func(b *testing.B) {
			var async, sync float64
			for i := 0; i < b.N; i++ {
				res := protocol.SimulateRobustness(protocol.RobustnessConfig{
					Seed:        int64(i) + 1,
					Trials:      200,
					JobDuration: 20 * time.Minute,
					Link: protocol.LinkModel{
						FailureRate: perHour / 3600,
						MsgTime:     200 * time.Millisecond,
					},
				})
				async += res.Async.CompletionRate()
				sync += res.Sync.CompletionRate()
			}
			b.ReportMetric(async/float64(b.N)*100, "async-done-%")
			b.ReportMetric(sync/float64(b.N)*100, "sync-done-%")
		})
	}
}

// --- E7: §5.5 — minimal interference with the local batch system ----------

// BenchmarkSec55_UnicoreOverhead compares the same batch script submitted
// directly to the Codine RMS against the full UNICORE path (gateway
// authentication, DN mapping, incarnation, Uspace management). The virtual
// latency difference is the UNICORE layer's overhead — small against queue
// and run times, which is the §5.5 design claim.
func BenchmarkSec55_UnicoreOverhead(b *testing.B) {
	const script = "cpu 10m\necho done\n"

	b.Run("path=direct-codine", func(b *testing.B) {
		clock := sim.NewVirtualClock()
		fs := vfs.New(clock)
		rms, err := codine.New(clock, codine.Config{
			Machine: machine.CrayT3E(128),
			Queues:  []codine.Queue{{Name: "batch", Slots: 128, MaxTime: 24 * time.Hour}},
		})
		if err != nil {
			b.Fatalf("codine: %v", err)
		}
		if err := fs.MkdirAll("/work"); err != nil {
			b.Fatalf("fs: %v", err)
		}
		var virtual time.Duration
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			done := make(chan codine.Result, 1)
			_, err := rms.Submit(codine.JobSpec{
				Name: fmt.Sprintf("direct-%06d", i), Owner: "bench", Queue: "batch",
				Slots: 4, TimeLimit: time.Hour, Script: script, FS: fs, WorkDir: "/work",
				Done: func(_ codine.JobID, r codine.Result) { done <- r },
			})
			if err != nil {
				b.Fatalf("submit: %v", err)
			}
			start := clock.Now()
			clock.RunUntilIdle(100000)
			res := <-done
			if res.State != codine.StateDone {
				b.Fatalf("job finished %s", res.State)
			}
			virtual += clock.Now().Sub(start)
		}
		b.ReportMetric(float64(virtual.Milliseconds())/float64(b.N), "vms/op")
	})

	b.Run("path=unicore", func(b *testing.B) {
		d := mustDeploy(b, singleSiteSpec("FZJ"))
		user := mustUser(b, d, "s55")
		var virtual time.Duration
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			jb := unicore.NewJob(fmt.Sprintf("via-unicore-%06d", i), unicore.Target{Usite: "FZJ", Vsite: "T3E"})
			jb.Script("app", script, unicore.ResourceRequest{Processors: 4, RunTime: time.Hour})
			job, err := jb.Build()
			if err != nil {
				b.Fatalf("build: %v", err)
			}
			start := d.Clock.Now()
			o := runJob(b, d, user, job)
			virtual += o.Finished.Sub(start)
		}
		b.ReportMetric(float64(virtual.Milliseconds())/float64(b.N), "vms/op")
	})
}

// --- E8: §6 — the resource-broker extension -------------------------------

// BenchmarkSec6_BrokerExtension measures the outlook scenario: under skewed
// load (the user's habitual machine is saturated), broker-placed jobs finish
// far sooner than user-fixed placement. vmin/run is the virtual makespan of
// the demand jobs.
func BenchmarkSec6_BrokerExtension(b *testing.B) {
	const demandJobs = 8
	run := func(b *testing.B, useBroker bool) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			d := mustDeploy(b, testbed.GermanSpecs()...)
			user := mustUser(b, d, fmt.Sprintf("s6-%d", i))
			jpa := d.JPA(user)
			c := d.UserClient(user)
			habitual := unicore.Target{Usite: "FZJ", Vsite: "T3E"}
			// Saturate the habitual machine: 6 × 256 PEs on a 512-PE T3E.
			for k := 0; k < 6; k++ {
				bg := unicore.NewJob(fmt.Sprintf("bg-%02d", k), habitual)
				bg.Script("burn", "cpu 8h\n", unicore.ResourceRequest{Processors: 256, RunTime: 20 * time.Hour})
				bgJob, err := bg.Build()
				if err != nil {
					b.Fatalf("build: %v", err)
				}
				if _, err := jpa.Submit(bgJob); err != nil {
					b.Fatalf("submit bg: %v", err)
				}
			}
			d.Clock.Advance(time.Second)
			b.StartTimer()

			br := unicore.NewBroker(unicore.BestTurnaround)
			demand := unicore.ResourceRequest{Processors: 16, RunTime: 4 * time.Hour}
			start := d.Clock.Now()
			type placed struct {
				id unicore.JobID
				us unicore.Usite
			}
			var ids []placed
			for k := 0; k < demandJobs; k++ {
				target := habitual
				if useBroker {
					if err := br.Refresh(c, d.Usites()...); err != nil {
						b.Fatalf("refresh: %v", err)
					}
					t, err := br.Choose(demand)
					if err != nil {
						b.Fatalf("choose: %v", err)
					}
					target = t
				}
				jb := unicore.NewJob(fmt.Sprintf("demand-%02d", k), target)
				jb.Script("work", "cpu 1h\n", demand)
				job, err := jb.Build()
				if err != nil {
					b.Fatalf("build: %v", err)
				}
				id, err := jpa.Submit(job)
				if err != nil {
					b.Fatalf("submit: %v", err)
				}
				ids = append(ids, placed{id, target.Usite})
			}
			d.Run(50_000_000)

			b.StopTimer()
			var last time.Time
			for _, p := range ids {
				o, err := d.Session(user, p.us).Outcome(context.Background(), p.id)
				if err != nil {
					b.Fatalf("outcome: %v", err)
				}
				if o.Status != unicore.StatusSuccessful {
					b.Fatalf("demand job finished %s", o.Status)
				}
				if o.Finished.After(last) {
					last = o.Finished
				}
			}
			b.ReportMetric(last.Sub(start).Minutes(), "vmin/run")
			d.Close()
			b.StartTimer()
		}
	}
	b.Run("placement=user-fixed", func(b *testing.B) { run(b, false) })
	b.Run("placement=broker", func(b *testing.B) { run(b, true) })
}

// --- Ablation: EASY backfill in the batch subsystem ------------------------

// BenchmarkAblation_Backfill replays the same job stream — alternating wide
// long jobs and narrow short ones — with and without EASY backfill. The
// makespan is pinned by the serialized wide jobs either way; backfill's win
// is that narrow jobs slide into the schedule holes instead of queueing
// behind the next wide job, collapsing their queue wait.
func BenchmarkAblation_Backfill(b *testing.B) {
	stream := func(rms *codine.RMS, fs *vfs.FS, clock *sim.VirtualClock) (makespan, narrowWait time.Duration) {
		done := 0
		collect := func(_ codine.JobID, r codine.Result) { done++ }
		for i := 0; i < 24; i++ {
			spec := codine.JobSpec{
				Owner: "bench", Queue: "batch", FS: fs, WorkDir: "/work", Done: collect,
			}
			if i%2 == 0 {
				spec.Name = fmt.Sprintf("wide-%02d", i)
				spec.Slots = 96
				spec.TimeLimit = 5 * time.Hour
				spec.Script = "cpu 2h\n"
			} else {
				spec.Name = fmt.Sprintf("narrow-%02d", i)
				spec.Slots = 8
				spec.TimeLimit = time.Hour
				spec.Script = "cpu 20m\n"
			}
			if _, err := rms.Submit(spec); err != nil {
				panic(err)
			}
		}
		start := clock.Now()
		clock.RunUntilIdle(1000000)
		var last time.Time
		narrow := 0
		for _, rec := range rms.Accounting() {
			if rec.End.After(last) {
				last = rec.End
			}
			if rec.Slots == 8 {
				narrowWait += rec.Start.Sub(rec.Submit)
				narrow++
			}
		}
		if done != 24 {
			panic(fmt.Sprintf("only %d/24 jobs completed", done))
		}
		return last.Sub(start), narrowWait / time.Duration(narrow)
	}
	for _, backfill := range []bool{false, true} {
		b.Run(fmt.Sprintf("backfill=%v", backfill), func(b *testing.B) {
			var mkspan, wait time.Duration
			for i := 0; i < b.N; i++ {
				clock := sim.NewVirtualClock()
				fs := vfs.New(clock)
				if err := fs.MkdirAll("/work"); err != nil {
					b.Fatal(err)
				}
				rms, err := codine.New(clock, codine.Config{
					Machine:  machine.CrayT3E(128),
					Queues:   []codine.Queue{{Name: "batch", Slots: 128, MaxTime: 24 * time.Hour}},
					Backfill: backfill,
				})
				if err != nil {
					b.Fatal(err)
				}
				m, w := stream(rms, fs, clock)
				mkspan += m
				wait += w
			}
			b.ReportMetric(mkspan.Minutes()/float64(b.N), "vmin/run")
			b.ReportMetric(wait.Minutes()/float64(b.N), "narrow-wait-vmin")
		})
	}
}

// --- Ablation: §5.2 firewall split vs combined gateway ---------------------

// BenchmarkAblation_FirewallSplit measures the real per-request cost of the
// split deployment against the combined server. The session's hello is
// verified once at the front and once inside when its stream is spliced
// (before the loop); what each list then pays is the extra hop of its frames
// over the loopback IP socket.
func BenchmarkAblation_FirewallSplit(b *testing.B) {
	for _, split := range []bool{false, true} {
		b.Run(fmt.Sprintf("split=%v", split), func(b *testing.B) {
			spec := singleSiteSpec("FZJ")
			spec.Split = split
			d := mustDeploy(b, spec)
			user := mustUser(b, d, "fw")
			sess := d.Session(user, "FZJ")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sess.List(context.Background()); err != nil {
					b.Fatalf("list: %v", err)
				}
			}
		})
	}
}

// --- Federation: cross-gateway forwarding ---------------------------------

// BenchmarkFederatedConsign measures the §6 multi-gateway outlook: every job
// targets FZJ with `-site auto` semantics but needs more processors than FZJ
// has, so the federated broker places it behind the DWD peer gateway and the
// consign is forwarded there on the origin's server-role stream. ns/op is the
// full forwarded consign cost (two stream hops plus remote journaling);
// fed-forward-ack-p99-ms is the forward-ack tail, reported only.
func BenchmarkFederatedConsign(b *testing.B) {
	d := mustDeploy(b,
		testbed.SiteSpec{Usite: "FZJ", Vsites: []njs.VsiteConfig{{Name: "SMALL", Profile: machine.GenericCluster(2)}}},
		testbed.SiteSpec{Usite: "DWD", Vsites: []njs.VsiteConfig{{Name: "BIG", Profile: machine.GenericCluster(32)}}},
	)
	if err := d.EnableFederation(); err != nil {
		b.Fatalf("federation: %v", err)
	}
	// Two rounds settle transitively-learned advertisements.
	d.GossipAll()
	d.GossipAll()
	user := mustUser(b, d, "fed")
	jpa := d.JPA(user)
	var last unicore.JobID
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jb := unicore.NewJob(fmt.Sprintf("fed-%06d", i), unicore.Target{Usite: "FZJ"})
		jb.Script("app", "echo forwarded\n",
			unicore.ResourceRequest{Processors: 8, RunTime: 30 * time.Minute})
		job, err := jb.Build()
		if err != nil {
			b.Fatalf("build: %v", err)
		}
		id, err := jpa.Submit(job)
		if err != nil {
			b.Fatalf("submit: %v", err)
		}
		if !strings.HasPrefix(string(id), "DWD-") {
			b.Fatalf("job %s was not forwarded to the DWD peer", id)
		}
		last = id
	}
	b.StopTimer()
	d.Run(50_000_000)
	if o, err := d.Session(user, "FZJ").Outcome(context.Background(), last); err != nil || o.Status != unicore.StatusSuccessful {
		b.Fatalf("forwarded job did not complete via the origin gateway: %v", err)
	}
	snap := d.Federation("FZJ").Registry().Snapshot()
	b.ReportMetric(snap.Quantile("fed_forward_ack_seconds", 0.99)*1000, "fed-forward-ack-p99-ms")
}
