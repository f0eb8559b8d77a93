package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"unicore/internal/telemetry"
)

// A run of one workload is a sequence of rounds. Each round deploys a fresh
// site (untimed), warms it up (untimed), collects garbage, and then times a
// fixed number of operations, so every timed section does identical work from
// the same starting heap and retained jobs never exceed K+W. Rounds repeat
// until the timed sections add up to the requested seconds.

// round is the state of one round, shared by the workload's hooks.
type round struct {
	w    *workload
	site *site
	n    int   // round number within the run
	seed int64 // run seed mixed with the round number
	ctx  context.Context
	// data is the workload's own per-round state (ground truth, payloads).
	data any
	// acked collects what each client's operations returned, for the checks
	// that need the whole round (uniqueness, journal contents). One slice per
	// client, appended only by that client.
	acked [clients][]string
}

// roundResult is what one timed section measured.
type roundResult struct {
	traced     bool
	ops        int
	failed     int
	setup      time.Duration
	wall, cpu  time.Duration
	mallocs    uint64
	allocBytes uint64
	wire       wireSample
	gcCycles   uint32
	gcCPU      float64 // seconds
	heapLive   uint64  // bytes, after the timed section
	logDepth   float64 // event_log_depth gauge, after the timed section
	tel        map[string]float64
	lat        []time.Duration
}

// telCounters are the telemetry counters carried per round, as deltas across
// the timed section.
var telCounters = []string{"pki_verify_total", "gateway_requests_total", "gateway_stream_frames_total",
	"journal_append_total", "staging_chunks_total"}

func telSample(s telemetry.Snapshot) map[string]float64 {
	m := map[string]float64{}
	for _, name := range telCounters {
		m[name] = s.Total(name)
	}
	m["journal_syncs"] = float64(s.HistCount("journal_sync_seconds"))
	for _, p := range s.Metrics {
		if p.Name == "journal_sync_batch_entries" && p.Kind == telemetry.KindHistogram {
			m["journal_batch_sum"] += p.Sum
			m["journal_batch_count"] += float64(p.Count)
		}
	}
	return m
}

func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// failures keeps the first few failed operations for the report.
type failures struct {
	mu   sync.Mutex
	n    int
	msgs []string
}

func (f *failures) add(err error) {
	f.mu.Lock()
	f.n++
	if len(f.msgs) < 5 {
		f.msgs = append(f.msgs, err.Error())
	}
	f.mu.Unlock()
}

// runRound deploys, warms up, times K operations and verifies them.
func runRound(ctx context.Context, w *workload, state *stateRoot, n int, seed int64, scale float64, rec *recorder, fails *failures) (roundResult, error) {
	res := roundResult{traced: rec != nil}
	setupStart := time.Now()
	k, warm := scaled(w.k, scale), scaled(w.warm, scale)

	dir := ""
	if w.durable {
		var err error
		if dir, err = state.roundDir(); err != nil {
			return res, err
		}
	}
	st, err := deploySite(dir, rec)
	if err != nil {
		return res, fmt.Errorf("deploying site: %w", err)
	}
	closed := false
	defer func() {
		if !closed {
			st.close()
		}
	}()
	if rec != nil {
		st.ts.Gateway.SetBackend(&tracedService{Service: st.ts.NJS, rec: rec})
	}
	r := &round{w: w, site: st, n: n, seed: seed*1_000_003 + int64(n), ctx: ctx}
	if w.prepare != nil {
		if err := w.prepare(r); err != nil {
			return res, fmt.Errorf("preparing %s: %w", w.name, err)
		}
	}
	// Warm-up: same operations, untimed and untraced; they open the streams
	// and TLS sessions and fill the pools. A failed warm-up op fails the run.
	if n := r.drive(0, warm, nil, fails); n > 0 {
		return res, fmt.Errorf("%d warm-up operations failed: %v", n, fails.msgs)
	}
	lat := make([][]time.Duration, clients)
	for i := range lat {
		lat[i] = make([]time.Duration, 0, k)
	}
	runtime.GC()
	before, err := st.scrape()
	if err != nil {
		return res, err
	}
	res.setup = time.Since(setupStart)

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0, wire0, cpu0, t0 := gcCPUSeconds(), st.ln.wire.sample(), cpuTime(), time.Now()
	res.failed = r.drive(warm, k, lat, fails)
	res.wall, res.cpu = time.Since(t0), cpuTime()-cpu0
	wire1, gc1 := st.ln.wire.sample(), gcCPUSeconds()
	runtime.ReadMemStats(&ms1)

	res.ops = k
	res.mallocs, res.allocBytes = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc
	res.wire = wireSample{in: wire1.in - wire0.in, out: wire1.out - wire0.out, writes: wire1.writes - wire0.writes}
	res.gcCycles, res.gcCPU, res.heapLive = ms1.NumGC-ms0.NumGC, gc1-gc0, ms1.HeapAlloc
	for _, l := range lat {
		res.lat = append(res.lat, l...)
	}

	// Everything below is untimed again and counts as set-up.
	tail := time.Now()
	after, err := st.scrape()
	if err != nil {
		return res, err
	}
	res.tel = telSample(after)
	for name, v := range telSample(before) {
		res.tel[name] -= v
	}
	res.logDepth = after.Total("event_log_depth")
	if w.verify != nil {
		if err := w.verify(r, warm+k); err != nil {
			fails.add(fmt.Errorf("round check: %w", err))
			res.failed++
		}
	}
	closed = true
	if err := st.close(); err != nil {
		return res, fmt.Errorf("closing site: %w", err)
	}
	res.setup += time.Since(tail)
	return res, nil
}

// drive runs operations [first, first+n) of the round over the two
// closed-loop clients: each client claims the next operation index only when
// its previous one has returned. lat == nil marks the untimed warm-up.
func (r *round) drive(first, n int, lat [][]time.Duration, fails *failures) (failed int) {
	var next atomic.Int64
	var nfailed atomic.Int64
	var wg sync.WaitGroup
	for _, u := range r.site.users {
		wg.Add(1)
		go func(u *user) {
			defer wg.Done()
			traced := lat != nil && u.tt != nil
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if traced {
					u.tt.ct.beginOp()
				}
				t := time.Now()
				err := r.w.op(r, u, first+i)
				d := time.Since(t)
				if traced {
					u.tt.ct.endOp()
				}
				if err != nil {
					nfailed.Add(1)
					fails.add(fmt.Errorf("%s op %d: %w", r.w.name, first+i, err))
					continue // a failed operation has no latency
				}
				if lat != nil {
					lat[u.idx] = append(lat[u.idx], d)
				}
			}
		}(u)
	}
	wg.Wait()
	return int(nfailed.Load())
}

// call runs one Session call, as a client.call span when tracing.
func (u *user) call(method string, fn func() error) error {
	if u.tt == nil {
		return fn()
	}
	u.tt.ct.beginCall(method)
	err := fn()
	u.tt.ct.endCall()
	return err
}

func scaled(n int, scale float64) int {
	m := int(math.Round(float64(n) * scale))
	if m < 1 {
		m = 1
	}
	return m
}

// runResult is one workload's run: all its rounds.
type runResult struct {
	workload  *workload
	rounds    []roundResult
	fails     failures
	calib     [2]calibration
	stateFS   string
	selfTimes selfTimes // traced rounds only
	// peakRSSMB is the process's high-water mark when this workload ended;
	// in a run of several workloads it includes the earlier ones.
	peakRSSMB float64
}

// runWorkload repeats rounds until the timed sections add up to seconds. With
// rec set, traced and untraced rounds alternate, so the tracing overhead is
// measured inside one process and against the same machine state.
func runWorkload(ctx context.Context, w *workload, state *stateRoot, cal *calibrator, seed int64, seconds, scale float64, rec *recorder) (*runResult, error) {
	out := &runResult{workload: w, stateFS: state.fs}
	out.calib[0] = cal.read()
	var timed time.Duration
	for n := 0; ; n++ {
		var rrec *recorder
		if rec != nil && n%2 == 1 {
			rrec = rec
		}
		res, err := runRound(ctx, w, state, n, seed, scale, rrec, &out.fails)
		if err != nil {
			return out, err
		}
		out.rounds = append(out.rounds, res)
		timed += res.wall
		enough := n >= 1 || rec == nil // a traced run needs one round of each kind
		if enough && timed.Seconds() >= seconds {
			break
		}
	}
	out.peakRSSMB = peakRSSMB()
	out.calib[1] = cal.read()
	if rec != nil {
		out.selfTimes = rec.analyse()
	}
	return out, nil
}

// --- statistics ---------------------------------------------------------------

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile is the nearest-rank quantile of v (sorted in place).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	sort.Float64s(v)
	i := int(math.Ceil(q*float64(len(v)))) - 1
	if i < 0 {
		i = 0
	}
	return v[i]
}

func (rr *runResult) pick(traced bool) []roundResult {
	var out []roundResult
	for _, r := range rr.rounds {
		if r.traced == traced {
			out = append(out, r)
		}
	}
	return out
}

// sums pools the timed sections of the given rounds.
type sums struct {
	ops, failed        int
	wall, cpu          float64 // seconds
	mallocs, bytes     float64
	in, out, writes    float64
	gcCycles           float64
	gcCPU              float64
	tel                map[string]float64
	lat                []float64 // ms
	perRoundRate       []float64
	perRoundCPUms      []float64
	perRoundSetup      []float64
	heapLive, logDepth float64 // last round
}

func pool(rounds []roundResult) sums {
	s := sums{tel: map[string]float64{}}
	for _, r := range rounds {
		s.ops += r.ops
		s.failed += r.failed
		s.wall += r.wall.Seconds()
		s.cpu += r.cpu.Seconds()
		s.mallocs += float64(r.mallocs)
		s.bytes += float64(r.allocBytes)
		s.in += float64(r.wire.in)
		s.out += float64(r.wire.out)
		s.writes += float64(r.wire.writes)
		s.gcCycles += float64(r.gcCycles)
		s.gcCPU += r.gcCPU
		for k, v := range r.tel {
			s.tel[k] += v
		}
		for _, l := range r.lat {
			s.lat = append(s.lat, float64(l)/1e6)
		}
		s.perRoundRate = append(s.perRoundRate, float64(r.ops)/r.wall.Seconds())
		s.perRoundCPUms = append(s.perRoundCPUms, r.cpu.Seconds()*1e3/float64(r.ops))
		s.perRoundSetup = append(s.perRoundSetup, r.setup.Seconds())
		s.heapLive, s.logDepth = float64(r.heapLive), r.logDepth
	}
	return s
}
