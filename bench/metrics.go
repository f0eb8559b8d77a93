package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
)

// metricDef names one reported figure. bound is the share of the parent's
// median by which an end-to-end metric may get worse before a change counts
// as a regression; per-layer metrics have none.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd are the gated figures, the same for every workload. BENCHMARK.json
// repeats this table; the smoke test fails when the two differ.
//
// The issue that defined this benchmark also named op_per_s, op_p50_ms and
// cpu_ms_per_op as end-to-end metrics, with the rule that a metric whose
// run-to-run spread exceeds a tenth on some workload is demoted to a
// per-layer diagnostic for all workloads. On the shared two-core machine this
// was built on, two sets of ten runs gave those three a spread of 16% to 42%
// on the control-plane workloads (README.md has the report), so they are the
// timeDiagnostics below: still measured and printed by every run, not gated.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.01},
	{"alloc_KB_per_op", "KB", "lower", 0.02},
	{"wire_KB_per_op", "KB", "lower", 0.01},
}

// timeDiagnostics are the three demoted time figures. They lead the
// per-layer list and are also printed, as plain lines, by the untraced run.
var timeDiagnostics = []metricDef{
	{name: "client.op_per_s", unit: "1/s", better: "higher"},
	{name: "client.op_p50_ms", unit: "ms", better: "lower"},
	{name: "runtime.cpu_ms_per_op", unit: "ms", better: "lower"},
}

// perLayer lists every per-layer figure of the traced run, layer first.
var perLayer = append(append([]metricDef{}, timeDiagnostics...), []metricDef{
	// spans of the traced rounds
	{name: "client.self_ms_per_op", unit: "ms", better: "lower"},
	{name: "gateway_wire.self_ms_per_op", unit: "ms", better: "lower"},
	{name: "njs.self_ms_per_op", unit: "ms", better: "lower"},
	{name: "njs.calls_per_op", unit: "count", better: "lower"},
	{name: "client.op_p90_ms", unit: "ms", better: "lower"},
	{name: "client.op_p99_ms", unit: "ms", better: "lower"},
	{name: "client.op_max_ms", unit: "ms", better: "lower"},
	{name: "trace.overhead_pct", unit: "%", better: "lower"},
	// counts per operation, from the telemetry scrape and the socket wrapper
	{name: "pki.verifies_per_op", unit: "count", better: "lower"},
	{name: "gateway.envelopes_per_op", unit: "count", better: "lower"},
	{name: "gateway.stream_frames_per_op", unit: "count", better: "lower"},
	{name: "journal.appends_per_op", unit: "count", better: "lower"},
	{name: "journal.syncs_per_op", unit: "count", better: "lower"},
	{name: "journal.batch_entries_mean", unit: "count", better: "higher"},
	{name: "staging.chunks_per_op", unit: "count", better: "lower"},
	{name: "events.log_depth_end", unit: "count", better: "lower"},
	{name: "wire.bytes_out_per_op", unit: "B", better: "lower"},
	{name: "wire.bytes_in_per_op", unit: "B", better: "lower"},
	{name: "wire.writes_per_op", unit: "count", better: "lower"},
	{name: "runtime.peak_rss_MB", unit: "MB", better: "lower"},
	{name: "runtime.heap_live_MB_end", unit: "MB", better: "lower"},
	{name: "runtime.gc_cycles", unit: "count", better: "lower"},
	{name: "runtime.gc_cpu_pct", unit: "%", better: "lower"},
	// direct probes, one group per module
	{name: "ajo.marshal_us", unit: "us", better: "lower"},
	{name: "ajo.unmarshal_us", unit: "us", better: "lower"},
	{name: "ajo.unmarshal_allocs", unit: "count", better: "lower"},
	{name: "ajo.outcome_marshal_us", unit: "us", better: "lower"},
	{name: "pki.sign_us", unit: "us", better: "lower"},
	{name: "pki.verify_signature_us", unit: "us", better: "lower"},
	{name: "pki.verify_cert_us", unit: "us", better: "lower"},
	{name: "protocol.seal_us", unit: "us", better: "lower"},
	{name: "protocol.open_us", unit: "us", better: "lower"},
	{name: "protocol.open_allocs", unit: "count", better: "lower"},
	{name: "protocol.frame_encode_MB_per_s", unit: "MB/s", better: "higher"},
	{name: "protocol.frame_decode_MB_per_s", unit: "MB/s", better: "higher"},
	{name: "protocol.frame_decode_alloc_KB_per_MB", unit: "KB/MB", better: "lower"},
	{name: "gateway.handle_envelope_poll_us", unit: "us", better: "lower"},
	{name: "gateway.handle_envelope_list_us", unit: "us", better: "lower"},
	{name: "gateway.stream_poll_us", unit: "us", better: "lower"},
	{name: "gateway.stream_consign_us", unit: "us", better: "lower"},
	{name: "pool.route_overhead_us", unit: "us", better: "lower"},
	{name: "njs.consign_us", unit: "us", better: "lower"},
	{name: "njs.consign_allocs", unit: "count", better: "lower"},
	{name: "njs.consign_durable_us", unit: "us", better: "lower"},
	{name: "njs.poll_us", unit: "us", better: "lower"},
	{name: "njs.outcome_us", unit: "us", better: "lower"},
	{name: "njs.events_read_us", unit: "us", better: "lower"},
	{name: "njs.fetch_range_MB_per_s", unit: "MB/s", better: "higher"},
	{name: "incarnation.incarnate_us", unit: "us", better: "lower"},
	{name: "journal.append_sync_us", unit: "us", better: "lower"},
	{name: "journal.append_batch_us_per_entry", unit: "us", better: "lower"},
	{name: "journal.bytes_per_admit", unit: "B", better: "lower"},
	{name: "journal.replay_us_per_entry", unit: "us", better: "lower"},
	{name: "journal.replay_allocs_per_entry", unit: "count", better: "lower"},
	{name: "events.append_us", unit: "us", better: "lower"},
	{name: "events.job_events_us", unit: "us", better: "lower"},
	{name: "staging.spool_chunk_MB_per_s", unit: "MB/s", better: "higher"},
	{name: "staging.spool_commit_ms", unit: "ms", better: "lower"},
	{name: "staging.spool_alloc_KB_per_MB", unit: "KB/MB", better: "lower"},
	{name: "vfs.read_range_MB_per_s", unit: "MB/s", better: "higher"},
	{name: "vfs.read_range_alloc_KB_per_MB", unit: "KB/MB", better: "lower"},
	{name: "vfs.write_MB_per_s", unit: "MB/s", better: "higher"},
	{name: "telemetry.counter_inc_ns", unit: "ns", better: "lower"},
	{name: "telemetry.snapshot_us", unit: "us", better: "lower"},
	{name: "wire.tls_echo_MB_per_s", unit: "MB/s", better: "higher"},
	{name: "wire.tls_rtt_us", unit: "us", better: "lower"},
	{name: "machine.memmove_MB_per_s", unit: "MB/s", better: "higher"},
	{name: "machine.crc64_MB_per_s", unit: "MB/s", better: "higher"},
	{name: "machine.ed25519_verify_per_s", unit: "1/s", better: "higher"},
	{name: "machine.fsync_ms_p50", unit: "ms", better: "lower"},
	{name: "machine.calib_drift_pct", unit: "%", better: "lower"},
}...)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// plainValues computes the end-to-end figures and the three time diagnostics
// from the untraced rounds of a run.
//
// Counts pool every timed section. The two figures that are a time divided
// by a count, op_per_s and cpu_ms_per_op, are the median over rounds of the
// per-round value: a neighbour's burst lands in one round, and the median of
// rounds drops it where a pooled mean would carry it. op_p50_ms is the median
// over all timed operations. setup_s is the median round's untimed work
// (deploy, users, dials, preload, warm-up, checks, teardown), so that work
// moved into set-up shows.
func plainValues(rr *runResult) map[string]float64 {
	s := pool(rr.pick(false))
	ops := float64(s.ops)
	return map[string]float64{
		"setup_s":               median(s.perRoundSetup),
		"allocs_per_op":         s.mallocs / ops,
		"alloc_KB_per_op":       s.bytes / ops / 1024,
		"wire_KB_per_op":        (s.in + s.out) / ops / 1024,
		"client.op_per_s":       median(s.perRoundRate),
		"client.op_p50_ms":      median(s.lat),
		"runtime.cpu_ms_per_op": median(s.perRoundCPUms),
	}
}

// layerValues computes the time diagnostics and the span, count and machine
// figures of a traced run; the probe figures are merged in by the caller.
func layerValues(rr *runResult) map[string]float64 {
	plain, traced := pool(rr.pick(false)), pool(rr.pick(true))
	all := pool(rr.rounds)
	ops := float64(all.ops)
	st := rr.selfTimes
	tops := float64(st.ops)
	dur := make([]float64, len(st.opDur))
	for i, d := range st.opDur {
		dur[i] = float64(d) / 1e6
	}
	m := map[string]float64{
		"client.self_ms_per_op":        float64(st.client) / 1e6 / tops,
		"gateway_wire.self_ms_per_op":  float64(st.gwWire) / 1e6 / tops,
		"njs.self_ms_per_op":           float64(st.njsNs) / 1e6 / tops,
		"njs.calls_per_op":             float64(st.njsCalls) / tops,
		"client.op_p90_ms":             quantile(dur, 0.90),
		"client.op_p99_ms":             quantile(dur, 0.99),
		"client.op_max_ms":             quantile(dur, 1),
		"trace.overhead_pct":           (1 - median(traced.perRoundRate)/median(plain.perRoundRate)) * 100,
		"pki.verifies_per_op":          all.tel["pki_verify_total"] / ops,
		"gateway.envelopes_per_op":     all.tel["gateway_requests_total"] / ops,
		"gateway.stream_frames_per_op": all.tel["gateway_stream_frames_total"] / ops,
		"journal.appends_per_op":       all.tel["journal_append_total"] / ops,
		"journal.syncs_per_op":         all.tel["journal_syncs"] / ops,
		"journal.batch_entries_mean":   ratio(all.tel["journal_batch_sum"], all.tel["journal_batch_count"]),
		"staging.chunks_per_op":        all.tel["staging_chunks_total"] / ops,
		"events.log_depth_end":         all.logDepth,
		"wire.bytes_out_per_op":        all.out / ops,
		"wire.bytes_in_per_op":         all.in / ops,
		"wire.writes_per_op":           all.writes / ops,
		"runtime.peak_rss_MB":          rr.peakRSSMB,
		"runtime.heap_live_MB_end":     all.heapLive / (1 << 20),
		"runtime.gc_cycles":            all.gcCycles,
		"runtime.gc_cpu_pct":           ratio(all.gcCPU, all.cpu) * 100,
	}
	pv := plainValues(rr)
	for _, d := range timeDiagnostics {
		m[d.name] = pv[d.name]
	}
	c := rr.calib[0].mean(rr.calib[1])
	m["machine.memmove_MB_per_s"] = c.memmoveMBs
	m["machine.crc64_MB_per_s"] = c.crc64MBs
	m["machine.ed25519_verify_per_s"] = c.verifyPerS
	m["machine.fsync_ms_p50"] = c.fsyncMs
	m["machine.calib_drift_pct"] = drift(rr.calib[0], rr.calib[1])
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// report is the contract's result line.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// buildReport checks that every named metric has a usable value: finite, and
// for end-to-end metrics positive.
func buildReport(defs []metricDef, vals map[string]float64, attempted, failed int, positive bool) (report, []string) {
	rep := report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	var bad []string
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) || (positive && v <= 0) {
			bad = append(bad, d.name)
			v = 0
		}
		rep.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(bad) > 0 {
		rep.Correct = false
	}
	return rep, bad
}

// printMetrics writes one line per metric, `prefix name value unit`, in the
// order of defs.
func printMetrics(w io.Writer, prefix string, defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		fmt.Fprintf(w, "%s%s %.6g %s\n", prefix, d.name, vals[d.name], d.unit)
	}
}

func (r report) line() string {
	b, _ := json.Marshal(r) // a struct of strings, ints and finite floats cannot fail to encode
	return string(b)
}
