package main

import (
	"context"
	"fmt"
	"io"
	"os"

	"unicore/internal/protocol"
)

// The budget is ROADMAP item 1's table: what one consign, one event batch
// and one staged megabyte cost in each layer. It is generated from a traced
// run (span self times and telemetry counts per operation) and from the
// direct probes, never written by hand: `go run ./bench -budget` prints the
// markdown that bench/README.md carries.

// eventsRead is a budget-only workload: one Session.Events read of a finished
// eight-step job's whole stream, the unit "one event batch". It is one of the
// request kinds inside monitor_mix, run on its own so that its allocations
// and wire bytes can be counted per batch.
var eventsRead = &workload{
	name: "events_read", k: 6000, warm: 200,
	prepare: monitorPrepare,
	op: func(r *round, u *user, i int) error {
		mt := r.data.(*monitorTruth)
		id := mt.ids[u.idx][opRand(r, i).Intn(monitorJobsPerUser)]
		var got protocol.EventsReply
		err := u.call("Events", func() (err error) {
			got, err = u.sess.Events(r.ctx, protocol.SubscribeRequest{Job: id})
			return
		})
		if err != nil {
			return err
		}
		return sameEvents(got.Events, mt.events[id])
	},
}

type budgetColumn struct {
	title string
	w     *workload
	per   float64 // operations' worth of work per budget unit (16 MiB op -> 1 MB)
}

func runBudget(o options, stdout io.Writer) int {
	cols := []budgetColumn{
		{"one consign", findWorkload("consign_durable"), 1},
		{"one event batch", eventsRead, 1},
		{"one staged MB up", findWorkload("stage_upload"), 16},
		{"one staged MB down", findWorkload("stage_download"), 16},
	}
	state, err := openStateRoot(o.stateDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	defer state.remove()
	ctx := context.Background()
	cal := newCalibrator(state.dir)
	var layer, plain []map[string]float64
	for _, c := range cols {
		rr, err := runWorkload(ctx, c.w, state, cal, o.seed, o.seconds/2, o.scale, newRecorder())
		if err != nil || rr.fails.n > 0 {
			fmt.Fprintf(os.Stderr, "bench: budget run of %s: %v %v\n", c.w.name, err, rr.fails.msgs)
			return 1
		}
		layer = append(layer, layerValues(rr))
		plain = append(plain, plainValues(rr))
	}
	probes, err := runProbes(ctx, state, o.seed, o.scale)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: probes: %v\n", err)
		return 1
	}

	fmt.Fprintf(stdout, "| layer | %s | %s | %s | %s | source |\n|---|---|---|---|---|---|\n",
		cols[0].title, cols[1].title, cols[2].title, cols[3].title)
	row := func(label, source string, val func(i int) float64, format string) {
		fmt.Fprintf(stdout, "| %s |", label)
		for i, c := range cols {
			fmt.Fprintf(stdout, " "+format+" |", val(i)/c.per)
		}
		fmt.Fprintf(stdout, " %s |\n", source)
	}
	us := func(name string) func(int) float64 { return func(i int) float64 { return layer[i][name] * 1e3 } }
	row("client: build, codec, chunking, mux hand-off (µs)", "span self time `client.self_ms_per_op`", us("client.self_ms_per_op"), "%.1f")
	row("gateway + wire: TLS, frame mux, dispatch, seal/open (µs)", "span self time `gateway_wire.self_ms_per_op`", us("gateway_wire.self_ms_per_op"), "%.1f")
	row("njs: admission + journal / event log / spool + vfs (µs)", "span self time `njs.self_ms_per_op`", us("njs.self_ms_per_op"), "%.1f")
	row("**total, as the client sees it (µs)**", "sum of the three", func(i int) float64 {
		return (layer[i]["client.self_ms_per_op"] + layer[i]["gateway_wire.self_ms_per_op"] + layer[i]["njs.self_ms_per_op"]) * 1e3
	}, "%.1f")
	row("CPU, all tiers and GC (µs)", "`runtime.cpu_ms_per_op`", func(i int) float64 { return plain[i]["runtime.cpu_ms_per_op"] * 1e3 }, "%.1f")
	row("allocations", "`allocs_per_op`", func(i int) float64 { return plain[i]["allocs_per_op"] }, "%.1f")
	row("bytes allocated (KB)", "`alloc_KB_per_op`", func(i int) float64 { return plain[i]["alloc_KB_per_op"] }, "%.1f")
	row("bytes on the wire (KB)", "`wire_KB_per_op`", func(i int) float64 { return plain[i]["wire_KB_per_op"] }, "%.2f")
	count := func(name string) func(int) float64 { return func(i int) float64 { return layer[i][name] } }
	row("frames", "`gateway.stream_frames_per_op`", count("gateway.stream_frames_per_op"), "%.2f")
	row("signed envelopes", "`gateway.envelopes_per_op`", count("gateway.envelopes_per_op"), "%.2f")
	row("signature verifies", "`pki.verifies_per_op`", count("pki.verifies_per_op"), "%.2f")
	row("NJS calls", "`njs.calls_per_op`", count("njs.calls_per_op"), "%.2f")
	row("journal appends", "`journal.appends_per_op`", count("journal.appends_per_op"), "%.2f")
	row("fsyncs", "`journal.syncs_per_op`", count("journal.syncs_per_op"), "%.2f")
	row("spool chunks", "`staging.chunks_per_op`", count("staging.chunks_per_op"), "%.2f")

	perMB := func(name string) float64 { return 1e6 / probes[name] }
	fmt.Fprintf(stdout, "\n| budget line | µs | reproduced by |\n|---|---|---|\n")
	line := func(label string, v float64, source string) {
		fmt.Fprintf(stdout, "| %s | %.1f | %s |\n", label, v, source)
	}
	line("consign: AJO encode (client) + decode (gateway)", probes["ajo.marshal_us"]+probes["ajo.unmarshal_us"], "`ajo.marshal_us` + `ajo.unmarshal_us`")
	line("consign: gateway dispatch around the NJS call", probes["gateway.stream_consign_us"]-probes["njs.consign_us"], "`gateway.stream_consign_us` − `njs.consign_us`")
	line("consign: NJS admission, no journal", probes["njs.consign_us"], "`njs.consign_us`")
	line("consign: journal, admission to durable", probes["njs.consign_durable_us"]-probes["njs.consign_us"], "`njs.consign_durable_us` − `njs.consign_us`")
	line("consign: one journal entry appended and synced alone", probes["journal.append_sync_us"], "`journal.append_sync_us`")
	line("consign: one journal entry inside a 64-entry group commit", probes["journal.append_batch_us_per_entry"], "`journal.append_batch_us_per_entry`")
	line("consign: pool routing over two replicas (not on this path: single NJS)", probes["pool.route_overhead_us"], "`pool.route_overhead_us`")
	line("envelope: seal", probes["protocol.seal_us"], "`protocol.seal_us`")
	line("envelope: open (parse, chain verify, signature verify)", probes["protocol.open_us"], "`protocol.open_us`")
	line("event batch: NJS read of one job's stream", probes["njs.events_read_us"], "`njs.events_read_us`")
	line("event batch: event log read, 32 events", probes["events.job_events_us"], "`events.job_events_us`")
	line("staged MB: frame encode", perMB("protocol.frame_encode_MB_per_s"), "`protocol.frame_encode_MB_per_s`")
	line("staged MB: frame decode", perMB("protocol.frame_decode_MB_per_s"), "`protocol.frame_decode_MB_per_s`")
	line("staged MB up: spool chunk write", perMB("staging.spool_chunk_MB_per_s"), "`staging.spool_chunk_MB_per_s`")
	line("staged MB up: commit (16 MiB reassembly + CRC), per MB", probes["staging.spool_commit_ms"]*1e3/16, "`staging.spool_commit_ms` / 16")
	line("staged MB up: vfs write", perMB("vfs.write_MB_per_s"), "`vfs.write_MB_per_s`")
	line("staged MB down: NJS ranged fetch", perMB("njs.fetch_range_MB_per_s"), "`njs.fetch_range_MB_per_s`")
	line("staged MB down: vfs ranged read", perMB("vfs.read_range_MB_per_s"), "`vfs.read_range_MB_per_s`")
	line("staged MB: TLS echo on loopback (the floor)", perMB("wire.tls_echo_MB_per_s"), "`wire.tls_echo_MB_per_s`")
	return 0
}
