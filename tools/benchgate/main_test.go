package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func mustReadBenchmark(t *testing.T) benchmark {
	t.Helper()
	bm, err := readBenchmark("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return bm
}

// run is a canned bench run: workload → metric → value, plus what the result
// line says of it.
type run map[string]*canned

type canned struct {
	correct bool
	failed  int
	values  map[string]float64
}

// cannedRun has every workload of bm correct, each named metric at 100 and
// the envelope count at 0.
func cannedRun(bm benchmark, names []string) run {
	r := run{}
	for _, w := range bm.Workloads {
		c := &canned{correct: true, values: map[string]float64{}}
		for _, n := range names {
			c.values[n] = 100
		}
		c.values["gateway.envelopes_per_op"] = 0
		r[w.Name] = c
	}
	return r
}

// output prints r the way bench prints a run: header, metric lines, a
// comment, the result line.
func (r run) output() string {
	var b strings.Builder
	for name, c := range r {
		fmt.Fprintf(&b, "# %s seed=1 rounds=8 ops=19200 failed=%d timed=6.54s state_fs=disk calib_drift=2.6%%\n", name, c.failed)
		var metrics []string
		for n, v := range c.values {
			fmt.Fprintf(&b, "%s %s %.6g count\n", name, n, v)
			metrics = append(metrics, fmt.Sprintf(`%q:{"value":%v,"unit":"count"}`, n, v))
		}
		fmt.Fprintf(&b, "# %s time diagnostics, not gated; latency samples=9600\n", name)
		fmt.Fprintf(&b, `{"correct":%v,"attempted":19200,"failed":%d,"metrics":{%s}}`+"\n", c.correct, c.failed, strings.Join(metrics, ","))
	}
	return b.String()
}

func TestCompare(t *testing.T) {
	bm := mustReadBenchmark(t)
	var endToEnd []string
	for _, m := range bm.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	cases := []struct {
		name   string
		change func(plain, traced run, last *entry)
		want   string // in the one failure; "" = the gate passes
	}{
		{"counter within threshold", func(p, _ run, _ *entry) { p["job_cycle"].values["allocs_per_op"] = 100.9 }, ""},
		{"counter past threshold", func(p, _ run, _ *entry) { p["job_cycle"].values["allocs_per_op"] = 101.5 }, "job_cycle allocs_per_op"},
		{"a better count passes", func(p, tr run, _ *entry) {
			p["stage_upload"].values["wire_KB_per_op"], tr["job_cycle"].values["njs.calls_per_op"] = 50, 99
		}, ""},
		{"per-layer count rose", func(_, tr run, _ *entry) { tr["job_cycle"].values["journal.appends_per_op"] = 101 }, "job_cycle journal.appends_per_op"},
		{"zero baseline stays zero", func(_, _ run, _ *entry) {}, ""},
		{"zero baseline must stay zero", func(_, tr run, _ *entry) { tr["monitor_mix"].values["gateway.envelopes_per_op"] = 1 }, "monitor_mix gateway.envelopes_per_op: 0 → 1"},
		{"one envelope in a thousand requests", func(_, tr run, _ *entry) { tr["stage_download"].values["gateway.envelopes_per_op"] = 0.001 }, "stage_download gateway.envelopes_per_op"},
		{"ungated unit", func(p, _ run, _ *entry) { p["consign_durable"].values["setup_s"] = 1000 }, ""},
		{"a failed op", func(p, _ run, _ *entry) { p["job_cycle"].failed = 1 }, "job_cycle: plain run: present=true correct=true failed=1"},
		{"an incorrect traced run", func(_, tr run, _ *entry) { tr["stage_upload"].correct = false }, "stage_upload: traced run: present=true correct=false"},
		{"workload missing from the run", func(p, _ run, _ *entry) { delete(p, "monitor_mix") }, "monitor_mix: plain run: present=false"},
		{"workload missing from the history line", func(_, _ run, l *entry) { delete(l.Workloads, "job_cycle") }, `job_cycle: missing from history line "last"`},
		{"only what the line carries is compared", func(_, tr run, l *entry) {
			delete(l.Workloads["job_cycle"], "njs.calls_per_op") // as in a back-filled line
			tr["job_cycle"].values["njs.calls_per_op"] = 200
		}, ""},
		{"a carried metric the run lacks", func(_, _ run, l *entry) { l.Workloads["job_cycle"]["wire.writes_per_op"] = 4 }, "job_cycle wire.writes_per_op"},
		{"another Go minor version", func(_, _ run, l *entry) { l.Go = "go1.3.1" }, `recorded under "go1.3.1"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plain, traced := cannedRun(bm, endToEnd), cannedRun(bm, tracedCounts)
			last := entry{Label: "last", Go: goMinor(runtime.Version()) + ".99"} // the patch version is not compared
			last.Workloads, _ = collect(bm, parseRun(plain.output()), parseRun(traced.output()))
			tc.change(plain, traced, &last)
			cur := entry{Go: runtime.Version()}
			var got []string
			cur.Workloads, got = collect(bm, parseRun(plain.output()), parseRun(traced.output()))
			got = append(got, compare(bm, last, cur)...)
			switch {
			case tc.want == "" && len(got) != 0:
				t.Fatalf("unexpected failures: %v", got)
			case tc.want != "" && (len(got) != 1 || !strings.Contains(got[0], tc.want)):
				t.Fatalf("failures %v, want one containing %q", got, tc.want)
			}
		})
	}
}

func TestRecordAppendsOneLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), historyPath)
	earlier := "{\"label\":\"PR 1\",\"source\":\"backfill\",  \"workloads\":{}}\n"
	if err := os.WriteFile(path, []byte(earlier), 0o644); err != nil {
		t.Fatal(err)
	}
	e := entry{Label: "PR 2", Source: "run", Go: "go1.24.0", Workloads: map[string]map[string]float64{"job_cycle": {"allocs_per_op": 470.1}}}
	if err := record(path, e); err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(path)
	rest, ok := strings.CutPrefix(string(raw), earlier)
	if !ok || strings.Count(rest, "\n") != 1 || !strings.HasSuffix(rest, "\n") {
		t.Fatalf("history after record:\n%s", raw)
	}
	past, err := readHistory(path)
	if err != nil || len(past) != 2 || past[1].Label != "PR 2" || past[1].Workloads["job_cycle"]["allocs_per_op"] != 470.1 {
		t.Fatalf("history %+v, err %v", past, err)
	}
}

// TestCommittedHistory reads the repository's own BENCH_HISTORY.jsonl: every
// line parses, and the last is a recorded run that carries every end-to-end
// metric and every traced count for every workload, so no comparison against
// it passes for want of a figure.
func TestCommittedHistory(t *testing.T) {
	bm := mustReadBenchmark(t)
	past, err := readHistory("../../" + historyPath)
	if err != nil {
		t.Fatal(err)
	}
	perLayer := map[string]bool{}
	for _, m := range bm.PerLayer {
		perLayer[m.Name] = true
	}
	want := append([]string{}, tracedCounts...)
	for _, n := range tracedCounts {
		if !perLayer[n] {
			t.Errorf("tracedCounts names %s, not a per_layer metric of BENCHMARK.json", n)
		}
	}
	for _, m := range bm.EndToEnd {
		want = append(want, m.Name)
	}
	last := past[len(past)-1]
	if last.Source != "run" || last.Go == "" {
		t.Fatalf("last line %q has source %q, go %q; want a recorded run", last.Label, last.Source, last.Go)
	}
	for _, w := range bm.Workloads {
		for _, n := range want {
			if _, ok := last.Workloads[w.Name][n]; !ok {
				t.Errorf("last line %q: %s lacks %s", last.Label, w.Name, n)
			}
		}
	}
}
