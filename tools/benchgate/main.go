// Command benchgate is CI's one performance gate. From the repository root it
// runs `go run ./bench` and `go run ./bench -trace`, echoes their output, and
// fails when a workload of BENCHMARK.json is missing, incorrect or had a
// failed op, or when a count is worse than the last line of
// BENCH_HISTORY.jsonl: an end-to-end count by more than its BENCHMARK.json
// bound, a per-layer count at all. Bounds and directions are BENCHMARK.json's;
// the gate has none of its own.
//
//	go run ./tools/benchgate                  # gate against the last history line
//	go run ./tools/benchgate -record "PR 21"  # and append this run as a new line
//
// -record appends whenever the run itself is sound, also when it is worse than
// the line before it; the exit status and the FAIL lines still say so, and the
// new line is in the PR's diff for a reviewer to accept or not.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

const historyPath = "BENCH_HISTORY.jsonl"

// tracedCounts are the per-layer figures a history line takes from the
// traced run: counts per operation that the program fixes, not the machine
// (journal.syncs_per_op counts durable acks' sync calls, which group commit
// may merge into fewer fsyncs, so it too is exact). All seven read the same to
// the last digit across three runs on the box that recorded the first line.
var tracedCounts = []string{
	"gateway.envelopes_per_op", "pki.verifies_per_op", "gateway.stream_frames_per_op",
	"njs.calls_per_op", "journal.appends_per_op", "journal.syncs_per_op", "staging.chunks_per_op",
}

// reportOnly is recorded in every line and never compared: it is wall clock,
// so it differs between machines.
const reportOnly = "setup_s"

// metric is a row of BENCHMARK.json's end_to_end or per_layer table. A
// per-layer row has no bound: any move in the worse direction fails.
type metric struct {
	Name, Better string
	Bound        float64
}

type benchmark struct {
	Workloads []struct{ Name string }
	EndToEnd  []metric `json:"end_to_end"`
	PerLayer  []metric `json:"per_layer"`
}

// entry is one line of BENCH_HISTORY.jsonl. Source is "run" for a line
// -record wrote and "backfill" for one copied from figures written down at
// the time, which carries only those.
type entry struct {
	Label     string                        `json:"label"`
	Source    string                        `json:"source"`
	Commit    string                        `json:"commit,omitempty"`
	Go        string                        `json:"go,omitempty"`
	Workloads map[string]map[string]float64 `json:"workloads"`
}

// result is the JSON line that ends each workload of bench's output.
type result struct {
	Correct bool
	Failed  int
	Metrics map[string]struct{ Value float64 }
}

func main() {
	label := flag.String("record", "", "append this run to "+historyPath+" under this label")
	flag.Parse()
	bm, err := readBenchmark("BENCHMARK.json")
	var past []entry
	if err == nil {
		past, err = readHistory(historyPath)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(1)
	}
	last := past[len(past)-1]
	commit, _ := exec.Command("git", "describe", "--always", "--dirty").Output() // empty outside a checkout
	cur := entry{Label: *label, Source: "run", Commit: strings.TrimSpace(string(commit)), Go: runtime.Version()}
	var fails []string
	cur.Workloads, fails = collect(bm, parseRun(runBench()), parseRun(runBench("-trace")))
	if *label != "" && len(fails) == 0 {
		if err := record(historyPath, cur); err != nil {
			fails = append(fails, err.Error())
		} else {
			fmt.Printf("benchgate: recorded %q in %s\n", *label, historyPath)
		}
	}
	verdict := fmt.Sprintf("every gated count holds against %q", last.Label)
	if *label != "" && goMinor(last.Go) != goMinor(cur.Go) {
		// A new line may open a new Go version; nothing else skips the comparison.
		verdict = fmt.Sprintf("not compared with %q, recorded under %q", last.Label, last.Go)
	} else {
		fails = append(fails, compare(bm, last, cur)...)
	}
	for _, f := range fails {
		fmt.Printf("benchgate: FAIL: %s\n", f)
	}
	if len(fails) > 0 {
		os.Exit(1)
	}
	fmt.Println("benchgate:", verdict)
}

// runBench runs the benchmark and echoes its output. Its exit status is not
// looked at: a run that failed shows in collect as a workload missing or
// incorrect.
func runBench(args ...string) string {
	var out bytes.Buffer
	cmd := exec.Command("go", append([]string{"run", "./bench"}, args...)...)
	cmd.Stdout, cmd.Stderr = io.MultiWriter(os.Stdout, &out), os.Stderr
	_ = cmd.Run()
	return out.String()
}

// parseRun reads bench's output: a `# <workload> seed=…` header opens a
// workload, and the JSON line after its metric lines is its result.
func parseRun(out string) map[string]result {
	results := map[string]result{}
	var name string
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) > 2 && f[0] == "#" && strings.HasPrefix(f[2], "seed=") {
			name = f[1]
		}
		var r result
		if strings.HasPrefix(line, "{") && json.Unmarshal([]byte(line), &r) == nil {
			results[name] = r
		}
	}
	return results
}

// collect takes from the two runs the figures a history line carries, and
// names every workload that a run lacks or did not get right.
func collect(bm benchmark, plain, traced map[string]result) (map[string]map[string]float64, []string) {
	var endToEnd, fails []string
	for _, m := range bm.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	out := map[string]map[string]float64{}
	for _, w := range bm.Workloads {
		out[w.Name] = map[string]float64{}
		for _, run := range []struct {
			kind    string
			results map[string]result
			names   []string
		}{{"plain", plain, endToEnd}, {"traced", traced, tracedCounts}} {
			r, ok := run.results[w.Name]
			if !ok || !r.Correct || r.Failed > 0 {
				fails = append(fails, fmt.Sprintf("%s: %s run: present=%v correct=%v failed=%d", w.Name, run.kind, ok, r.Correct, r.Failed))
			}
			for _, n := range run.names {
				out[w.Name][n] = r.Metrics[n].Value
			}
		}
	}
	return out, fails
}

// compare holds cur against last on every figure last carries, for every
// workload of BENCHMARK.json.
func compare(bm benchmark, last, cur entry) []string {
	if goMinor(last.Go) != goMinor(cur.Go) {
		return []string{fmt.Sprintf("history line %q was recorded under %q and this run is %s: counts are not compared across Go minor versions, record a new line",
			last.Label, last.Go, cur.Go)}
	}
	metrics := append(append([]metric{}, bm.EndToEnd...), bm.PerLayer...)
	var fails []string
	for _, w := range bm.Workloads {
		lw, ok := last.Workloads[w.Name]
		if !ok {
			fails = append(fails, fmt.Sprintf("%s: missing from history line %q", w.Name, last.Label))
		}
		for _, m := range metrics {
			l, carried := lw[m.Name]
			c, ok := cur.Workloads[w.Name][m.Name]
			sign := 1.0
			if m.Better == "higher" {
				sign = -1
			}
			switch {
			case !carried || m.Name == reportOnly:
			case !ok:
				fails = append(fails, fmt.Sprintf("%s %s: in history line %q, not in this run", w.Name, m.Name, last.Label))
			case sign*(c-l) > m.Bound*math.Abs(l): // with l = 0 no bound is a tolerance: a zero stays zero
				fails = append(fails, fmt.Sprintf("%s %s: %.6g → %.6g, worse than %q by more than %g%%",
					w.Name, m.Name, l, c, last.Label, m.Bound*100))
			}
		}
	}
	return fails
}

// goMinor cuts "go1.24.3" to "go1.24".
func goMinor(v string) string {
	if p := strings.SplitN(v, ".", 3); len(p) == 3 {
		return p[0] + "." + p[1]
	}
	return v
}

func readBenchmark(path string) (benchmark, error) {
	var bm benchmark
	raw, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(raw, &bm)
	}
	return bm, err
}

// readHistory returns every line of the history, oldest first; there is at
// least one, and a line that does not parse is an error.
func readHistory(path string) ([]entry, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var past []entry
	for i, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var e entry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, i+1, err)
		}
		past = append(past, e)
	}
	return past, nil
}

// record appends e as one line; earlier lines are never rewritten.
func record(path string, e entry) error {
	line, err := json.Marshal(e)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(append(line, '\n'))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
