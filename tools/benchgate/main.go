// Command benchgate is the benchmark-regression gate of the CI pipeline. It
// runs the repository's core benchmarks once, writes the parsed metrics to a
// JSON artifact (BENCH_PR.json), and fails when
//
//   - a gated metric regresses by more than -threshold (default 25%) against
//     the checked-in BENCH_BASELINE.json, or
//   - a within-run invariant is violated: the parallel staging path of
//     BenchmarkTransferThroughput must beat the sequential per-envelope
//     baseline on envelopes/MB always, and on MB/s whenever more than one
//     CPU is available (on a single core a concurrency win cannot manifest,
//     so only a no-worse-than check applies there).
//
// Gated metrics come in two kinds. The machine-independent
// protocol-efficiency figures — envelopes/job (BenchmarkAwaitEvent),
// envelopes/MB (BenchmarkTransferThroughput) and envelopes/request
// (BenchmarkConcurrentClients) — are deterministic per run, so
// a >25% increase is a real protocol regression, never runner noise — and
// where the baseline is 0 (frames carry the traffic, no envelope is spent),
// any envelope at all is the regression: a zero baseline means "must stay
// 0", not "nothing to compare against". The v3
// hot-path rate figures — consigns/sec (BenchmarkConsignRate) and events/sec
// (BenchmarkEventRate) — are wall-clock and therefore runner-dependent, so
// they gate only against a generous floor: falling below half the baseline
// rate fails the run. Other wall-clock figures (ns/op, MB/s, B/op) are
// recorded in the artifact for trend inspection but are not gated across
// machines.
//
// Usage:
//
//	go run ./tools/benchgate                 # compare against BENCH_BASELINE.json
//	go run ./tools/benchgate -update         # refresh BENCH_BASELINE.json
//	go run ./tools/benchgate -out BENCH_PR.json -threshold 0.25
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// benchRegex selects the core benchmarks the gate runs.
// BenchmarkFederatedConsign's fed-forward-ack-p99-ms is wall-clock and thus
// advisory: recorded in the artifact for trend inspection, never gated.
const benchRegex = "BenchmarkConcurrentClients$|BenchmarkAwaitEvent$|BenchmarkJournalAppend$|BenchmarkTransferThroughput|BenchmarkFederatedConsign$|BenchmarkConsignRate$|BenchmarkEventRate$"

// gatedLower lists the lower-is-better protocol-efficiency counters: a rise
// past threshold over baseline fails the gate.
var gatedLower = map[string]bool{
	"envelopes/job":     true,
	"envelopes/MB":      true,
	"envelopes/request": true,
}

// gatedRate lists the higher-is-better throughput figures of the v3 hot
// path. They are wall-clock, so the gate is a coarse floor — rateFloor of
// the recorded baseline — that catches a collapsed fast path without
// tripping on runner variance.
var gatedRate = map[string]bool{
	"consigns/sec": true,
	"events/sec":   true,
}

// rateFloor is the fraction of the baseline a gated rate may drop to.
const rateFloor = 0.50

// Report is the artifact schema (BENCH_PR.json / BENCH_BASELINE.json).
type Report struct {
	Go        string                        `json:"go"`
	Benchtime string                        `json:"benchtime"`
	Metrics   map[string]map[string]float64 `json:"metrics"` // benchmark → unit → value
}

func main() {
	var (
		baselinePath = flag.String("baseline", "BENCH_BASELINE.json", "checked-in baseline to gate against")
		outPath      = flag.String("out", "BENCH_PR.json", "artifact written with this run's metrics")
		threshold    = flag.Float64("threshold", 0.25, "allowed relative regression of a gated metric")
		benchtime    = flag.String("benchtime", "2x", "go test -benchtime per benchmark")
		update       = flag.Bool("update", false, "rewrite the baseline from this run instead of gating")
	)
	flag.Parse()

	out, err := runBenchmarks(*benchtime)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n%s", err, out)
		os.Exit(1)
	}
	report := Report{Go: runtime.Version(), Benchtime: *benchtime, Metrics: parseBench(out)}
	if len(report.Metrics) == 0 {
		fmt.Fprintf(os.Stderr, "benchgate: no benchmark results parsed\n%s", out)
		os.Exit(1)
	}
	if err := writeJSON(*outPath, report); err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("benchgate: %d benchmarks recorded in %s\n", len(report.Metrics), *outPath)

	failures := checkInvariants(report)
	if *update {
		if err := writeJSON(*baselinePath, report); err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("benchgate: baseline %s refreshed\n", *baselinePath)
	} else {
		baseline, err := readJSON(*baselinePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: reading baseline: %v (run with -update to create it)\n", err)
			os.Exit(1)
		}
		failures = append(failures, compare(baseline, report, *threshold)...)
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "benchgate: FAIL: %s\n", f)
		}
		os.Exit(1)
	}
	fmt.Println("benchgate: all gated metrics and invariants hold")
}

// runBenchmarks executes the selected benchmarks across every package.
func runBenchmarks(benchtime string) (string, error) {
	cmd := exec.Command("go", "test", "-run=NONE", "-bench", benchRegex, "-benchtime", benchtime, "./...")
	raw, err := cmd.CombinedOutput()
	return string(raw), err
}

// cpuSuffix strips go test's -GOMAXPROCS suffix from a benchmark name.
var cpuSuffix = regexp.MustCompile(`-\d+$`)

// parseBench extracts metric values from `go test -bench` output lines of the
// form: BenchmarkName[/sub]-N  <iters>  <value> <unit> [<value> <unit>]...
func parseBench(out string) map[string]map[string]float64 {
	metrics := make(map[string]map[string]float64)
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := cpuSuffix.ReplaceAllString(fields[0], "")
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			if metrics[name] == nil {
				metrics[name] = make(map[string]float64)
			}
			metrics[name][fields[i+1]] = v
		}
	}
	return metrics
}

// findOne returns the single benchmark whose name has the given prefix.
func findOne(r Report, prefix string) (string, map[string]float64, bool) {
	for name, m := range r.Metrics {
		if strings.HasPrefix(name, prefix) {
			return name, m, true
		}
	}
	return "", nil, false
}

// checkInvariants enforces the within-run claims of the staging engine.
func checkInvariants(r Report) []string {
	var failures []string
	seqName, seq, okS := findOne(r, "BenchmarkTransferThroughput/path=sequential")
	parName, par, okP := findOne(r, "BenchmarkTransferThroughput/path=parallel")
	if !okS || !okP {
		return []string{"BenchmarkTransferThroughput did not report both transfer paths"}
	}
	if par["envelopes/MB"] >= seq["envelopes/MB"] {
		failures = append(failures, fmt.Sprintf(
			"%s uses %.2f envelopes/MB, not fewer than %s's %.2f",
			parName, par["envelopes/MB"], seqName, seq["envelopes/MB"]))
	}
	// The wall-clock win needs real cores: with only one CPU the windowed
	// engine can merely tie the sequential loop (minus per-envelope fixed
	// cost), so a no-worse-than-10% check applies there.
	floor := seq["MB/s"]
	kind := "beat"
	if runtime.NumCPU() == 1 {
		floor *= 0.90
		kind = "stay within 10% of"
	}
	if par["MB/s"] < floor {
		failures = append(failures, fmt.Sprintf(
			"%s runs at %.2f MB/s and does not %s %s's %.2f MB/s (GOMAXPROCS=%d)",
			parName, par["MB/s"], kind, seqName, seq["MB/s"], runtime.NumCPU()))
	}
	return failures
}

// compare gates this run's protocol-efficiency metrics against the baseline.
func compare(baseline, current Report, threshold float64) []string {
	var failures []string
	names := make([]string, 0, len(current.Metrics))
	for name := range current.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		base, ok := baseline.Metrics[name]
		if !ok {
			continue // new benchmark: recorded, gated once the baseline knows it
		}
		for unit, cur := range current.Metrics[name] {
			b, ok := base[unit]
			if !ok || b < 0 {
				continue
			}
			switch {
			case gatedLower[unit] && b == 0 && cur > 0:
				// No percentage of zero is a tolerance: a cost the baseline
				// eliminated must stay eliminated.
				failures = append(failures, fmt.Sprintf(
					"%s %s regressed: baseline is 0, now %.3f (must stay 0)", name, unit, cur))
			case gatedLower[unit] && cur > b*(1+threshold):
				failures = append(failures, fmt.Sprintf(
					"%s %s regressed: %.3f → %.3f (>%.0f%% over baseline)",
					name, unit, b, cur, threshold*100))
			case gatedRate[unit] && b > 0 && cur < b*rateFloor:
				failures = append(failures, fmt.Sprintf(
					"%s %s collapsed: %.1f → %.1f (below %.0f%% of baseline)",
					name, unit, b, cur, rateFloor*100))
			}
		}
	}
	return failures
}

func writeJSON(path string, r Report) error {
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func readJSON(path string) (Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Report{}, err
	}
	var r Report
	if err := json.Unmarshal(raw, &r); err != nil {
		return Report{}, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}
