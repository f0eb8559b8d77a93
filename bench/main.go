// Command bench is the repository's benchmark: five workloads driven by two
// closed-loop clients against a real site served over mutual TLS on a
// loopback socket, in one process. See README.md in this directory for the
// metric definitions and how to read the output.
//
//	go run ./bench                                  every workload, end-to-end metrics
//	go run ./bench -workload job_cycle -seed 7      one workload
//	go run ./bench -trace                           adds the traced run, counts and probes
//	go run ./bench -aa 5                            A/A check of the benchmark itself
//	go run ./bench -budget                          per-layer budget table (markdown)
//
// The driver's form is
// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`; the last line of
// standard output is then the JSON result of that one workload.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	stateDir string
	outDir   string
	scale    float64
	aa       int
	budget   bool
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// normalizeArgs lets -trace be written both as a switch (`-trace`) and with
// the driver's value (`--trace 0`): a bare 0 or 1 after it is folded into
// -trace=<v>, which is the only form the flag package accepts for booleans.
func normalizeArgs(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+args[i+1])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

func run(args []string, stdout io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "all", "workload to run: all, or one of "+workloadNames())
	fs.Int64Var(&o.seed, "seed", 1, "seed for job names, payload bytes, sweep order and file order")
	fs.Float64Var(&o.seconds, "seconds", 12, "timed seconds per workload (rounds repeat until reached)")
	fs.BoolVar(&o.trace, "trace", false, "traced run: per-layer spans, counts and probes instead of end-to-end metrics")
	fs.StringVar(&o.stateDir, "state-dir", "", "parent of the journal state directory (default: the -out directory)")
	fs.StringVar(&o.outDir, "out", filepath.Join("bench", "out"), "directory for trace files and run state")
	fs.Float64Var(&o.scale, "scale", 1, "round-size multiplier; below 1 is for the smoke test and stamps the output not comparable")
	fs.IntVar(&o.aa, "aa", 0, "run two interleaved sets of N full runs of this binary and compare them")
	fs.BoolVar(&o.budget, "budget", false, "print the per-layer budget table from a traced run")
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	var ws []*workload
	if o.workload == "all" {
		ws = workloads
	} else if w := findWorkload(o.workload); w != nil {
		ws = []*workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", o.workload, workloadNames())
		return 2
	}
	if o.stateDir == "" {
		o.stateDir = o.outDir
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	switch {
	case o.aa > 0:
		return runAA(o, stdout)
	case o.budget:
		return runBudget(o, stdout)
	}
	return runWorkloads(o, ws, stdout)
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// runWorkloads runs the given workloads and prints, per workload, its metric
// lines and then its result line. A plain run prints each workload as it
// finishes. A traced run first runs every workload, then the direct probes
// once (they do not depend on the workload), and prints at the end. The state
// directory is removed on every path out, also when a run fails.
func runWorkloads(o options, ws []*workload, stdout io.Writer) (code int) {
	state, err := openStateRoot(o.stateDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	defer func() {
		if err := state.remove(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: removing state: %v\n", err)
			code = 1
		}
	}()
	ctx := context.Background()
	cal := newCalibrator(state.dir)
	seconds := o.seconds
	if o.trace {
		// Half the time goes to the workload's alternating plain and traced
		// rounds; the probes take about the other half.
		seconds /= 2
	}
	var runs []*runResult
	for _, w := range ws {
		var rec *recorder
		if o.trace {
			rec = newRecorder()
		}
		rr, err := runWorkload(ctx, w, state, cal, o.seed, seconds, o.scale, rec)
		if err == nil && o.trace {
			err = rec.write(filepath.Join(o.outDir, "trace-"+w.name+".json"), w.name, o.seed)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		if o.trace {
			runs = append(runs, rr)
		} else if !printRun(o, rr, nil, stdout) {
			code = 1
		}
	}
	if o.trace {
		probes, err := runProbes(ctx, state, o.seed, o.scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: probes: %v\n", err)
			return 1
		}
		for _, rr := range runs {
			if !printRun(o, rr, probes, stdout) {
				code = 1
			}
		}
	}
	return code
}

// printRun prints one run: a header, a line per metric, and the result line.
// It reports whether the run was correct.
func printRun(o options, rr *runResult, probes map[string]float64, stdout io.Writer) bool {
	w := rr.workload
	all := pool(rr.rounds)
	d := drift(rr.calib[0], rr.calib[1])
	fmt.Fprintf(stdout, "# %s seed=%d rounds=%d ops=%d failed=%d timed=%.2fs state_fs=%s calib_drift=%.1f%%",
		w.name, o.seed, len(rr.rounds), all.ops, all.failed, all.wall, rr.stateFS, d)
	if d > 10 {
		// The machine's own speed moved by more than a tenth while this
		// workload ran; the figures are reported, never discarded.
		fmt.Fprint(stdout, " disturbed")
	}
	if o.scale != 1 {
		fmt.Fprintf(stdout, " scale=%g not comparable", o.scale)
	}
	fmt.Fprintln(stdout)
	for _, msg := range rr.fails.msgs {
		fmt.Fprintf(stdout, "# failed: %s\n", msg)
	}

	var rep report
	var bad []string
	if o.trace {
		vals := layerValues(rr)
		for k, v := range probes {
			vals[k] = v
		}
		printMetrics(stdout, w.name+" ", perLayer, vals)
		rep, bad = buildReport(perLayer, vals, all.ops, all.failed, false)
	} else {
		vals := plainValues(rr)
		printMetrics(stdout, w.name+" ", endToEnd, vals)
		// The demoted time figures: printed for the reader and the A/A
		// tool, absent from the result line.
		fmt.Fprintf(stdout, "# %s time diagnostics, not gated; latency samples=%d\n", w.name, len(pool(rr.pick(false)).lat))
		printMetrics(stdout, w.name+" ", timeDiagnostics, vals)
		rep, bad = buildReport(endToEnd, vals, all.ops, all.failed, true)
	}
	if len(bad) > 0 {
		fmt.Fprintf(stdout, "# unusable metrics: %s\n", strings.Join(bad, ", "))
	}
	fmt.Fprintln(stdout, rep.line())
	return rep.Correct
}
