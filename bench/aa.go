package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// The A/A tool answers one question: run twice on the same code, does the
// benchmark agree with itself within its own bounds? It starts 2N fresh
// processes of this binary, alternating between set A and set B, each run
// with its own seed, and compares the sets the way the driver compares a
// change with its parent.

// aaValues is metric values keyed by "workload metric".
type aaValues map[string][]float64

func runAA(o options, stdout io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	sets := [2]aaValues{{}, {}}
	for i := 0; i < 2*o.aa; i++ {
		seed := o.seed + int64(i)
		cmd := exec.Command(exe, "-workload", o.workload, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-state-dir", o.stateDir, "-out", o.outDir,
			"-scale", strconv.FormatFloat(o.scale, 'g', -1, 64))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: run %d (seed %d) failed: %v\n%s", i, seed, err, out)
			return 1
		}
		fmt.Fprintf(os.Stderr, "bench: A/A run %d/%d (set %c, seed %d) done\n", i+1, 2*o.aa, 'A'+i%2, seed)
		parseRun(out, sets[i%2])
	}
	return reportAA(o, sets, stdout)
}

// parseRun collects the `workload metric value unit` lines of one run.
func parseRun(out []byte, into aaValues) {
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 4 || findWorkload(f[0]) == nil {
			continue
		}
		if v, err := strconv.ParseFloat(f[2], 64); err == nil {
			into[f[0]+" "+f[1]] = append(into[f[0]+" "+f[1]], v)
		}
	}
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) does (the exclusive method),
// which is what the driver uses.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func reportAA(o options, sets [2]aaValues, stdout io.Writer) int {
	fmt.Fprintf(stdout, "A/A: 2 x %d runs, %gs each, seeds %d..%d; spread = (Q3-Q1)/median\n",
		o.aa, o.seconds, o.seed, o.seed+int64(2*o.aa)-1)
	fmt.Fprintf(stdout, "%-16s %-22s %12s %12s %8s %9s %9s %7s\n",
		"workload", "metric", "median A", "median B", "diff", "spread A", "spread B", "bound")
	code := 0
	defs := append(append([]metricDef{}, endToEnd...), timeDiagnostics...)
	for _, w := range workloads {
		for _, d := range defs {
			a, b := sets[0][w.name+" "+d.name], sets[1][w.name+" "+d.name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			a1, am, a3 := quartiles(a)
			b1, bm, b3 := quartiles(b)
			diff := (bm - am) / am
			sa, sb := (a3-a1)/am, (b3-b1)/bm
			bound := "      -" // a diagnostic: reported, not judged
			if d.bound > 0 {
				bound = fmt.Sprintf("%6.0f%%", d.bound*100)
				// setup_s is judged on its medians only, as the driver does.
				if math.Abs(diff) > d.bound || (d.name != "setup_s" && (sa > d.bound || sb > d.bound)) {
					bound += "  EXCEEDS"
					code = 1
				}
			}
			fmt.Fprintf(stdout, "%-16s %-22s %12.6g %12.6g %+7.1f%% %8.1f%% %8.1f%% %s\n",
				w.name, d.name, am, bm, diff*100, sa*100, sb*100, bound)
		}
	}
	if o.scale != 1 {
		fmt.Fprintf(stdout, "scale=%g: not comparable\n", o.scale)
	}
	return code
}
