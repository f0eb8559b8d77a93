package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// TestSmoke runs all five workloads at a fiftieth of their round size, once
// plain and once traced, and fails if an operation fails its check, a named
// metric is missing or unusable, a name is malformed, or the names the
// program prints differ from those in BENCHMARK.json.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.name, w.why)
		}
	}
	sameDefs(t, "end_to_end", spec.EndToEnd, endToEnd, true)
	sameDefs(t, "per_layer", spec.PerLayer, perLayer, false)

	out := t.TempDir()
	for _, trace := range []string{"0", "1"} {
		var buf bytes.Buffer
		args := []string{"--workload", "all", "--seed", "3", "--seconds", "0", "--trace", trace, "-scale", "0.02", "-out", out}
		if code := run(args, &buf); code != 0 {
			t.Fatalf("trace=%s: exit code %d\n%s", trace, code, buf.String())
		}
		defs, positive := endToEnd, true
		if trace == "1" {
			defs, positive = perLayer, false
		}
		checkOutput(t, buf.String(), defs, positive)
	}
	for _, w := range workloads {
		if _, err := os.Stat(out + "/trace-" + w.name + ".json"); err != nil {
			t.Errorf("traced run left no span file: %v", err)
		}
	}
	if _, err := os.Stat(out + "/" + stateSubdir); !os.IsNotExist(err) {
		t.Errorf("state directory was not removed: %v", err)
	}
}

func sameDefs(t *testing.T, what string, got []jsonMetric, want []metricDef, bounded bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", what, len(got), len(want))
	}
	for i, d := range want {
		g := got[i]
		if !nameRE.MatchString(d.name) {
			t.Errorf("%s: malformed metric name %q", what, d.name)
		}
		if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
			t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program %+v", what, i, g, d)
		}
		if bounded && (g.Bound == nil || *g.Bound != d.bound) {
			t.Errorf("%s[%d] %s: bound differs from the program's %g", what, i, d.name, d.bound)
		}
		if !bounded && g.Bound != nil {
			t.Errorf("%s[%d] %s: per-layer metrics have no bound", what, i, d.name)
		}
	}
}

// checkOutput reads each workload's result line and its metric lines.
func checkOutput(t *testing.T, out string, defs []metricDef, positive bool) {
	t.Helper()
	printed := map[string]bool{}
	results := 0
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "{") {
			var rep report
			if err := json.Unmarshal([]byte(line), &rep); err != nil {
				t.Fatalf("result line: %v", err)
			}
			results++
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("result %d: correct=%v attempted=%d failed=%d", results, rep.Correct, rep.Attempted, rep.Failed)
			}
			if len(rep.Metrics) != len(defs) {
				t.Errorf("result %d carries %d metrics, want %d", results, len(rep.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := rep.Metrics[d.name]
				if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || (positive && m.Value <= 0) {
					t.Errorf("result %d: metric %s is %+v (present=%v)", results, d.name, m, ok)
				}
			}
			continue
		}
		if f := strings.Fields(line); len(f) == 4 && findWorkload(f[0]) != nil {
			printed[f[0]+" "+f[1]] = true
		}
	}
	if results != len(workloads) {
		t.Fatalf("%d result lines for %d workloads:\n%s", results, len(workloads), out)
	}
	for _, w := range workloads {
		for _, d := range defs {
			if !printed[w.name+" "+d.name] {
				t.Errorf("no line for %s %s", w.name, d.name)
			}
		}
	}
	if !strings.Contains(out, "not comparable") {
		t.Error("a scaled run must say its figures are not comparable")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 37, 2, 29, 4, 22, 7, 16, 11})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}
