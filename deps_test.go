package unicore_test

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"unicore/internal/njs"
	"unicore/internal/pool"
)

// TestNoPackageImportsGob keeps the repository at two serialisation schemes:
// the binary codec built on internal/bin, and JSON for signed envelopes and
// the CLI. encoding/gob carried the AJO and the journal record once; a new
// import of it, in code or in a test, would be a third scheme growing back.
func TestNoPackageImportsGob(t *testing.T) {
	const format = `{{.ImportPath}} {{join .Imports " "}} {{join .TestImports " "}} {{join .XTestImports " "}}`
	out, err := exec.Command("go", "list", "-f", format, "./...").CombinedOutput()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, out)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) < 10 {
		t.Fatalf("go list named only %d packages:\n%s", len(lines), out)
	}
	for _, line := range lines {
		fields := strings.Fields(line)
		for _, imp := range fields[1:] {
			if imp == "encoding/gob" {
				t.Errorf("%s imports encoding/gob", fields[0])
			}
		}
	}
}

// TestServingTiersEncodeOutcomesOnce keeps the JSON form of an outcome tree
// where it belongs, in the CLI: the NJS copies a tree structurally and the
// gateway encodes it once, in the binary form, for either door. A call to
// ajo.MarshalOutcomeJSON in those tiers is the old per-request JSON round
// trip growing back.
func TestServingTiersEncodeOutcomesOnce(t *testing.T) {
	for _, dir := range []string{"internal/njs", "internal/gateway"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no Go files under %s (%v)", dir, err)
		}
		for _, file := range files {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			if strings.Contains(string(src), "MarshalOutcomeJSON") {
				t.Errorf("%s calls ajo.MarshalOutcomeJSON", file)
			}
		}
	}
}

// TestPerformanceDocNamesBenchmarkMetrics keeps docs/PERFORMANCE.md — the
// generated per-layer budget — reproducible: every backticked name in it is
// an end_to_end or per_layer metric of BENCHMARK.json, so a metric renamed
// or dropped from the benchmark fails here until the table is regenerated.
func TestPerformanceDocNamesBenchmarkMetrics(t *testing.T) {
	var bm struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(raw, &bm)
	}
	if err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{}
	for _, m := range append(bm.EndToEnd, bm.PerLayer...) {
		known[m.Name] = true
	}
	doc, err := os.ReadFile("docs/PERFORMANCE.md")
	if err != nil {
		t.Fatal(err)
	}
	names := regexp.MustCompile("`([A-Za-z0-9_.]+)`").FindAllStringSubmatch(string(doc), -1)
	if len(names) < 30 {
		t.Fatalf("docs/PERFORMANCE.md names only %d metrics; is it the output of go run ./bench -budget?", len(names))
	}
	for _, n := range names {
		if !known[n[1]] {
			t.Errorf("docs/PERFORMANCE.md names `%s`, which BENCHMARK.json does not", n[1])
		}
	}
}

// TestEveryMessageIsDescribedOnce keeps each wire, AJO and journal message at
// one description, the walk that package bin runs in both directions. The
// primitives it replaced (package bin's Reader type and Append functions) and
// an enc…/dec… function beside a codec are how a second description of a
// message, in a second field order, would grow back.
func TestEveryMessageIsDescribedOnce(t *testing.T) {
	half := regexp.MustCompile(`(?m)^func (\([^)]*\) )?(enc|dec)[A-Z]\w*[(\[]`)
	for dir, re := range map[string]*regexp.Regexp{
		"internal/bin":      regexp.MustCompile(`(?m)^func (\([^)]*\) )?Append[A-Z]\w*\(|^type Reader\b`),
		"internal/protocol": half, "internal/ajo": half, "internal/journal": half,
	} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no Go files under %s (%v)", dir, err)
		}
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range re.FindAllString(string(src), -1) {
				t.Errorf("%s declares %q", file, strings.TrimRight(decl, "(["))
			}
		}
	}
}

// TestClientsHaveOneDoor keeps every client op on the frame stream. The
// client's envelope fallback and its switches (Client.DisableStreams, the
// sticky noStream verdict, HTTPShim/OverHTTP) and the firewall split's
// private protocol (gateway.NewInner, a writeFrame/readFrame pair of its own,
// its hand-rolled idle pool) are how a second door for clients would grow
// back.
func TestClientsHaveOneDoor(t *testing.T) {
	gone := regexp.MustCompile(`DisableStreams|HTTPShim|OverHTTP|noStream|NewInner|maxIdleInner`)
	framing := regexp.MustCompile(`(?m)^func (\([^)]*\) )?(writeFrame|readFrame)\(`)
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || path == "deps_test.go" {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, name := range gone.FindAllString(string(src), -1) {
			t.Errorf("%s names %s", path, name)
		}
		if filepath.Dir(path) == filepath.Join("internal", "gateway") {
			for _, decl := range framing.FindAllString(string(src), -1) {
				t.Errorf("%s declares %q: the split speaks protocol frames", path, strings.TrimRight(decl, "("))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPoolsHaveOneBuilder keeps controller.NewStack the only place a replica
// pool is assembled: `unicore-ctl apply`, `unicore-gateway -replicas` and the
// testbed all crash and heal the same stack. A second pool.NewRouter/pool.New
// call site, the testbed's by-index restart API, the gateway's NJS-typed
// backend setter, or an njs.Service wider than the 16 methods a pool has to
// route are how the hand-wired pool would grow back.
func TestPoolsHaveOneBuilder(t *testing.T) {
	build := regexp.MustCompile(`pool\.(NewRouter|New)\(`)
	restart := regexp.MustCompile(`EnableReplicaDurability|RestartReplica`)
	setNJS := regexp.MustCompile(`(?m)^func \([^)]*\) SetNJS\(`)
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		dir := filepath.Dir(path)
		if !strings.HasSuffix(path, "_test.go") && dir != filepath.Join("internal", "controller") {
			for _, call := range build.FindAllString(string(src), -1) {
				t.Errorf("%s calls %s…): pools are built by controller.NewStack", path, call)
			}
		}
		if dir == filepath.Join("internal", "testbed") {
			for _, name := range restart.FindAllString(string(src), -1) {
				t.Errorf("%s names %s: a replica is healed by ManagedSite.Reconcile", path, name)
			}
		}
		if dir == filepath.Join("internal", "gateway") && setNJS.MatchString(string(src)) {
			t.Errorf("%s declares SetNJS: SetBackend takes a *njs.NJS", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := reflect.TypeOf((*njs.Service)(nil)).Elem().NumMethod(); n > 16 {
		t.Errorf("njs.Service has %d methods, want at most 16", n)
	}
}

// TestPoolRoutesByName keeps the pool's routing stateless: every job ID and
// staged-upload handle names the replica that minted it, so a job- or
// handle-scoped call goes there and nowhere else. A job→replica affinity
// map, a handle→replica pin map, a scatter search over replicas, or a second
// routing tier below the Router (job reads served by a ReplicaSet) are how
// the old routing would grow back.
func TestPoolRoutesByName(t *testing.T) {
	decl := regexp.MustCompile(`(?m)^\s*(func (\([^)]*\) )?|type |var |const )?(affinity|stagePin|stagePinTTL|lookupOrder|stageOrder|routeJob|routeStage|tier)\b`)
	files, err := filepath.Glob(filepath.Join("internal", "pool", "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no Go files under internal/pool (%v)", err)
	}
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range decl.FindAllString(string(src), -1) {
			t.Errorf("%s declares %q: a pooled ID names its replica", file, strings.TrimSpace(d))
		}
	}
	set := reflect.TypeOf((*pool.ReplicaSet)(nil))
	for _, m := range []string{"Poll", "Outcome", "Events", "EventsNotify", "List"} {
		if _, ok := set.MethodByName(m); ok {
			t.Errorf("*pool.ReplicaSet has %s: the Router is the pool's only njs.Service", m)
		}
	}
}
