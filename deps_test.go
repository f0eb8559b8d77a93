package unicore_test

import (
	"encoding/json"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"unicore/internal/analysis"
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

// TestOneChecksum keeps CRC-64 in one place: internal/checksum is the only
// non-test package that imports hash/crc64, so every checksummed byte — a
// staged chunk, a download, a vfs file sum, a journal frame — goes through
// its kernel. bench is exempt by name: its calibration, blob and sink
// compute hash/crc64 directly and stay frozen until the benchmark is next
// changed (ROADMAP item 1). Tests may use hash/crc64 as their reference.
func TestOneChecksum(t *testing.T) {
	out, err := exec.Command("go", "list", "-f", `{{.ImportPath}} {{join .Imports " "}}`, "./...").CombinedOutput()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, out)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) < 10 {
		t.Fatalf("go list named only %d packages:\n%s", len(lines), out)
	}
	owners := 0
	for _, line := range lines {
		fields := strings.Fields(line)
		if !slices.Contains(fields[1:], "hash/crc64") {
			continue
		}
		switch fields[0] {
		case "unicore/internal/checksum":
			owners++
		case "unicore/bench":
		default:
			t.Errorf("%s imports hash/crc64; checksum with unicore/internal/checksum", fields[0])
		}
	}
	if owners != 1 {
		t.Errorf("unicore/internal/checksum does not import hash/crc64: the check above has nothing to keep")
	}
}

// TestNothingIsUnused keeps every package-level object and method of the
// module reachable from something other than a test: another package, a
// command, an example, a tool, the benchmark, or the facade in unicore.go.
// An exported function only a test calls is code the product carries for
// nobody. Test harness the product ships for other packages' tests stays on
// unusedAllowed, one reason per entry; the list only ever shrinks.
func TestNothingIsUnused(t *testing.T) {
	found, err := unusedObjects(".")
	if err != nil {
		t.Fatal(err)
	}
	for key, pos := range found {
		if _, ok := unusedAllowed[key]; !ok {
			t.Errorf("%s: %s is used nowhere or only by tests; delete it", pos, key)
		}
	}
	for key, reason := range unusedAllowed {
		if _, ok := found[key]; !ok {
			t.Errorf("unusedAllowed names %s, which is gone or has a caller now; delete the entry", key)
		}
		if strings.TrimSpace(reason) == "" {
			t.Errorf("unusedAllowed entry %s has no reason", key)
		}
	}
}

// TestNothingIsUnusedFixture runs the check behind TestNothingIsUnused over
// testdata/unused, a module whose comments say what must and must not be
// reported.
func TestNothingIsUnusedFixture(t *testing.T) {
	found, err := unusedObjects(filepath.Join("testdata", "unused"))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for key := range found {
		got = append(got, key)
	}
	sort.Strings(got)
	want := []string{
		"fixture/lib.Box.Unused", "fixture/lib.OnlyTestsCall",
		"fixture/lib.Orphan", "fixture/lib.Orphan.Touch", "fixture/lib.Reader.Nowhere",
		"fixture/session.S.Attach",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("reported %q, want %q", got, want)
	}
}

// unusedAllowed names the objects TestNothingIsUnused tolerates, each with
// the reason it ships although no shipped code calls it. Entries may be
// removed, never added.
var unusedAllowed = map[string]string{
	"unicore/bench.nameRE": "bench/ is frozen for the benchmark; its test checks metric names with it",

	"unicore/internal/protocol.NewFlaky":          "test harness: protocol and gateway tests inject message loss and stream kills",
	"unicore/internal/protocol.Flaky.Stats":       "test harness: protocol tests count the messages Flaky dropped",
	"unicore/internal/protocol.Flaky.KillStreams": "test harness: protocol and gateway tests sever live streams",

	"unicore/internal/protocol.SimulateRobustness":             "ROADMAP item 12",
	"unicore/internal/protocol.RobustnessStats.CompletionRate": "ROADMAP item 12",
	"unicore/internal/protocol.RobustnessStats.MeanWall":       "ROADMAP item 12",

	"unicore/internal/njs.NJS.StagingSpool": "test harness: client and testbed tests inspect a Vsite's upload spool",
	"unicore/internal/njs.NJS.Instance":     "test harness: deploy, controller and testbed tests find the replica that minted a job",

	"unicore/internal/uspace.Space.WriteXspace": "test harness: E5 and the njs and asi tests seed and read users' home files",
	"unicore/internal/uspace.Space.ReadXspace":  "test harness: E5 and the njs and asi tests seed and read users' home files",

	"unicore/internal/gateway.Gateway.Backend": "test harness: deploy and unicore-gateway tests reach the tier behind a gateway",
	"unicore/internal/vfs.FS.Used":             "test harness: vfs and njs tests check quota accounting",
	"unicore/internal/protocol.Op.Frames":      "test harness: gateway tests check docs/PROTOCOL.md's frame column against it",
}

// unusedObjects type-checks every package of the module rooted at dir and
// returns the package-level objects and methods declared in non-test files
// that no non-test file uses, keyed by import path and name, with their
// positions. Not reported: main and init; anything in a package whose name
// ends in "test" (harness for tests); the exported names of the module's
// root package (the facade's API); and methods that satisfy an interface the
// type meets, from the module or the standard library, since a call through
// the interface names the interface's method instead. A method of a type the
// facade aliases is reported like any other: the facade re-exports the
// type, not a promise that each of its methods has a caller.
func unusedObjects(dir string) (map[string]token.Position, error) {
	l := analysis.NewLoader()
	l.Dir = dir
	pkgs, err := l.LoadAll("./...")
	if err != nil {
		return nil, err
	}
	type decl struct {
		pos, end token.Pos
		pkg      *analysis.Package
	}
	decls := map[types.Object]decl{}
	receivers := map[*ast.Ident]bool{}
	var facade *types.Package
	for _, p := range pkgs {
		if facade == nil || len(p.Pkg.Path()) < len(facade.Path()) {
			facade = p.Pkg
		}
		if strings.HasSuffix(p.Pkg.Name(), "test") {
			continue
		}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv != nil {
						ast.Inspect(d.Recv, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok {
								receivers[id] = true
							}
							return true
						})
					} else if d.Name.Name == "main" || d.Name.Name == "init" {
						continue
					}
					decls[p.Info.Defs[d.Name]] = decl{d.Pos(), d.End(), p}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						var names []*ast.Ident
						switch s := spec.(type) {
						case *ast.TypeSpec:
							names = []*ast.Ident{s.Name}
						case *ast.ValueSpec:
							names = s.Names
						}
						for _, n := range names {
							if n.Name != "_" {
								decls[p.Info.Defs[n]] = decl{n.Pos(), n.End(), p}
							}
						}
					}
				}
			}
		}
	}

	used := map[types.Object]bool{}
	for _, p := range pkgs {
		for id, obj := range p.Info.Uses {
			if f, ok := obj.(*types.Func); ok {
				obj = f.Origin()
			}
			if d, ok := decls[obj]; ok && !receivers[id] && (id.Pos() < d.pos || id.Pos() >= d.end) {
				used[obj] = true
			}
		}
	}

	// Every interface a method could be satisfying: the error type, the
	// named interfaces of every package in the program, and the interface
	// literals the module's code writes. A generic type satisfies them
	// through its instances, which the module's code also writes.
	ifaces := map[string][]*types.Interface{}
	instances := map[*types.Named]map[string]*types.Named{}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				ifaces[it.Method(i).Name()] = append(ifaces[it.Method(i).Name()], it)
			}
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, p := range pkgs {
		walk(p.Pkg)
		for _, tv := range p.Info.Types {
			if tv.IsType() {
				addIface(tv.Type)
			}
			if n, ok := types.Unalias(tv.Type).(*types.Named); ok && n.Origin() != n {
				if instances[n.Origin()] == nil {
					instances[n.Origin()] = map[string]*types.Named{}
				}
				instances[n.Origin()][n.String()] = n
			}
		}
	}

	found := map[string]token.Position{}
	for obj, d := range decls {
		if used[obj] || obj.Pkg() == facade && obj.Exported() {
			continue
		}
		key := obj.Pkg().Path() + "." + obj.Name()
		if f, ok := obj.(*types.Func); ok {
			if recv := f.Type().(*types.Signature).Recv(); recv != nil {
				n := analysis.Named(recv.Type()).Origin()
				forms := []*types.Named{n}
				for _, inst := range instances[n] {
					forms = append(forms, inst)
				}
				if satisfies(forms, ifaces[f.Name()]) || errorsCalls[f.Name()] && satisfies(forms, ifaces["Error"]) {
					continue
				}
				key = obj.Pkg().Path() + "." + n.Obj().Name() + "." + obj.Name()
			}
		}
		found[key] = d.pkg.Fset.Position(d.pos)
	}
	return found, nil
}

// errorsCalls names the methods errors.Is, errors.As and errors.Unwrap call
// on an error through interfaces package errors does not export.
var errorsCalls = map[string]bool{"Is": true, "As": true, "Unwrap": true}

// satisfies reports whether one of the types, or a pointer to it, implements
// one of the interfaces.
func satisfies(forms []*types.Named, ifaces []*types.Interface) bool {
	for _, n := range forms {
		for _, it := range ifaces {
			if types.Implements(n, it) || types.Implements(types.NewPointer(n), it) {
				return true
			}
		}
	}
	return false
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
