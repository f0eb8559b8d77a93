package asi

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"unicore/internal/ajo"
	"unicore/internal/client"
	"unicore/internal/core"
	"unicore/internal/machine"
	"unicore/internal/resources"
	"unicore/internal/testbed"
)

var t3e = core.Target{Usite: "FZJ", Vsite: "T3E"}

// pageWith returns a T3E resource page on which the given application
// interfaces' packages are installed (at the versions they require).
func pageWith(pkgs ...*Interface) *resources.Page {
	page := machine.CrayT3E(128).ResourcePage()
	page.Target = t3e
	for _, i := range pkgs {
		page.Software = append(page.Software, resources.Software{
			Kind: resources.KindPackage, Name: i.tmpl.Package, Version: i.tmpl.Version,
		})
	}
	return &page
}

func TestTemplateValidation(t *testing.T) {
	if _, err := New(Template{}); !errors.Is(err, ErrBadTemplate) {
		t.Fatalf("empty template: %v", err)
	}
	if _, err := New(Template{Package: "X"}); !errors.Is(err, ErrBadTemplate) {
		t.Fatalf("no renderer: %v", err)
	}
	render := func(map[string]string, int) (Rendered, error) { return Rendered{}, nil }
	if _, err := New(Template{Package: "X", Render: render,
		Fields: []Field{{Name: "a"}, {Name: "a"}}}); !errors.Is(err, ErrBadTemplate) {
		t.Fatalf("duplicate field: %v", err)
	}
	if _, err := New(Template{Package: "X", Render: render,
		Fields: []Field{{Name: ""}}}); !errors.Is(err, ErrBadTemplate) {
		t.Fatalf("unnamed field: %v", err)
	}
}

func TestGaussianBuildsValidJob(t *testing.T) {
	g := Gaussian94()
	page := pageWith(Gaussian94())
	input := []byte("%Chk=water\n#HF/6-31G* Opt\n\nwater optimisation\n\n0 1\nO ...\n")
	job, err := g.BuildJob("water", t3e, page,
		map[string]string{"route": "HF/6-31G*", "nproc": "4"}, input, "/results/water")
	if err != nil {
		t.Fatalf("BuildJob: %v", err)
	}
	if err := job.Validate(); err != nil {
		t.Fatalf("built job invalid: %v", err)
	}
	// Structure: import + script + two exports.
	if got := len(job.Actions); got != 4 {
		t.Fatalf("actions = %d, want 4", got)
	}
	var script *ajo.ScriptTask
	exports := 0
	for _, a := range job.Actions {
		switch v := a.(type) {
		case *ajo.ScriptTask:
			script = v
		case *ajo.ExportTask:
			exports++
			if !strings.HasPrefix(v.ToXspace, "/results/water/") {
				t.Fatalf("export destination = %q", v.ToXspace)
			}
		}
	}
	if exports != 2 {
		t.Fatalf("exports = %d, want 2 (log + checkpoint)", exports)
	}
	if script == nil || !strings.Contains(script.Script, "HF/6-31G*") {
		t.Fatalf("script does not carry the route:\n%s", script.Script)
	}
	if script.Resources.Processors != 4 {
		t.Fatalf("processors = %d, want 4", script.Resources.Processors)
	}
}

func TestParameterValidation(t *testing.T) {
	g := Gaussian94()
	page := pageWith(Gaussian94())
	input := []byte("#route\n")

	// Missing required field.
	_, err := g.BuildJob("x", t3e, page, nil, input, "/r")
	if !errors.Is(err, ErrMissingField) {
		t.Fatalf("missing route: %v", err)
	}
	// Unknown field.
	_, err = g.BuildJob("x", t3e, page,
		map[string]string{"route": "HF", "basis": "6-31G"}, input, "/r")
	if !errors.Is(err, ErrUnknownField) {
		t.Fatalf("unknown field: %v", err)
	}
	// Out-of-range value.
	_, err = g.BuildJob("x", t3e, page,
		map[string]string{"route": "HF", "nproc": "99"}, input, "/r")
	if !errors.Is(err, ErrBadValue) {
		t.Fatalf("bad nproc: %v", err)
	}
	// Non-integer value.
	_, err = g.BuildJob("x", t3e, page,
		map[string]string{"route": "HF", "nproc": "many"}, input, "/r")
	if !errors.Is(err, ErrBadValue) {
		t.Fatalf("non-integer nproc: %v", err)
	}
	// Empty input.
	_, err = g.BuildJob("x", t3e, page, map[string]string{"route": "HF"}, nil, "/r")
	if !errors.Is(err, ErrMissingInput) {
		t.Fatalf("empty input: %v", err)
	}
}

func TestPackageMustBeInstalled(t *testing.T) {
	g := Gaussian94()
	bare := pageWith() // no packages installed
	_, err := g.BuildJob("x", t3e, bare, map[string]string{"route": "HF"}, []byte("#"), "/r")
	if !errors.Is(err, ErrNotInstalled) {
		t.Fatalf("uninstalled package: %v", err)
	}
	if _, err := g.BuildJob("x", t3e, nil, map[string]string{"route": "HF"}, []byte("#"), "/r"); !errors.Is(err, ErrNoResourcePage) {
		t.Fatalf("nil page: %v", err)
	}
}

func TestAnsysAnalysisTypes(t *testing.T) {
	a := Ansys()
	page := pageWith(Ansys())
	model := make([]byte, 64<<10)

	static, err := a.BuildJob("static", t3e, page, map[string]string{"analysis": "static"}, model, "/r")
	if err != nil {
		t.Fatalf("static: %v", err)
	}
	transient, err := a.BuildJob("transient", t3e, page, map[string]string{"analysis": "transient"}, model, "/r")
	if err != nil {
		t.Fatalf("transient: %v", err)
	}
	// Transient analysis asks for more run time than static.
	if transient.MaxResources().RunTime <= static.MaxResources().RunTime {
		t.Fatalf("transient runtime %s not greater than static %s",
			transient.MaxResources().RunTime, static.MaxResources().RunTime)
	}
	// Invalid analysis type.
	if _, err := a.BuildJob("x", t3e, page, map[string]string{"analysis": "quantum"}, model, "/r"); !errors.Is(err, ErrBadValue) {
		t.Fatalf("bad analysis: %v", err)
	}
}

func TestPamCrashScalesWithTimesteps(t *testing.T) {
	p := PamCrash()
	page := pageWith(PamCrash())
	mesh := make([]byte, 32<<10)
	short, err := p.BuildJob("short", t3e, page, map[string]string{"timesteps": "1000"}, mesh, "/r")
	if err != nil {
		t.Fatalf("short: %v", err)
	}
	long, err := p.BuildJob("long", t3e, page, map[string]string{"timesteps": "100000"}, mesh, "/r")
	if err != nil {
		t.Fatalf("long: %v", err)
	}
	if long.MaxResources().RunTime <= short.MaxResources().RunTime {
		t.Fatal("more timesteps did not increase the requested run time")
	}
}

func TestOversizedRunRefusedByPage(t *testing.T) {
	p := PamCrash()
	// The SX-4 has 16 CPUs; a 64-CPU crash run cannot fit.
	page := machine.NECSX4(16).ResourcePage()
	page.Target = core.Target{Usite: "DWD", Vsite: "SX4"}
	page.Software = append(page.Software, resources.Software{Kind: resources.KindPackage, Name: "PAM-CRASH", Version: "1997"})
	_, err := p.BuildJob("big", page.Target, &page,
		map[string]string{"timesteps": "5000", "cpus": "64"}, make([]byte, 1024), "/r")
	if err == nil {
		t.Fatal("64-CPU run accepted on a 16-CPU machine")
	}
	if !strings.Contains(err.Error(), "does not fit") {
		t.Fatalf("err = %v", err)
	}
}

func TestCatalog(t *testing.T) {
	cat := Catalog()
	if len(cat) != 3 {
		t.Fatalf("catalog = %d interfaces, want 3", len(cat))
	}
	names := map[string]bool{}
	for _, i := range cat {
		names[i.tmpl.Package] = true
		if len(i.FieldNames()) == 0 {
			t.Fatalf("%s declares no fields", i.tmpl.Package)
		}
	}
	for _, want := range []string{"Gaussian94", "ANSYS", "PAM-CRASH"} {
		if !names[want] {
			t.Fatalf("catalog missing %s", want)
		}
	}
}

func TestFieldDefaults(t *testing.T) {
	g := Gaussian94()
	page := pageWith(Gaussian94())
	job, err := g.BuildJob("defaults", t3e, page, map[string]string{"route": "MP2/cc-pVDZ"}, []byte("#"), "/r")
	if err != nil {
		t.Fatalf("BuildJob: %v", err)
	}
	req := job.MaxResources()
	if req.Processors != 1 || req.MemoryMB != 64 {
		t.Fatalf("defaults not applied: %+v", req)
	}
	if req.RunTime < 30*time.Minute {
		t.Fatalf("runtime floor missing: %s", req.RunTime)
	}
}

// TestGaussianRunsEndToEnd pushes an ASI-built job through the whole stack:
// the site administrator installs the package on the Vsite's resource page,
// the interface builds the job in application terms, and the deployment
// runs it to completion with both result files exported.
func TestGaussianRunsEndToEnd(t *testing.T) {
	d, err := testbed.SingleSite("CHEM", "CLUSTER", 8)
	if err != nil {
		t.Fatalf("SingleSite: %v", err)
	}
	defer d.Close()
	user, err := d.NewUser("Grete Gauss", "Chemie", "ggauss")
	if err != nil {
		t.Fatalf("NewUser: %v", err)
	}
	// Install the package at the Vsite (what unicore-idb -software does).
	vs, ok := d.Sites["CHEM"].NJS.Vsite("CLUSTER")
	if !ok {
		t.Fatal("no CLUSTER vsite")
	}
	vs.Page.Software = append(vs.Page.Software, resources.Software{
		Kind: resources.KindPackage, Name: "Gaussian94", Version: "94",
	})

	target := core.Target{Usite: "CHEM", Vsite: "CLUSTER"}
	input := []byte("%Chk=water\n#HF/6-31G* Opt\n\nwater\n\n0 1\nO 0 0 0\nH 0 0 1\nH 0 1 0\n")
	job, err := Gaussian94().BuildJob("water opt", target, &vs.Page,
		map[string]string{"route": "HF/6-31G*", "nproc": "2"}, input, "/results/gauss")
	if err != nil {
		t.Fatalf("BuildJob: %v", err)
	}
	id, err := d.JPA(user).Submit(job)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	d.Run(1_000_000)

	o, err := d.Session(user, "CHEM").Outcome(context.Background(), id)
	if err != nil {
		t.Fatalf("Outcome: %v", err)
	}
	if o.Status != ajo.StatusSuccessful {
		t.Fatalf("status = %s\n%s", o.Status, client.Display(o))
	}
	// Both characteristic result files were exported to the Xspace.
	for _, f := range []string{"output.log", "checkpoint.chk"} {
		if _, err := vs.Space.ReadXspace("/results/gauss/" + f); err != nil {
			t.Fatalf("exported %s missing: %v", f, err)
		}
	}
}
