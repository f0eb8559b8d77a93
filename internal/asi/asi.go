// Package asi implements application-specific interfaces — the first
// enhancement the paper's outlook calls for: "application specific
// interfaces for standard packages like Ansys or Pamcrash will make life
// easier especially for users from industry" (§6). The idea follows
// WebSubmit (§2): users describe a run in application terms (route section,
// solver, model file) instead of batch terms; the interface validates the
// parameters, checks the package is installed at the destination Vsite
// (resource page, §5.4), estimates resources, and emits an ordinary
// abstract job — import input, run the package, export the results.
package asi

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"time"

	"unicore/internal/ajo"
	"unicore/internal/client"
	"unicore/internal/core"
	"unicore/internal/resources"
)

// Errors reported when building application jobs.
var (
	ErrUnknownField   = errors.New("asi: unknown parameter")
	ErrMissingField   = errors.New("asi: required parameter missing")
	ErrBadValue       = errors.New("asi: invalid parameter value")
	ErrNotInstalled   = errors.New("asi: package not installed at the destination")
	ErrMissingInput   = errors.New("asi: application input missing")
	ErrBadTemplate    = errors.New("asi: malformed template")
	ErrNoResourcePage = errors.New("asi: no resource page for the destination")
)

// Field declares one application-level parameter of a template.
type Field struct {
	Name     string
	Required bool
	Default  string
	// Validate, when set, checks a provided value.
	Validate func(value string) error
	// Help describes the field in the GUI.
	Help string
}

// Rendered is what a template produces for one run.
type Rendered struct {
	// Script is the batch script invoking the package.
	Script string
	// InputName is the Uspace file name the staged input is written to.
	InputName string
	// Outputs are Uspace files to export after the run.
	Outputs []string
	// Request is the estimated resource demand.
	Request resources.Request
}

// Template describes one standard package's interface.
type Template struct {
	// Package and Version name the resource-page software entry the
	// destination must carry (kind "package").
	Package string
	Version string
	Fields  []Field
	// Render turns validated parameters and the input size into the run.
	Render func(params map[string]string, inputLen int) (Rendered, error)
}

// Interface is a validated, ready-to-use application interface.
type Interface struct {
	tmpl   Template
	fields map[string]Field
}

// New validates a template.
func New(tmpl Template) (*Interface, error) {
	if tmpl.Package == "" {
		return nil, fmt.Errorf("%w: empty package name", ErrBadTemplate)
	}
	if tmpl.Render == nil {
		return nil, fmt.Errorf("%w: %s has no renderer", ErrBadTemplate, tmpl.Package)
	}
	fields := make(map[string]Field, len(tmpl.Fields))
	for _, f := range tmpl.Fields {
		if f.Name == "" {
			return nil, fmt.Errorf("%w: %s has an unnamed field", ErrBadTemplate, tmpl.Package)
		}
		if _, dup := fields[f.Name]; dup {
			return nil, fmt.Errorf("%w: %s declares %q twice", ErrBadTemplate, tmpl.Package, f.Name)
		}
		fields[f.Name] = f
	}
	return &Interface{tmpl: tmpl, fields: fields}, nil
}

// FieldNames lists the declared parameters, sorted.
func (i *Interface) FieldNames() []string {
	out := make([]string, 0, len(i.fields))
	for n := range i.fields {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// resolve validates user parameters against the fields and fills defaults.
func (i *Interface) resolve(params map[string]string) (map[string]string, error) {
	out := make(map[string]string, len(i.fields))
	for name, value := range params {
		f, ok := i.fields[name]
		if !ok {
			return nil, fmt.Errorf("%w: %q (known: %v)", ErrUnknownField, name, i.FieldNames())
		}
		if f.Validate != nil {
			if err := f.Validate(value); err != nil {
				return nil, fmt.Errorf("%w: %s: %v", ErrBadValue, name, err)
			}
		}
		out[name] = value
	}
	for name, f := range i.fields {
		if _, set := out[name]; set {
			continue
		}
		if f.Required && f.Default == "" {
			return nil, fmt.Errorf("%w: %q", ErrMissingField, name)
		}
		if f.Default != "" {
			out[name] = f.Default
		}
	}
	return out, nil
}

// BuildJob assembles the abstract job for one application run: the input
// (carried inline from the workstation, §5.6) is imported, the package is
// invoked, and every declared output is exported to the given Xspace
// directory. page must be the destination's resource page; the build fails
// if the package is not installed there — the seamlessness of §5.4 at
// application level.
func (i *Interface) BuildJob(name string, target core.Target, page *resources.Page, params map[string]string, input []byte, exportDir string) (*ajo.AbstractJob, error) {
	if page == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoResourcePage, target)
	}
	if !page.HasSoftware(resources.KindPackage, i.tmpl.Package, i.tmpl.Version) {
		return nil, fmt.Errorf("%w: %s %s at %s", ErrNotInstalled, i.tmpl.Package, i.tmpl.Version, target)
	}
	if len(input) == 0 {
		return nil, fmt.Errorf("%w: %s", ErrMissingInput, i.tmpl.Package)
	}
	resolved, err := i.resolve(params)
	if err != nil {
		return nil, err
	}
	run, err := i.tmpl.Render(resolved, len(input))
	if err != nil {
		return nil, fmt.Errorf("asi: rendering %s run: %w", i.tmpl.Package, err)
	}
	if run.InputName == "" || run.Script == "" {
		return nil, fmt.Errorf("%w: %s rendered an empty run", ErrBadTemplate, i.tmpl.Package)
	}
	if err := page.Check(run.Request); err != nil {
		return nil, fmt.Errorf("asi: %s run does not fit %s: %w", i.tmpl.Package, target, err)
	}

	b := client.NewJob(name, target)
	imp := b.ImportBytes("stage "+run.InputName, input, run.InputName)
	app := b.Script(i.tmpl.Package+" run", run.Script, run.Request)
	b.After(imp, app)
	for _, out := range run.Outputs {
		exp := b.Export("export "+out, out, exportDir+"/"+out)
		b.After(app, exp)
	}
	return b.Build()
}

// --- validation helpers for the built-in templates ---

// intBetween validates an integer field within [lo, hi].
func intBetween(lo, hi int) func(string) error {
	return func(v string) error {
		n, err := strconv.Atoi(v)
		if err != nil {
			return fmt.Errorf("want an integer, got %q", v)
		}
		if n < lo || n > hi {
			return fmt.Errorf("%d outside [%d,%d]", n, lo, hi)
		}
		return nil
	}
}

// oneOf validates an enumerated field.
func oneOf(allowed ...string) func(string) error {
	return func(v string) error {
		for _, a := range allowed {
			if v == a {
				return nil
			}
		}
		return fmt.Errorf("%q not one of %v", v, allowed)
	}
}

func atoi(s string, def int) int {
	if n, err := strconv.Atoi(s); err == nil {
		return n
	}
	return def
}

// cpuFor estimates processor time from an input size and a per-KiB cost.
func cpuFor(inputLen int, perKiB time.Duration, floor time.Duration) time.Duration {
	d := time.Duration(inputLen/1024) * perKiB
	if d < floor {
		d = floor
	}
	return d
}
