// Package resources implements UNICORE's resource model (paper §5.4):
// requests for "the number of CPUs (or processor elements), the amount of
// execution time, the amount of memory, and the amount of disk space needed,
// both permanent and temporary", and the per-Vsite *resource page* with
// minimum/maximum values, architecture/performance/OS information and the
// available software, "stored in ASN1 format for the JPA".
package resources

import (
	"encoding/asn1"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"unicore/internal/core"
)

// ErrUnsatisfiable tags request-vs-page check failures.
var ErrUnsatisfiable = errors.New("resources: request unsatisfiable at vsite")

// Request is the resource demand of one abstract task.
type Request struct {
	Processors int           // CPUs / processor elements
	RunTime    time.Duration // execution (wall clock) time
	MemoryMB   int           // per-node memory, MiB
	PermDiskMB int           // permanent disk space, MiB
	TempDiskMB int           // temporary disk space, MiB
}

// Max returns the component-wise maximum of two requests.
func (r Request) Max(o Request) Request {
	if o.Processors > r.Processors {
		r.Processors = o.Processors
	}
	if o.RunTime > r.RunTime {
		r.RunTime = o.RunTime
	}
	if o.MemoryMB > r.MemoryMB {
		r.MemoryMB = o.MemoryMB
	}
	if o.PermDiskMB > r.PermDiskMB {
		r.PermDiskMB = o.PermDiskMB
	}
	if o.TempDiskMB > r.TempDiskMB {
		r.TempDiskMB = o.TempDiskMB
	}
	return r
}

// WithDefaults fills zero fields from d.
func (r Request) WithDefaults(d Request) Request {
	if r.Processors == 0 {
		r.Processors = d.Processors
	}
	if r.RunTime == 0 {
		r.RunTime = d.RunTime
	}
	if r.MemoryMB == 0 {
		r.MemoryMB = d.MemoryMB
	}
	if r.PermDiskMB == 0 {
		r.PermDiskMB = d.PermDiskMB
	}
	if r.TempDiskMB == 0 {
		r.TempDiskMB = d.TempDiskMB
	}
	return r
}

// String renders the request on one line for logs and error messages.
func (r Request) String() string {
	return fmt.Sprintf("cpus=%d time=%s mem=%dMB perm=%dMB temp=%dMB",
		r.Processors, r.RunTime, r.MemoryMB, r.PermDiskMB, r.TempDiskMB)
}

// Range bounds one resource dimension on a resource page.
type Range struct {
	Min, Max, Default int
}

// Contains reports whether v (with 0 meaning "use default") falls in range.
func (rg Range) Contains(v int) bool {
	if v == 0 {
		v = rg.Default
	}
	return v >= rg.Min && v <= rg.Max
}

// SoftwareKind classifies a resource-page software entry.
type SoftwareKind string

// The software kinds a resource page lists.
const (
	// KindCompiler is a compiler the Vsite offers to CompileTasks.
	KindCompiler SoftwareKind = "compiler"
	// KindLibrary is a library LinkTasks can bind.
	KindLibrary SoftwareKind = "library"
	// KindPackage is an application package: Gaussian, ANSYS, ...
	KindPackage SoftwareKind = "package"
)

// Software describes one installed compiler, library, or package.
type Software struct {
	Kind    SoftwareKind
	Name    string
	Version string
	Path    string
}

// Page is a Vsite's resource page, prepared by the site administrator
// "through a resource page editor" (§5.4) and shipped to the JPA alongside
// the applet.
type Page struct {
	Target       core.Target
	Architecture string // e.g. "Cray T3E", "IBM SP-2"
	OpSys        string // e.g. "UNICOS/mk"
	PerfMFlops   int    // peak performance per PE, MFlop/s
	Processors   Range
	RunTimeSec   Range
	MemoryMB     Range
	PermDiskMB   Range
	TempDiskMB   Range
	Software     []Software
}

// HasSoftware reports whether the page lists software of the given kind and
// name (any version when version is empty).
func (p *Page) HasSoftware(kind SoftwareKind, name, version string) bool {
	for _, s := range p.Software {
		if s.Kind == kind && strings.EqualFold(s.Name, name) &&
			(version == "" || s.Version == version) {
			return true
		}
	}
	return false
}

// Check validates a request against the page. It collects every violation so
// the JPA can show the user all problems at once.
func (p *Page) Check(r Request) error {
	var problems []string
	if !p.Processors.Contains(r.Processors) {
		problems = append(problems, fmt.Sprintf("processors %d outside [%d,%d]", r.Processors, p.Processors.Min, p.Processors.Max))
	}
	sec := int(r.RunTime / time.Second)
	if !p.RunTimeSec.Contains(sec) {
		problems = append(problems, fmt.Sprintf("run time %s outside [%ds,%ds]", r.RunTime, p.RunTimeSec.Min, p.RunTimeSec.Max))
	}
	if !p.MemoryMB.Contains(r.MemoryMB) {
		problems = append(problems, fmt.Sprintf("memory %dMB outside [%d,%d]", r.MemoryMB, p.MemoryMB.Min, p.MemoryMB.Max))
	}
	if !p.PermDiskMB.Contains(r.PermDiskMB) {
		problems = append(problems, fmt.Sprintf("permanent disk %dMB outside [%d,%d]", r.PermDiskMB, p.PermDiskMB.Min, p.PermDiskMB.Max))
	}
	if !p.TempDiskMB.Contains(r.TempDiskMB) {
		problems = append(problems, fmt.Sprintf("temporary disk %dMB outside [%d,%d]", r.TempDiskMB, p.TempDiskMB.Min, p.TempDiskMB.Max))
	}
	if len(problems) == 0 {
		return nil
	}
	return fmt.Errorf("%w %s: %s", ErrUnsatisfiable, p.Target, strings.Join(problems, "; "))
}

// --- ASN.1 wire format (§5.4: "stored in ASN1 format") ---

// The asn1 package cannot marshal arbitrary structs with time.Duration or
// custom string types, so the page is flattened into a DER-friendly mirror.

type asn1Range struct {
	Min, Max, Default int
}

type asn1Software struct {
	Kind    string
	Name    string
	Version string
	Path    string
}

type asn1Page struct {
	Usite        string
	Vsite        string
	Architecture string
	OpSys        string
	PerfMFlops   int
	Processors   asn1Range
	RunTimeSec   asn1Range
	MemoryMB     asn1Range
	PermDiskMB   asn1Range
	TempDiskMB   asn1Range
	Software     []asn1Software
}

// MarshalASN1 encodes the page as DER.
func (p *Page) MarshalASN1() ([]byte, error) {
	ap := asn1Page{
		Usite:        string(p.Target.Usite),
		Vsite:        string(p.Target.Vsite),
		Architecture: p.Architecture,
		OpSys:        p.OpSys,
		PerfMFlops:   p.PerfMFlops,
		Processors:   asn1Range(p.Processors),
		RunTimeSec:   asn1Range(p.RunTimeSec),
		MemoryMB:     asn1Range(p.MemoryMB),
		PermDiskMB:   asn1Range(p.PermDiskMB),
		TempDiskMB:   asn1Range(p.TempDiskMB),
	}
	for _, s := range p.Software {
		ap.Software = append(ap.Software, asn1Software{string(s.Kind), s.Name, s.Version, s.Path})
	}
	der, err := asn1.Marshal(ap)
	if err != nil {
		return nil, fmt.Errorf("resources: ASN.1 encoding page for %s: %w", p.Target, err)
	}
	return der, nil
}

// UnmarshalASN1 decodes a DER-encoded page.
func UnmarshalASN1(der []byte) (*Page, error) {
	var ap asn1Page
	rest, err := asn1.Unmarshal(der, &ap)
	if err != nil {
		return nil, fmt.Errorf("resources: ASN.1 decoding page: %w", err)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("resources: %d trailing bytes after page", len(rest))
	}
	p := &Page{
		Target:       core.Target{Usite: core.Usite(ap.Usite), Vsite: core.Vsite(ap.Vsite)},
		Architecture: ap.Architecture,
		OpSys:        ap.OpSys,
		PerfMFlops:   ap.PerfMFlops,
		Processors:   Range(ap.Processors),
		RunTimeSec:   Range(ap.RunTimeSec),
		MemoryMB:     Range(ap.MemoryMB),
		PermDiskMB:   Range(ap.PermDiskMB),
		TempDiskMB:   Range(ap.TempDiskMB),
	}
	for _, s := range ap.Software {
		p.Software = append(p.Software, Software{SoftwareKind(s.Kind), s.Name, s.Version, s.Path})
	}
	return p, nil
}

// Catalog is a set of resource pages keyed by target, as served by a
// gateway to the JPA.
type Catalog struct {
	pages map[core.Target]*Page
}

// NewCatalog builds a catalog from pages.
func NewCatalog(pages ...*Page) *Catalog {
	c := &Catalog{pages: make(map[core.Target]*Page, len(pages))}
	for _, p := range pages {
		c.pages[p.Target] = p
	}
	return c
}

// Add inserts or replaces a page.
func (c *Catalog) Add(p *Page) { c.pages[p.Target] = p }

// Remove drops the page for target, if present.
func (c *Catalog) Remove(t core.Target) { delete(c.pages, t) }

// Get returns the page for target.
func (c *Catalog) Get(target core.Target) (*Page, bool) {
	p, ok := c.pages[target]
	return p, ok
}

// Targets lists all targets, sorted by string form.
func (c *Catalog) Targets() []core.Target {
	out := make([]core.Target, 0, len(c.pages))
	for t := range c.pages {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}
