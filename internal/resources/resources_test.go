package resources

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"unicore/internal/core"
)

func samplePage() *Page {
	return &Page{
		Target:       core.Target{Usite: "FZJ", Vsite: "T3E"},
		Architecture: "Cray T3E",
		OpSys:        "UNICOS/mk",
		PerfMFlops:   600,
		Processors:   Range{Min: 1, Max: 512, Default: 16},
		RunTimeSec:   Range{Min: 60, Max: 86400, Default: 3600},
		MemoryMB:     Range{Min: 16, Max: 512, Default: 128},
		PermDiskMB:   Range{Min: 0, Max: 10240, Default: 100},
		TempDiskMB:   Range{Min: 0, Max: 40960, Default: 1024},
		Software: []Software{
			{KindCompiler, "f90", "3.1", "/opt/ctl/bin/f90"},
			{KindCompiler, "f90", "3.3", "/opt/ctl/bin/f90-3.3"},
			{KindLibrary, "MPI", "1.2", "/usr/lib/mpi"},
			{KindPackage, "Gaussian", "94", "/apps/g94"},
		},
	}
}

func TestCheckAccepts(t *testing.T) {
	p := samplePage()
	r := Request{Processors: 64, RunTime: 2 * time.Hour, MemoryMB: 256, PermDiskMB: 50, TempDiskMB: 512}
	if err := p.Check(r); err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
}

func TestCheckZeroUsesDefaults(t *testing.T) {
	p := samplePage()
	if err := p.Check(Request{}); err != nil {
		t.Fatalf("zero request (all defaults) rejected: %v", err)
	}
}

func TestCheckCollectsAllViolations(t *testing.T) {
	p := samplePage()
	r := Request{Processors: 1024, RunTime: time.Second, MemoryMB: 4096}
	err := p.Check(r)
	if !errors.Is(err, ErrUnsatisfiable) {
		t.Fatalf("err = %v", err)
	}
	msg := err.Error()
	for _, want := range []string{"processors", "run time", "memory"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q does not mention %s", msg, want)
		}
	}
}

func TestRangeContains(t *testing.T) {
	rg := Range{Min: 2, Max: 10, Default: 4}
	cases := []struct {
		v    int
		want bool
	}{{0, true}, {1, false}, {2, true}, {10, true}, {11, false}}
	for _, c := range cases {
		if got := rg.Contains(c.v); got != c.want {
			t.Errorf("Contains(%d) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestRequestMaxAndDefaults(t *testing.T) {
	a := Request{Processors: 4, MemoryMB: 100}
	b := Request{Processors: 2, RunTime: time.Hour, MemoryMB: 200}
	m := a.Max(b)
	if m.Processors != 4 || m.RunTime != time.Hour || m.MemoryMB != 200 {
		t.Fatalf("Max = %+v", m)
	}
	d := (Request{Processors: 8}).WithDefaults(Request{Processors: 1, MemoryMB: 64})
	if d.Processors != 8 || d.MemoryMB != 64 {
		t.Fatalf("WithDefaults = %+v", d)
	}
}

func TestSoftwareLookup(t *testing.T) {
	p := samplePage()
	if !p.HasSoftware(KindCompiler, "F90", "") {
		t.Fatal("case-insensitive compiler lookup failed")
	}
	if !p.HasSoftware(KindPackage, "Gaussian", "94") {
		t.Fatal("versioned package lookup failed")
	}
	if p.HasSoftware(KindPackage, "Gaussian", "98") {
		t.Fatal("wrong version matched")
	}
	best, ok := p.FindSoftware(KindCompiler, "f90")
	if !ok || best.Version != "3.3" {
		t.Fatalf("FindSoftware = %+v, %v (want highest version)", best, ok)
	}
	if _, ok := p.FindSoftware(KindLibrary, "BLAS"); ok {
		t.Fatal("found software that is not installed")
	}
}

func TestDefaults(t *testing.T) {
	p := samplePage()
	d := p.Defaults()
	if d.Processors != 16 || d.RunTime != time.Hour || d.MemoryMB != 128 {
		t.Fatalf("Defaults = %+v", d)
	}
}

func TestASN1RoundTrip(t *testing.T) {
	p := samplePage()
	der, err := p.MarshalASN1()
	if err != nil {
		t.Fatal(err)
	}
	q, err := UnmarshalASN1(der)
	if err != nil {
		t.Fatal(err)
	}
	if q.Target != p.Target || q.Architecture != p.Architecture || q.OpSys != p.OpSys {
		t.Fatalf("identity fields differ: %+v", q)
	}
	if q.Processors != p.Processors || q.RunTimeSec != p.RunTimeSec || q.MemoryMB != p.MemoryMB {
		t.Fatalf("ranges differ: %+v", q)
	}
	if len(q.Software) != len(p.Software) {
		t.Fatalf("software list length %d, want %d", len(q.Software), len(p.Software))
	}
	for i := range q.Software {
		if q.Software[i] != p.Software[i] {
			t.Fatalf("software[%d] = %+v, want %+v", i, q.Software[i], p.Software[i])
		}
	}
}

func TestASN1Garbage(t *testing.T) {
	if _, err := UnmarshalASN1([]byte{0x01, 0x02, 0x03}); err == nil {
		t.Fatal("garbage DER accepted")
	}
	// Trailing data must be rejected.
	p := samplePage()
	der, _ := p.MarshalASN1()
	if _, err := UnmarshalASN1(append(der, 0x00)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestCatalog(t *testing.T) {
	t3e := samplePage()
	sp2 := &Page{
		Target:     core.Target{Usite: "LRZ", Vsite: "SP2"},
		Processors: Range{Min: 1, Max: 64, Default: 4},
		RunTimeSec: Range{Min: 60, Max: 43200, Default: 1800},
		MemoryMB:   Range{Min: 32, Max: 1024, Default: 128},
		PermDiskMB: Range{Max: 1024},
		TempDiskMB: Range{Max: 1024},
	}
	c := NewCatalog(t3e, sp2)
	if got := c.Targets(); fmt.Sprint(got) != "[FZJ/T3E LRZ/SP2]" {
		t.Fatalf("Targets = %v", got)
	}
	if _, ok := c.Get(core.Target{Usite: "FZJ", Vsite: "T3E"}); !ok {
		t.Fatal("Get failed")
	}
	// 256 processors only fits the T3E; 1 GiB memory only fits the SP2.
	if t3e.Check(Request{Processors: 256}) != nil || sp2.Check(Request{Processors: 256}) == nil {
		t.Fatal("256 processors should fit the T3E only")
	}
	if t3e.Check(Request{MemoryMB: 1024}) == nil || sp2.Check(Request{MemoryMB: 1024}) != nil {
		t.Fatal("1 GiB memory should fit the SP2 only")
	}
}

// Property: ASN.1 round trip preserves any page with sane field values.
func TestQuickASN1RoundTrip(t *testing.T) {
	f := func(cpuMin, cpuMax uint8, perf uint16, arch string, nSoft uint8) bool {
		if strings.ContainsRune(arch, 0) {
			arch = "x"
		}
		p := &Page{
			Target:       core.Target{Usite: "U", Vsite: "V"},
			Architecture: arch,
			PerfMFlops:   int(perf),
			Processors:   Range{Min: int(cpuMin), Max: int(cpuMin) + int(cpuMax), Default: int(cpuMin)},
			RunTimeSec:   Range{Min: 1, Max: 100, Default: 10},
			MemoryMB:     Range{Min: 1, Max: 100, Default: 10},
			PermDiskMB:   Range{Max: 10},
			TempDiskMB:   Range{Max: 10},
		}
		for i := 0; i < int(nSoft%5); i++ {
			p.Software = append(p.Software, Software{KindLibrary, fmt.Sprintf("lib%d", i), "1", "/l"})
		}
		der, err := p.MarshalASN1()
		if err != nil {
			return false
		}
		q, err := UnmarshalASN1(der)
		if err != nil {
			return false
		}
		if q.Architecture != p.Architecture || q.PerfMFlops != p.PerfMFlops || q.Processors != p.Processors {
			return false
		}
		return len(q.Software) == len(p.Software)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Check(r) == nil implies r is inside every range (with defaults
// substituted), i.e. Check has no false accepts.
func TestQuickCheckSound(t *testing.T) {
	p := samplePage()
	f := func(cpus uint16, mins uint16, mem uint16) bool {
		r := Request{
			Processors: int(cpus),
			RunTime:    time.Duration(mins) * time.Minute,
			MemoryMB:   int(mem),
		}
		err := p.Check(r)
		inRange := p.Processors.Contains(r.Processors) &&
			p.RunTimeSec.Contains(int(r.RunTime/time.Second)) &&
			p.MemoryMB.Contains(r.MemoryMB) &&
			p.PermDiskMB.Contains(0) && p.TempDiskMB.Contains(0)
		return (err == nil) == inRange
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
