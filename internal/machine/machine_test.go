package machine

import (
	"strings"
	"testing"
	"time"

	"unicore/internal/resources"
	"unicore/internal/shell"
	"unicore/internal/sim"
	"unicore/internal/vfs"
)

func newCtx(t *testing.T, p Profile) *shell.Ctx {
	t.Helper()
	fs := vfs.New(sim.NewVirtualClock())
	if err := fs.MkdirAll("/job"); err != nil {
		t.Fatal(err)
	}
	return &shell.Ctx{FS: fs, Cwd: "/job", Tools: p.Tools()}
}

func TestProfilesInventory(t *testing.T) {
	ps := Profiles()
	if len(ps) != 5 {
		t.Fatalf("%d profiles, want 5", len(ps))
	}
	names := map[string]Dialect{}
	for _, p := range ps {
		names[p.Name] = p.Dialect
		if p.Processors <= 0 || p.SpeedFactor <= 0 || p.FortranCompiler == "" || p.Linker == "" {
			t.Errorf("%s: incomplete profile %+v", p.Name, p)
		}
	}
	// The paper's §5.7 systems with their historical batch subsystems.
	want := map[string]Dialect{
		"Cray T3E":       DialectNQE,
		"Fujitsu VPP700": DialectNQS,
		"IBM SP-2":       DialectLoadLeveler,
		"NEC SX-4":       DialectNQS,
		"Linux Cluster":  DialectCodine,
	}
	for name, d := range want {
		if names[name] != d {
			t.Errorf("%s: dialect %s, want %s", name, names[name], d)
		}
	}
}

func TestResourcePageDerivation(t *testing.T) {
	p := CrayT3E(512)
	page := p.ResourcePage()
	if page.Processors.Max != 512 || page.Architecture != "Cray T3E" {
		t.Fatalf("page = %+v", page)
	}
	if !page.HasSoftware("compiler", "f90", "") {
		t.Fatal("page missing f90 compiler")
	}
	defaults := resources.Request{
		Processors: page.Processors.Default,
		RunTime:    time.Duration(page.RunTimeSec.Default) * time.Second,
		MemoryMB:   page.MemoryMB.Default,
		PermDiskMB: page.PermDiskMB.Default,
		TempDiskMB: page.TempDiskMB.Default,
	}
	if err := page.Check(defaults); err != nil {
		t.Fatalf("page defaults do not satisfy the page: %v", err)
	}
}

const sampleSource = `      PROGRAM MAIN
!SIM: cpu 30s
!SIM: write result.dat 256
!SIM: echo computation finished
      END
`

func TestCompileLinkExecuteFlow(t *testing.T) {
	p := CrayT3E(64)
	ctx := newCtx(t, p)
	if err := ctx.FS.WriteFile("/job/main.f90", []byte(sampleSource)); err != nil {
		t.Fatal(err)
	}
	script := strings.Join([]string{
		"cf90 -c -o main.o main.f90",
		"segldr -o a.out main.o -l MPI",
		"./a.out",
	}, "\n")
	res := shell.Run(ctx, script)
	if res.ExitCode != 0 {
		t.Fatalf("exit=%d stderr=%s", res.ExitCode, res.Stderr)
	}
	if !strings.Contains(res.Stdout, "computation finished") {
		t.Fatalf("stdout = %q", res.Stdout)
	}
	info, err := ctx.FS.Stat("/job/result.dat")
	if err != nil || info.Size != 256 {
		t.Fatalf("result.dat = %+v, %v", info, err)
	}
	// CPU time includes the 30s of the program plus compile cost.
	if res.CPUTime < 30e9 {
		t.Fatalf("CPUTime = %v, want >= 30s", res.CPUTime)
	}
}

func TestEachProfileToolchainWorks(t *testing.T) {
	for _, p := range Profiles() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			ctx := newCtx(t, p)
			_ = ctx.FS.WriteFile("/job/m.f90", []byte("!SIM: echo ok\n"))
			script := p.FortranCompiler + " -c -o m.o m.f90\n" +
				p.Linker + " -o prog m.o\n./prog\n"
			res := shell.Run(ctx, script)
			if res.ExitCode != 0 {
				t.Fatalf("exit=%d stderr=%s", res.ExitCode, res.Stderr)
			}
			if !strings.Contains(res.Stdout, "ok") {
				t.Fatalf("stdout=%q", res.Stdout)
			}
		})
	}
}

func TestCompilerMissingSource(t *testing.T) {
	p := CrayT3E(4)
	ctx := newCtx(t, p)
	res := shell.Run(ctx, "cf90 -c -o m.o missing.f90")
	if res.ExitCode != 1 || !strings.Contains(res.Stderr, "no such source") {
		t.Fatalf("exit=%d stderr=%q", res.ExitCode, res.Stderr)
	}
}

func TestCompilerSyntaxError(t *testing.T) {
	p := CrayT3E(4)
	ctx := newCtx(t, p)
	_ = ctx.FS.WriteFile("/job/bad.f90", []byte("!SYNTAX-ERROR\n"))
	res := shell.Run(ctx, "cf90 -c -o m.o bad.f90")
	if res.ExitCode != 1 || !strings.Contains(res.Stderr, "syntax error") {
		t.Fatalf("exit=%d stderr=%q", res.ExitCode, res.Stderr)
	}
	if ctx.FS.Exists("/job/m.o") {
		t.Fatal("object produced despite syntax error")
	}
}

func TestCompilerUsageError(t *testing.T) {
	p := CrayT3E(4)
	ctx := newCtx(t, p)
	if res := shell.Run(ctx, "cf90 -c main.f90"); res.ExitCode != 2 {
		t.Fatalf("missing -o: exit=%d", res.ExitCode)
	}
}

func TestLinkerRejectsNonObject(t *testing.T) {
	p := IBMSP2(8)
	ctx := newCtx(t, p)
	_ = ctx.FS.WriteFile("/job/junk.o", []byte("plain text"))
	res := shell.Run(ctx, "xlf-ld -o a.out junk.o")
	if res.ExitCode != 1 || !strings.Contains(res.Stderr, "not an object") {
		t.Fatalf("exit=%d stderr=%q", res.ExitCode, res.Stderr)
	}
}

func TestLinkerMissingObject(t *testing.T) {
	p := IBMSP2(8)
	ctx := newCtx(t, p)
	res := shell.Run(ctx, "xlf-ld -o a.out ghost.o")
	if res.ExitCode != 1 {
		t.Fatalf("exit=%d", res.ExitCode)
	}
}

func TestMultiObjectLink(t *testing.T) {
	p := NECSX4(4)
	ctx := newCtx(t, p)
	_ = ctx.FS.WriteFile("/job/a.f90", []byte("!SIM: echo from-a\n"))
	_ = ctx.FS.WriteFile("/job/b.f90", []byte("!SIM: echo from-b\n"))
	script := `
f90sx -c -o a.o a.f90
f90sx -c -o b.o b.f90
sxld -o prog a.o b.o
./prog
`
	res := shell.Run(ctx, script)
	if res.ExitCode != 0 {
		t.Fatalf("exit=%d stderr=%s", res.ExitCode, res.Stderr)
	}
	if !strings.Contains(res.Stdout, "from-a") || !strings.Contains(res.Stdout, "from-b") {
		t.Fatalf("stdout = %q", res.Stdout)
	}
}
