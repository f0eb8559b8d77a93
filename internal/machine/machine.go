// Package machine describes the destination systems of the batch tier. The
// 1999 UNICORE deployment covered "Cray T3E, Fujitsu VPP/700, IBM SP-2, and
// NEC SX-4" (paper §5.7); each profile records the architecture, batch
// dialect, size, per-PE performance, and toolchain commands, and provides
// the simulated compiler/linker tools that stand in for the real vendor
// toolchains.
package machine

import (
	"fmt"
	"strings"
	"time"

	"unicore/internal/resources"
	"unicore/internal/shell"
)

// Dialect names the batch subsystem a machine runs.
type Dialect string

const (
	// DialectNQE is Cray's Network Queuing Environment (T3E).
	DialectNQE Dialect = "NQE"
	// DialectNQS is the Network Queueing System (Fujitsu VPP, NEC SX).
	DialectNQS Dialect = "NQS"
	// DialectLoadLeveler is IBM LoadLeveler (SP-2).
	DialectLoadLeveler Dialect = "LoadLeveler"
	// DialectCodine is the Codine RMS (workstation clusters), the system
	// UNICORE itself embeds (§5.1).
	DialectCodine Dialect = "CODINE"
)

// Profile describes one execution system (one Vsite's hardware).
type Profile struct {
	Name          string  // marketing name, e.g. "Cray T3E"
	Architecture  string  // resource page architecture string
	OS            string  // operating system
	Dialect       Dialect // batch subsystem
	Processors    int     // total PEs / nodes
	MemoryMBPerPE int
	MFlopsPerPE   int // peak per PE
	// SpeedFactor scales simulated compute: wall time = cpu / SpeedFactor.
	SpeedFactor float64

	// Toolchain command names (what the translation table maps "f90"/"ld"
	// to on this system).
	FortranCompiler string
	Linker          string
}

// CrayT3E returns the FZ Jülich T3E profile (512 PEs in the 1999 system).
func CrayT3E(pes int) Profile {
	return Profile{
		Name:            "Cray T3E",
		Architecture:    "Cray T3E",
		OS:              "UNICOS/mk",
		Dialect:         DialectNQE,
		Processors:      pes,
		MemoryMBPerPE:   128,
		MFlopsPerPE:     600,
		SpeedFactor:     1.0,
		FortranCompiler: "cf90",
		Linker:          "segldr",
	}
}

// FujitsuVPP700 returns the vector-parallel VPP700 profile.
func FujitsuVPP700(pes int) Profile {
	return Profile{
		Name:            "Fujitsu VPP700",
		Architecture:    "Fujitsu VPP700",
		OS:              "UXP/V",
		Dialect:         DialectNQS,
		Processors:      pes,
		MemoryMBPerPE:   2048,
		MFlopsPerPE:     2200,
		SpeedFactor:     2.2,
		FortranCompiler: "frt",
		Linker:          "frt-ld",
	}
}

// IBMSP2 returns the SP-2 profile.
func IBMSP2(nodes int) Profile {
	return Profile{
		Name:            "IBM SP-2",
		Architecture:    "IBM SP-2",
		OS:              "AIX",
		Dialect:         DialectLoadLeveler,
		Processors:      nodes,
		MemoryMBPerPE:   512,
		MFlopsPerPE:     266,
		SpeedFactor:     0.5,
		FortranCompiler: "xlf90",
		Linker:          "xlf-ld",
	}
}

// NECSX4 returns the SX-4 vector profile.
func NECSX4(cpus int) Profile {
	return Profile{
		Name:            "NEC SX-4",
		Architecture:    "NEC SX-4",
		OS:              "SUPER-UX",
		Dialect:         DialectNQS,
		Processors:      cpus,
		MemoryMBPerPE:   4096,
		MFlopsPerPE:     2000,
		SpeedFactor:     2.0,
		FortranCompiler: "f90sx",
		Linker:          "sxld",
	}
}

// GenericCluster returns a commodity cluster running Codine directly.
func GenericCluster(nodes int) Profile {
	return Profile{
		Name:            "Linux Cluster",
		Architecture:    "x86 Cluster",
		OS:              "Linux",
		Dialect:         DialectCodine,
		Processors:      nodes,
		MemoryMBPerPE:   256,
		MFlopsPerPE:     200,
		SpeedFactor:     0.4,
		FortranCompiler: "g77",
		Linker:          "ld",
	}
}

// Profiles returns the full §5.7 machine inventory keyed by constructor.
func Profiles() []Profile {
	return []Profile{CrayT3E(512), FujitsuVPP700(52), IBMSP2(76), NECSX4(16), GenericCluster(32)}
}

// ResourcePage derives a default resource page for a profile (the site
// administrator would curate this through the resource page editor, §5.4).
func (p Profile) ResourcePage() resources.Page {
	return resources.Page{
		Architecture: p.Architecture,
		OpSys:        p.OS,
		PerfMFlops:   p.MFlopsPerPE,
		Processors:   resources.Range{Min: 1, Max: p.Processors, Default: min(8, p.Processors)},
		RunTimeSec:   resources.Range{Min: 10, Max: 24 * 3600, Default: 3600},
		MemoryMB:     resources.Range{Min: 1, Max: p.MemoryMBPerPE, Default: min(128, p.MemoryMBPerPE)},
		PermDiskMB:   resources.Range{Min: 0, Max: 20480, Default: 100},
		TempDiskMB:   resources.Range{Min: 0, Max: 40960, Default: 1024},
		Software: []resources.Software{
			{Kind: resources.KindCompiler, Name: "f90", Version: "1.0", Path: "/opt/bin/" + p.FortranCompiler},
			{Kind: resources.KindLibrary, Name: "MPI", Version: "1.2", Path: "/usr/lib/mpi"},
			{Kind: resources.KindLibrary, Name: "BLAS", Version: "3", Path: "/usr/lib/blas"},
		},
	}
}

// --- Simulated toolchain ---

// objHeader marks a simulated object file; the compiler records provenance
// after it.
const objHeader = "#unicore-obj"

// simDirective is the marker inside Fortran sources whose payload the
// simulated compiler carries into the object file. A source line
// "!SIM: cpu 30s" compiles to the runtime command "cpu 30s".
const simDirective = "!SIM:"

// syntaxErrorMarker lets tests provoke compile failures.
const syntaxErrorMarker = "!SYNTAX-ERROR"

// Tools returns the shell tools for this machine: the Fortran compiler and
// the linker, registered under the profile's command names.
func (p Profile) Tools() map[string]shell.Tool {
	return map[string]shell.Tool{
		p.FortranCompiler: compilerTool(p),
		p.Linker:          linkerTool(p),
	}
}

// compilerTool builds the simulated F90 compiler:
//
//	cf90 -c -o main.o main.f90 [more.f90...] [-O...]
//
// It extracts !SIM: directives from each source into the object file and
// charges compile CPU time proportional to source size.
func compilerTool(p Profile) shell.Tool {
	return func(ctx *shell.Ctx, args []string) int {
		var output string
		var sources []string
		for i := 0; i < len(args); i++ {
			switch {
			case args[i] == "-o" && i+1 < len(args):
				output = args[i+1]
				i++
			case strings.HasPrefix(args[i], "-"):
				// optimisation flags etc. — accepted, ignored
			default:
				sources = append(sources, args[i])
			}
		}
		if output == "" || len(sources) == 0 {
			fmt.Fprintf(&ctx.Stderr, "%s: usage: %s -c -o OUT SRC...\n", p.FortranCompiler, p.FortranCompiler)
			return 2
		}
		var body strings.Builder
		fmt.Fprintf(&body, "%s %s lang=f90\n", objHeader, p.FortranCompiler)
		for _, src := range sources {
			data, err := ctx.FS.ReadFile(ctx.Abs(src))
			if err != nil {
				fmt.Fprintf(&ctx.Stderr, "%s: %s: no such source file\n", p.FortranCompiler, src)
				return 1
			}
			text := string(data)
			if strings.Contains(text, syntaxErrorMarker) {
				fmt.Fprintf(&ctx.Stderr, "%s: %s: syntax error\n", p.FortranCompiler, src)
				return 1
			}
			for _, line := range strings.Split(text, "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, simDirective); ok {
					body.WriteString(strings.TrimSpace(rest))
					body.WriteByte('\n')
				}
			}
			// Compiling costs ~1ms of CPU per source byte on the reference
			// machine, scaled by machine speed elsewhere.
			ctx.CPUTime += compileCost(len(data))
		}
		if err := ctx.FS.WriteFile(ctx.Abs(output), []byte(body.String())); err != nil {
			fmt.Fprintf(&ctx.Stderr, "%s: writing %s: %v\n", p.FortranCompiler, output, err)
			return 1
		}
		fmt.Fprintf(&ctx.Stdout, "%s: compiled %d source(s) -> %s\n", p.FortranCompiler, len(sources), output)
		return 0
	}
}

// linkerTool builds the simulated linker:
//
//	segldr -o a.out main.o [more.o...] [-l MPI...]
//
// It concatenates the directives of all objects into a runnable
// unicore-sim executable.
func linkerTool(p Profile) shell.Tool {
	return func(ctx *shell.Ctx, args []string) int {
		var output string
		var objects, libs []string
		for i := 0; i < len(args); i++ {
			switch {
			case args[i] == "-o" && i+1 < len(args):
				output = args[i+1]
				i++
			case args[i] == "-l" && i+1 < len(args):
				libs = append(libs, args[i+1])
				i++
			case strings.HasPrefix(args[i], "-l"):
				libs = append(libs, args[i][2:])
			default:
				objects = append(objects, args[i])
			}
		}
		if output == "" || len(objects) == 0 {
			fmt.Fprintf(&ctx.Stderr, "%s: usage: %s -o OUT OBJ... [-l LIB]\n", p.Linker, p.Linker)
			return 2
		}
		var body strings.Builder
		body.WriteString(shell.SimBinaryHeader + "\n")
		for _, lib := range libs {
			fmt.Fprintf(&body, "# linked library %s\n", lib)
		}
		for _, obj := range objects {
			data, err := ctx.FS.ReadFile(ctx.Abs(obj))
			if err != nil {
				fmt.Fprintf(&ctx.Stderr, "%s: %s: no such object\n", p.Linker, obj)
				return 1
			}
			text := string(data)
			if !strings.HasPrefix(text, objHeader) {
				fmt.Fprintf(&ctx.Stderr, "%s: %s: not an object file\n", p.Linker, obj)
				return 1
			}
			// Skip the provenance line; keep the directives.
			if _, rest, ok := strings.Cut(text, "\n"); ok {
				body.WriteString(rest)
			}
		}
		if err := ctx.FS.WriteFile(ctx.Abs(output), []byte(body.String())); err != nil {
			fmt.Fprintf(&ctx.Stderr, "%s: writing %s: %v\n", p.Linker, output, err)
			return 1
		}
		fmt.Fprintf(&ctx.Stdout, "%s: linked %d object(s) -> %s\n", p.Linker, len(objects), output)
		return 0
	}
}

// compileCost models compile time growth with source size: one millisecond
// of CPU per source byte.
func compileCost(srcBytes int) time.Duration {
	return time.Duration(srcBytes) * time.Millisecond
}
