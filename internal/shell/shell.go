// Package shell implements the execution substrate of the batch tier: a
// small, deterministic, POSIX-flavoured script interpreter that runs over a
// vfs.FS instead of a real machine.
//
// The NJS incarnates abstract tasks into batch scripts (paper §5.5); on the
// authors' testbed those scripts ran under NQE, NQS, or LoadLeveler on real
// iron. Here they run under this interpreter, which supports exactly the
// constructs the incarnation emits — comments/directives, variable
// expansion, conditionals via && and ||, redirections, file utilities — plus
// a virtual `cpu` builtin so "computation" consumes simulated time that the
// codine RMS accounts for.
//
// Simulated executables are files beginning with the magic header
// "#!unicore-sim": running one interprets its remaining lines as a script.
// The machine package's compiler/linker tools produce such files, giving the
// reproduction a real compile → link → execute data flow.
package shell

import (
	"fmt"
	"path"
	"strconv"
	"strings"
	"time"

	"unicore/internal/vfs"
)

// SimBinaryHeader marks a simulated executable produced by the link step.
const SimBinaryHeader = "#!unicore-sim"

// Tool is an external command registered with the interpreter (compilers,
// linkers, site utilities). It returns the exit code.
type Tool func(ctx *Ctx, args []string) int

// Ctx is the execution context of one script run.
type Ctx struct {
	FS    *vfs.FS
	Cwd   string            // absolute working directory (the job's Uspace)
	Env   map[string]string // variables; mutated by assignments
	Tools map[string]Tool   // external commands by name

	Stdout, Stderr strings.Builder
	CPUTime        time.Duration // simulated processor time consumed

	// MaxSteps caps executed statements to keep runaway scripts finite
	// (default 100000).
	MaxSteps int
	steps    int
	depth    int // nested simulated-binary depth
}

// Result summarises one script run.
type Result struct {
	ExitCode int
	Stdout   string
	Stderr   string
	CPUTime  time.Duration
}

// exitSignal unwinds the interpreter on `exit N`.
type exitSignal struct{ code int }

// Run executes script in ctx and returns its result. Any command failing
// (nonzero exit) terminates the script with that code, as with `sh -e` —
// batch systems treat job steps the same way.
func Run(ctx *Ctx, script string) Result {
	if ctx.Env == nil {
		ctx.Env = map[string]string{}
	}
	if ctx.Cwd == "" {
		ctx.Cwd = "/"
	}
	if ctx.MaxSteps == 0 {
		ctx.MaxSteps = 100000
	}
	code := runScript(ctx, script)
	return Result{
		ExitCode: code,
		Stdout:   ctx.Stdout.String(),
		Stderr:   ctx.Stderr.String(),
		CPUTime:  ctx.CPUTime,
	}
}

func runScript(ctx *Ctx, script string) (code int) {
	defer func() {
		if r := recover(); r != nil {
			if sig, ok := r.(exitSignal); ok {
				code = sig.code
				return
			}
			panic(r)
		}
	}()
	for _, line := range strings.Split(script, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "!") {
			continue // comments and batch directives (#QSUB, #@$, # @, !SIM)
		}
		status := runLine(ctx, line)
		if status != 0 {
			return status
		}
	}
	return 0
}

// runLine executes one line: pipeless command chains joined by && and ||.
func runLine(ctx *Ctx, line string) int {
	segs, ops, err := splitChain(line)
	if err != nil {
		fmt.Fprintf(&ctx.Stderr, "sh: %v\n", err)
		return 2
	}
	status := 0
	for i, seg := range segs {
		if i > 0 {
			if ops[i-1] == "&&" && status != 0 {
				continue
			}
			if ops[i-1] == "||" && status == 0 {
				continue
			}
		}
		status = runSimple(ctx, seg)
	}
	return status
}

// splitChain splits a line on && and || outside quotes.
func splitChain(line string) (segs []string, ops []string, err error) {
	var cur strings.Builder
	inQuote := byte(0)
	for i := 0; i < len(line); i++ {
		c := line[i]
		if inQuote != 0 {
			if c == inQuote {
				inQuote = 0
			}
			cur.WriteByte(c)
			continue
		}
		switch c {
		case '\'', '"':
			inQuote = c
			cur.WriteByte(c)
		case '&', '|':
			if i+1 < len(line) && line[i+1] == c {
				segs = append(segs, cur.String())
				cur.Reset()
				if c == '&' {
					ops = append(ops, "&&")
				} else {
					ops = append(ops, "||")
				}
				i++
			} else {
				return nil, nil, fmt.Errorf("unsupported operator %q", string(c))
			}
		case ';':
			segs = append(segs, cur.String())
			cur.Reset()
			ops = append(ops, ";")
		default:
			cur.WriteByte(c)
		}
	}
	if inQuote != 0 {
		return nil, nil, fmt.Errorf("unterminated quote")
	}
	segs = append(segs, cur.String())
	return segs, ops, nil
}

// redirection captured from a simple command.
type redirect struct {
	stdout       string // "> f"
	appendStdout string // ">> f"
	stdin        string // "< f"
}

// runSimple executes a single command with optional redirections.
func runSimple(ctx *Ctx, text string) int {
	ctx.steps++
	if ctx.steps > ctx.MaxSteps {
		fmt.Fprintf(&ctx.Stderr, "sh: step limit exceeded\n")
		panic(exitSignal{124})
	}
	words, err := tokenize(text)
	if err != nil {
		fmt.Fprintf(&ctx.Stderr, "sh: %v\n", err)
		return 2
	}
	if len(words) == 0 {
		return 0
	}
	// Variable assignment: NAME=value as the only word.
	if len(words) == 1 {
		if name, val, ok := strings.Cut(words[0], "="); ok && isName(name) {
			ctx.Env[name] = expand(ctx, val)
			return 0
		}
	}
	// Expand variables and peel redirections.
	var argv []string
	var rd redirect
	for i := 0; i < len(words); i++ {
		w := words[i]
		switch w {
		case ">", ">>", "<":
			if i+1 >= len(words) {
				fmt.Fprintf(&ctx.Stderr, "sh: missing redirection target\n")
				return 2
			}
			target := expand(ctx, words[i+1])
			i++
			switch w {
			case ">":
				rd.stdout = target
			case ">>":
				rd.appendStdout = target
			case "<":
				rd.stdin = target
			}
		default:
			argv = append(argv, expand(ctx, w))
		}
	}
	if len(argv) == 0 {
		return 0
	}
	return dispatch(ctx, argv, rd)
}

// isName reports whether s is a valid variable name.
func isName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r == '_', r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// tokenize splits a command into words, honouring single and double quotes.
func tokenize(text string) ([]string, error) {
	var words []string
	var cur strings.Builder
	inWord := false
	for i := 0; i < len(text); i++ {
		c := text[i]
		switch c {
		case ' ', '\t':
			if inWord {
				words = append(words, cur.String())
				cur.Reset()
				inWord = false
			}
		case '\'', '"':
			quote := c
			inWord = true
			i++
			for ; i < len(text) && text[i] != quote; i++ {
				cur.WriteByte(text[i])
			}
			if i >= len(text) {
				return nil, fmt.Errorf("unterminated quote")
			}
		default:
			inWord = true
			cur.WriteByte(c)
		}
	}
	if inWord {
		words = append(words, cur.String())
	}
	return words, nil
}

// expand substitutes $NAME and ${NAME}.
func expand(ctx *Ctx, s string) string {
	var out strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] != '$' || i+1 >= len(s) {
			out.WriteByte(s[i])
			continue
		}
		if s[i+1] == '{' {
			end := strings.IndexByte(s[i+2:], '}')
			if end < 0 {
				out.WriteByte(s[i])
				continue
			}
			out.WriteString(ctx.Env[s[i+2:i+2+end]])
			i += 2 + end
			continue
		}
		if s[i+1] == '#' || s[i+1] == '@' {
			out.WriteString(ctx.Env[string(s[i+1])])
			i++
			continue
		}
		j := i + 1
		for j < len(s) && (s[j] == '_' ||
			s[j] >= 'a' && s[j] <= 'z' || s[j] >= 'A' && s[j] <= 'Z' ||
			s[j] >= '0' && s[j] <= '9') {
			j++
		}
		if j == i+1 {
			out.WriteByte(s[i])
			continue
		}
		out.WriteString(ctx.Env[s[i+1:j]])
		i = j - 1
	}
	return out.String()
}

// Abs resolves p relative to the context working directory.
func (ctx *Ctx) Abs(p string) string {
	if strings.HasPrefix(p, "/") {
		return path.Clean(p)
	}
	return path.Join(ctx.Cwd, p)
}

// dispatch routes to builtins, registered tools, or simulated binaries.
func dispatch(ctx *Ctx, argv []string, rd redirect) int {
	name := argv[0]
	args := argv[1:]

	// stdin redirection: present the file contents via $STDIN for builtins
	// that consume it (cat without args).
	if b, ok := builtins[name]; ok {
		return captured(ctx, rd, func(out *strings.Builder) int {
			return b(ctx, args, rd, out)
		})
	}
	if tool, ok := ctx.Tools[name]; ok {
		return captured(ctx, rd, func(out *strings.Builder) int {
			// Tools write to ctx.Stdout; temporarily swap handled by captured.
			return tool(ctx, args)
		})
	}
	// Simulated binary?
	if strings.HasPrefix(name, "./") || strings.HasPrefix(name, "/") {
		return captured(ctx, rd, func(out *strings.Builder) int {
			return runBinary(ctx, name, args)
		})
	}
	fmt.Fprintf(&ctx.Stderr, "sh: %s: command not found\n", name)
	return 127
}

// captured redirects ctx.Stdout into a file for the duration of fn when the
// command has a stdout redirection.
func captured(ctx *Ctx, rd redirect, fn func(out *strings.Builder) int) int {
	if rd.stdout == "" && rd.appendStdout == "" {
		return fn(&ctx.Stdout)
	}
	saved := ctx.Stdout
	ctx.Stdout = strings.Builder{}
	code := fn(&ctx.Stdout)
	text := ctx.Stdout.String()
	ctx.Stdout = saved
	var err error
	if rd.stdout != "" {
		err = ctx.FS.WriteFile(ctx.Abs(rd.stdout), []byte(text))
	} else {
		err = ctx.FS.AppendFile(ctx.Abs(rd.appendStdout), []byte(text))
	}
	if err != nil {
		fmt.Fprintf(&ctx.Stderr, "sh: redirect: %v\n", err)
		return 1
	}
	return code
}

// runBinary executes a simulated executable file.
func runBinary(ctx *Ctx, name string, args []string) int {
	if ctx.depth >= 8 {
		fmt.Fprintf(&ctx.Stderr, "sh: %s: binary nesting too deep\n", name)
		return 126
	}
	data, err := ctx.FS.ReadFile(ctx.Abs(name))
	if err != nil {
		fmt.Fprintf(&ctx.Stderr, "sh: %s: %v\n", name, err)
		return 127
	}
	text := string(data)
	if !strings.HasPrefix(text, SimBinaryHeader) {
		fmt.Fprintf(&ctx.Stderr, "sh: %s: not a unicore-sim executable\n", name)
		return 126
	}
	body := text[len(SimBinaryHeader):]
	// Positional arguments available as $1..$9, $# and $@.
	saved := map[string]string{}
	set := func(k, v string) {
		saved[k] = ctx.Env[k]
		ctx.Env[k] = v
	}
	for i, a := range args {
		if i >= 9 {
			break
		}
		set(fmt.Sprintf("%d", i+1), a)
	}
	set("#", strconv.Itoa(len(args)))
	set("@", strings.Join(args, " "))
	ctx.depth++
	code := runScript(ctx, body)
	ctx.depth--
	for k, v := range saved {
		if v == "" {
			delete(ctx.Env, k)
		} else {
			ctx.Env[k] = v
		}
	}
	return code
}
