// Package lockorder enforces the NJS locking contract (PR 1): per-job locks
// nest strictly ancestor→descendant, the registry lock (regMu) is innermost
// (never held across a job-lock acquisition), and no per-job lock is held
// across a peer call through protocol.Client — a network round trip under a
// job lock would let one slow site block Poll/Control on the local job.
//
// The analyzer recognizes "job" locks syntactically and by type: a call
// x.mu.Lock() where x's type is a struct with a sync.Mutex field `mu` and a
// `children` field, matching njs.unicoreJob and fixture doubles alike. The
// registry lock is any `.regMu` RWMutex. Within one function it tracks the
// held set in source order, forking the set at branches (a branch that
// unlocks and returns does not release the lock for the code after it).
//
// A nested job-lock acquisition is accepted only when the inner variable
// provably descends from an already-held job: it was read from
// `<held>.children[...]` (directly, by range, or passed through a job/jobs
// registry lookup). Sites that honor the contract through arguments the
// analyzer cannot trace — a callee locking a parent and a child it was
// handed — carry //lint:allow lockorder <reason>.
package lockorder

import (
	"go/ast"
	"go/types"

	"unicore/internal/analysis"
)

// Analyzer flags registry-before-job lock orders, unprovable nested job
// locks, and peer calls under a job lock.
var Analyzer = &analysis.Analyzer{
	Name:  "lockorder",
	Doc:   "report job/registry lock acquisitions violating the ancestor→descendant order and peer calls made under a per-job lock",
	Scope: []string{"unicore/internal/njs"},
	Run:   run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			scanFunc(pass, fd.Body)
		}
	}
	return nil
}

// scanFunc checks one function body, then every function literal it contains
// with a fresh held-set (literals run later — deferred, on timers, or on
// other goroutines — so they inherit no syntactic lock state).
func scanFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	s := &scanner{pass: pass, derived: derivations(pass, body)}
	s.stmts(body.List)
	for i := 0; i < len(s.lits); i++ { // lits may grow while scanning lits
		lit := s.lits[i]
		s.stack = nil
		s.stmts(lit.Body.List)
	}
}

// lockKind discriminates held-set entries.
type lockKind int

const (
	jobLock lockKind = iota
	regLock
)

// held is one lock on the scanner's stack.
type held struct {
	kind lockKind
	key  string // root expression of the owning job, e.g. "uj"
}

// scanner tracks the held locks through one function in source order.
type scanner struct {
	pass    *analysis.Pass
	derived map[string][]string
	stack   []held
	lits    []*ast.FuncLit
}

// stmts scans a list and reports whether control definitely leaves it
// (return/break/continue/goto).
func (s *scanner) stmts(list []ast.Stmt) bool {
	terminated := false
	for _, st := range list {
		if s.stmt(st) {
			terminated = true
		}
	}
	return terminated
}

func (s *scanner) stmt(st ast.Stmt) bool {
	switch st := st.(type) {
	case *ast.BlockStmt:
		return s.stmts(st.List)
	case *ast.IfStmt:
		if st.Init != nil {
			s.stmt(st.Init)
		}
		s.calls(st.Cond)
		pre := s.clone()
		bodyTerm := s.stmts(st.Body.List)
		bodyStack := s.stack
		elseTerm := true
		var elseStack []held
		if st.Else != nil {
			s.stack = cloneOf(pre)
			elseTerm = s.stmt(st.Else)
			elseStack = s.stack
		} else {
			elseStack = pre
			elseTerm = false
		}
		switch {
		case bodyTerm && elseTerm:
			s.stack = pre
			return true
		case bodyTerm:
			s.stack = elseStack
		case elseTerm:
			s.stack = bodyStack
		default:
			s.stack = bodyStack // approximation: branches usually rejoin equal
		}
		return false
	case *ast.ForStmt:
		if st.Init != nil {
			s.stmt(st.Init)
		}
		s.calls(st.Cond)
		s.stmts(st.Body.List)
		return false
	case *ast.RangeStmt:
		s.calls(st.X)
		s.stmts(st.Body.List)
		return false
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		s.clauses(st)
		return false
	case *ast.LabeledStmt:
		return s.stmt(st.Stmt)
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			s.calls(r)
		}
		return true
	case *ast.BranchStmt:
		return true
	case *ast.DeferStmt:
		// A deferred unlock releases at function end — the lock stays held
		// for everything after, which the stack already expresses by not
		// popping. Other deferred work is queued like a literal.
		if lit, ok := st.Call.Fun.(*ast.FuncLit); ok {
			s.lits = append(s.lits, lit)
		}
		return false
	case *ast.GoStmt:
		if lit, ok := st.Call.Fun.(*ast.FuncLit); ok {
			s.lits = append(s.lits, lit)
		}
		return false
	default:
		s.calls(st)
		return false
	}
}

// clauses scans each case/comm clause of a switch/select against a copy of
// the pre-switch held set.
func (s *scanner) clauses(st ast.Stmt) {
	body := func() *ast.BlockStmt {
		switch st := st.(type) {
		case *ast.SwitchStmt:
			if st.Init != nil {
				s.stmt(st.Init)
			}
			s.calls(st.Tag)
			return st.Body
		case *ast.TypeSwitchStmt:
			return st.Body
		case *ast.SelectStmt:
			return st.Body
		}
		return nil
	}()
	pre := s.clone()
	result := pre
	picked := false
	for _, c := range body.List {
		s.stack = cloneOf(pre)
		var term bool
		switch c := c.(type) {
		case *ast.CaseClause:
			term = s.stmts(c.Body)
		case *ast.CommClause:
			term = s.stmts(c.Body)
		}
		if !term && !picked {
			result = s.stack
			picked = true
		}
	}
	s.stack = result
}

// calls processes every call in a node in source order, skipping function
// literal bodies (queued for a separate fresh-stack scan).
func (s *scanner) calls(n ast.Node) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			s.lits = append(s.lits, n)
			return false
		case *ast.CallExpr:
			s.call(n)
		}
		return true
	})
}

// call interprets one call as a lock event or a peer call.
func (s *scanner) call(call *ast.CallExpr) {
	info := s.pass.TypesInfo
	if analysis.IsMethodCall(info, call, "unicore/internal/protocol", "Client", "Call", "SubscribeStream", "streamCall", "callOnce") {
		for _, h := range s.stack {
			if h.kind == jobLock {
				s.pass.Reportf(call.Pos(),
					"peer call through protocol.Client while job lock %q is held; release it before the network round trip", h.key)
				break
			}
		}
		return
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	op := sel.Sel.Name
	if op != "Lock" && op != "Unlock" && op != "RLock" && op != "RUnlock" {
		return
	}
	recv, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return
	}
	switch {
	case recv.Sel.Name == "regMu":
		s.event(regLock, "regMu", op, call)
	case recv.Sel.Name == "mu" && isJobStruct(info.TypeOf(recv.X)):
		s.event(jobLock, types.ExprString(recv.X), op, call)
	}
}

// event applies one lock/unlock to the held set, reporting order violations
// on acquisition.
func (s *scanner) event(kind lockKind, key, op string, call *ast.CallExpr) {
	acquire := op == "Lock" || op == "RLock"
	if !acquire {
		for i := len(s.stack) - 1; i >= 0; i-- {
			if s.stack[i].kind == kind && s.stack[i].key == key {
				s.stack = append(s.stack[:i], s.stack[i+1:]...)
				return
			}
		}
		return // unlock of a lock taken by the caller: no-op
	}
	if kind == jobLock {
		for _, h := range s.stack {
			if h.kind == regLock {
				s.pass.Reportf(call.Pos(),
					"job lock %q acquired while the registry lock is held (regMu is innermost: job → registry, never the reverse)", key)
				break
			}
		}
		for _, h := range s.stack {
			if h.kind == jobLock && h.key != key && !s.descendsFrom(key, h.key) {
				s.pass.Reportf(call.Pos(),
					"nested job lock %q under %q is not provably ancestor→descendant; restructure or annotate //lint:allow lockorder <reason>", key, h.key)
				break
			}
		}
	}
	s.stack = append(s.stack, held{kind: kind, key: key})
}

// descendsFrom reports whether the derivation edges link child to ancestor.
func (s *scanner) descendsFrom(child, ancestor string) bool {
	seen := map[string]bool{}
	var walk func(v string) bool
	walk = func(v string) bool {
		if v == ancestor {
			return true
		}
		if seen[v] {
			return false
		}
		seen[v] = true
		for _, p := range s.derived[v] {
			if walk(p) {
				return true
			}
		}
		return false
	}
	return walk(child)
}

func (s *scanner) clone() []held { return cloneOf(s.stack) }

func cloneOf(st []held) []held {
	out := make([]held, len(st))
	copy(out, st)
	return out
}

// isJobStruct reports whether t (behind pointers) is a struct with a
// sync.Mutex field `mu` and a `children` field — the shape of a per-job
// state record.
func isJobStruct(t types.Type) bool {
	n := analysis.Named(t)
	if n == nil {
		return false
	}
	st, ok := n.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	hasMu, hasChildren := false, false
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		switch f.Name() {
		case "mu":
			hasMu = analysis.IsNamed(f.Type(), "sync", "Mutex")
		case "children":
			hasChildren = true
		}
	}
	return hasMu && hasChildren
}

// derivations builds the child-of edges for one function: v → p when v was
// read from p.children (index or range) or looked up from a value that was.
func derivations(pass *analysis.Pass, body *ast.BlockStmt) map[string][]string {
	edges := make(map[string][]string)
	add := func(child, parent string) {
		if child == "" || parent == "" || child == "_" {
			return
		}
		edges[child] = append(edges[child], parent)
	}
	// Two passes so a lookup that precedes the children read in source
	// order (rare, but cheap to cover) still chains.
	for range 2 {
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Rhs) != 1 {
					return true
				}
				lhs := exprName(n.Lhs[0])
				switch rhs := ast.Unparen(n.Rhs[0]).(type) {
				case *ast.IndexExpr:
					if p := childrenOwner(rhs); p != "" {
						add(lhs, p)
					} else if k := exprName(rhs.Index); k != "" && len(edges[k]) > 0 {
						// jobs[childID]-style registry read keyed by a
						// derived ID.
						add(lhs, k)
					}
				case *ast.CallExpr:
					// job(childID)-style registry lookup: the result
					// descends from whatever the key descends from.
					if analysis.CalleeName(rhs) == "job" && len(rhs.Args) == 1 {
						if p := childrenOwner(rhs.Args[0]); p != "" {
							add(lhs, p)
						} else if k := exprName(rhs.Args[0]); k != "" {
							add(lhs, k)
						}
					}
				}
			case *ast.RangeStmt:
				if p := childrenOwner(n.X); p != "" {
					add(exprName(n.Value), p)
					add(exprName(n.Key), p)
				}
			}
			return true
		})
	}
	return edges
}

// childrenOwner returns the printed owner expression when e reads
// `<owner>.children` (directly or through one index), else "".
func childrenOwner(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.IndexExpr:
		return childrenOwner(e.X)
	case *ast.SelectorExpr:
		if e.Sel.Name == "children" {
			return types.ExprString(e.X)
		}
	}
	return ""
}

// exprName returns the identifier name of e, or its printed form for selector
// chains, or "" for anything else.
func exprName(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return types.ExprString(e)
	case nil:
		return ""
	}
	return ""
}
