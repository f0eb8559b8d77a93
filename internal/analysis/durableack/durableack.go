// Package durableack enforces the durable-ack contract of the NJS (PR 2):
// once a request has mutated journaled state — an incarnation append, a
// spool open/chunk/commit, any record* helper — the function must not return
// a protocol acknowledgment (a protocol.*Reply value or a core.JobID) until
// the journal has been synced (SyncJournal, stageAck, or journal.Store.Sync).
// An ack that races the fsync is exactly the crash window the group-commit
// journal exists to close: the client believes the job is consigned while the
// record is still in the page cache.
//
// The check is a linear, source-order over-approximation per exported
// function: mutating calls set a dirty flag, sync calls clear it, and a
// return while dirty is flagged. Returns inside an `if err != nil`-style
// guard are exempt (error paths do not acknowledge), and calls inside defer
// statements or function literals are ignored (their execution order is not
// source order). Unprovable-but-correct sites carry
// //lint:allow durableack <reason>.
package durableack

import (
	"go/ast"
	"go/token"
	"strings"

	"unicore/internal/analysis"
)

// Analyzer flags ack-carrying returns reached after a journaled mutation
// with no intervening sync.
var Analyzer = &analysis.Analyzer{
	Name:  "durableack",
	Doc:   "report protocol acks returned after a journal mutation without an intervening SyncJournal/group-commit",
	Scope: []string{"unicore/internal/njs", "unicore/internal/staging"},
	Run:   run,
}

// Mutating and syncing call names matched by identifier when the receiver
// type is not statically resolvable (the njs record* family is unexported).
var (
	mutateNames = map[string]bool{
		"admit": true, "record": true, "recordAdmit": true,
		"recordActionStart": true, "recordActionDone": true,
		"recordControl": true, "recordRootDone": true,
		"recordInject": true, "recordRemote": true,
		"recordFile": true,
	}
	syncNames = map[string]bool{"SyncJournal": true, "stageAck": true}
)

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			if !returnsAck(pass, fd) {
				continue
			}
			s := &scanner{pass: pass}
			s.stmts(fd.Body.List, false)
		}
	}
	return nil
}

// returnsAck reports whether the function's results include a protocol reply
// struct or a job ID — the values a client reads as an acknowledgment.
func returnsAck(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	if fd.Type.Results == nil {
		return false
	}
	for _, field := range fd.Type.Results.List {
		t := pass.TypesInfo.TypeOf(field.Type)
		if t == nil {
			continue
		}
		if analysis.IsNamed(t, "unicore/internal/core", "JobID") {
			return true
		}
		if n := analysis.Named(t); n != nil && n.Obj().Pkg() != nil &&
			n.Obj().Pkg().Path() == "unicore/internal/protocol" &&
			strings.HasSuffix(n.Obj().Name(), "Reply") {
			return true
		}
	}
	return false
}

// scanner walks one function body in source order tracking whether a
// journaled mutation is still unsynced.
type scanner struct {
	pass      *analysis.Pass
	dirty     bool
	dirtyCall string
}

// stmts scans a statement list; errGuard marks statements dominated by an
// error check, whose returns are error paths rather than acks.
func (s *scanner) stmts(list []ast.Stmt, errGuard bool) {
	for _, st := range list {
		s.stmt(st, errGuard)
	}
}

func (s *scanner) stmt(st ast.Stmt, errGuard bool) {
	switch st := st.(type) {
	case *ast.BlockStmt:
		s.stmts(st.List, errGuard)
	case *ast.IfStmt:
		if st.Init != nil {
			s.stmt(st.Init, errGuard)
		}
		s.exprCalls(st.Cond)
		s.stmt(st.Body, errGuard || isErrGuard(st.Cond))
		if st.Else != nil {
			s.stmt(st.Else, errGuard)
		}
	case *ast.ForStmt:
		if st.Init != nil {
			s.stmt(st.Init, errGuard)
		}
		s.stmt(st.Body, errGuard)
	case *ast.RangeStmt:
		s.exprCalls(st.X)
		s.stmt(st.Body, errGuard)
	case *ast.SwitchStmt:
		if st.Init != nil {
			s.stmt(st.Init, errGuard)
		}
		s.exprCalls(st.Tag)
		s.stmt(st.Body, errGuard)
	case *ast.TypeSwitchStmt:
		s.stmt(st.Body, errGuard)
	case *ast.SelectStmt:
		s.stmt(st.Body, errGuard)
	case *ast.CaseClause:
		s.stmts(st.Body, errGuard)
	case *ast.CommClause:
		s.stmts(st.Body, errGuard)
	case *ast.LabeledStmt:
		s.stmt(st.Stmt, errGuard)
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			s.exprCalls(r)
		}
		if s.dirty && !errGuard {
			s.pass.Reportf(st.Pos(),
				"ack returned after unsynced journal mutation %q (durable-ack contract: call SyncJournal/stageAck before acknowledging)",
				s.dirtyCall)
		}
	case *ast.DeferStmt, *ast.GoStmt:
		// Deferred and concurrent calls do not run in source order; skip.
	default:
		s.nodeCalls(st)
	}
}

// exprCalls classifies every call in an expression, skipping function
// literals (their bodies run later, if at all).
func (s *scanner) exprCalls(e ast.Expr) {
	if e == nil {
		return
	}
	s.nodeCalls(e)
}

func (s *scanner) nodeCalls(n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			s.classify(n)
		}
		return true
	})
}

// classify updates the dirty flag for one call.
func (s *scanner) classify(call *ast.CallExpr) {
	info := s.pass.TypesInfo
	name := analysis.CalleeName(call)
	switch {
	case syncNames[name],
		analysis.IsMethodCall(info, call, "unicore/internal/journal", "Store", "Sync"):
		s.dirty = false
	case mutateNames[name],
		analysis.IsMethodCall(info, call, "unicore/internal/journal", "Store", "Append"),
		analysis.IsMethodCall(info, call, "unicore/internal/staging", "Spool", "Open", "Chunk", "Commit"):
		s.dirty = true
		s.dirtyCall = name
	}
}

// isErrGuard recognizes the conventional error-path conditions: any `x !=
// nil` comparison (possibly under && / ||) or a negated ok (`!ok`).
func isErrGuard(cond ast.Expr) bool {
	switch c := ast.Unparen(cond).(type) {
	case *ast.BinaryExpr:
		switch c.Op {
		case token.NEQ:
			return isNil(c.X) || isNil(c.Y)
		case token.LAND, token.LOR:
			return isErrGuard(c.X) || isErrGuard(c.Y)
		}
	case *ast.UnaryExpr:
		return c.Op == token.NOT
	}
	return false
}

func isNil(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}
