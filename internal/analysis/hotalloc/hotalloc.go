// Package hotalloc turns the repository's alloc-budget discipline into a
// compile-time gate: a function annotated //gcopss:hotpath — and, through
// cross-package facts, everything it calls inside the module — must not
// contain known-allocating constructs.
//
// Flagged constructs:
//
//   - fmt.Sprintf / fmt.Errorf (and Sprint/Sprintln/Appendf)
//   - non-constant string concatenation (+ or += on strings)
//   - slice/map composite literals, &T{…} literals, make and new inside loops
//   - closures capturing outer variables (each capture forces the variable
//     and the closure itself onto the heap)
//   - implicit value-to-interface conversions at call arguments, assignments
//     and returns (pointers, maps, channels, funcs, interfaces and constants
//     are exempt: those conversions do not allocate)
//
// Calls are checked interprocedurally: a same-package callee is resolved by a
// local fixpoint over the call graph, a cross-package callee through the
// FactStore — every function found to allocate (for any reason, annotated or
// not) exports an "allocates" fact that importing packages consume, so a hot
// path is poisoned by an allocation any number of module-internal calls away.
//
// Value-typed struct literals (ndn.Action{…} passed by value) stay exempt
// even in loops: they live on the stack and are exactly how the zero-copy
// emission API is meant to be used. Calls through interface values and stored
// function values are not resolved (the ActionSink.Emit seam is the one
// deliberate blind spot — sinks are alloc-free by their own budget tests).
package hotalloc

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"github.com/icn-gaming/gcopss/internal/analysis"
)

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name:        "hotalloc",
	Doc:         "//gcopss:hotpath functions (and everything they call in-module) must not contain known-allocating constructs",
	NeedsReason: true,
	Run:         run,
}

// A reason is one allocating construct found in a function body.
type reason struct {
	pos  token.Pos
	what string
}

// A calleeRef is one statically resolved call site.
type calleeRef struct {
	fn  *types.Func
	pos token.Pos
}

// fnInfo is the per-function summary the fixpoint runs on.
type fnInfo struct {
	decl    *ast.FuncDecl
	hot     bool
	direct  []reason
	callees []calleeRef
}

func run(pass *analysis.Pass) (interface{}, error) {
	infos := map[*types.Func]*fnInfo{}
	var order []*types.Func // deterministic iteration for reporting
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			info := &fnInfo{decl: fd}
			_, info.hot = analysis.FuncDirective(fd, "hotpath")
			sc := &scanner{pass: pass, info: info}
			sc.sigs = append(sc.sigs, fn.Type().(*types.Signature))
			sc.scan(fd.Body, 0)
			infos[fn] = info
			order = append(order, fn)
		}
	}

	// Fixpoint: a function allocates if it has a direct reason or calls an
	// allocating function (same package, or via an imported fact). The leaf
	// phrase is inherited so diagnostics name the root cause.
	alloc := map[*types.Func]string{}
	for fn, info := range infos {
		if len(info.direct) > 0 {
			alloc[fn] = info.direct[0].what
		}
	}
	for changed := true; changed; {
		changed = false
		for fn, info := range infos {
			if _, done := alloc[fn]; done {
				continue
			}
			for _, c := range info.callees {
				if why, ok := allocWhy(pass, alloc, c.fn); ok {
					alloc[fn] = why
					changed = true
					break
				}
			}
		}
	}
	for fn, why := range alloc {
		pass.ExportFact(analysis.FuncKey(fn), why)
	}

	// Report inside hot functions only: each direct construct at its own
	// position, each call whose (transitive) callee allocates at the call.
	for _, fn := range order {
		info := infos[fn]
		if !info.hot {
			continue
		}
		for _, r := range info.direct {
			pass.Reportf(r.pos, "%s on hot path %s: //gcopss:hotpath functions must not allocate", r.what, fn.Name())
		}
		for _, c := range info.callees {
			if why, ok := allocWhy(pass, alloc, c.fn); ok {
				pass.Reportf(c.pos, "call to %s on hot path %s allocates: %s", c.fn.Name(), fn.Name(), why)
			}
		}
	}
	return nil, nil
}

// allocWhy resolves a callee's allocation status: same-package fixpoint
// result first, then the cross-package fact store.
func allocWhy(pass *analysis.Pass, alloc map[*types.Func]string, fn *types.Func) (string, bool) {
	if why, ok := alloc[fn]; ok {
		return why, true
	}
	f, ok := pass.ImportFact(analysis.FuncKey(fn))
	if !ok {
		return "", false
	}
	why, _ := f.(string)
	return why, why != ""
}

// scanner walks one function body collecting allocating constructs and call
// edges. depth counts enclosing loops; a FuncLit resets it (its body runs
// when called, not where it is written).
type scanner struct {
	pass *analysis.Pass
	info *fnInfo
	sigs []*types.Signature // enclosing func signatures, innermost last
}

func (s *scanner) add(pos token.Pos, what string) {
	s.info.direct = append(s.info.direct, reason{pos, what})
}

// scan dispatches on the node kinds the analyzer cares about and hand-walks
// their children so loop depth and signature context stay accurate.
func (s *scanner) scan(n ast.Node, depth int) {
	if n == nil {
		return
	}
	switch n := n.(type) {
	case *ast.ForStmt:
		s.scan(n.Init, depth)
		s.scanExpr(n.Cond, depth)
		s.scan(n.Post, depth)
		s.scanBlock(n.Body, depth+1)
		return
	case *ast.RangeStmt:
		s.scanExpr(n.X, depth)
		s.scanBlock(n.Body, depth+1)
		return
	case *ast.FuncLit:
		if caps := s.captures(n); len(caps) > 0 {
			s.add(n.Pos(), fmt.Sprintf("closure capturing %s", caps[0]))
		}
		sig, _ := s.pass.TypesInfo.Types[n].Type.(*types.Signature)
		s.sigs = append(s.sigs, sig)
		s.scanBlock(n.Body, 0)
		s.sigs = s.sigs[:len(s.sigs)-1]
		return
	case *ast.CallExpr:
		s.scanCall(n, depth)
		return
	case *ast.UnaryExpr:
		if cl, ok := n.X.(*ast.CompositeLit); ok && n.Op == token.AND {
			if depth > 0 {
				s.add(n.Pos(), "&composite literal inside a loop")
			}
			// The literal's elements still need scanning, but the literal
			// itself was accounted for here.
			for _, e := range cl.Elts {
				s.scanExpr(e, depth)
			}
			return
		}
		s.scanExpr(n.X, depth)
		return
	case *ast.CompositeLit:
		if depth > 0 {
			switch s.litType(n).(type) {
			case *types.Slice:
				s.add(n.Pos(), "slice literal inside a loop")
			case *types.Map:
				s.add(n.Pos(), "map literal inside a loop")
			}
		}
		for _, e := range n.Elts {
			s.scanExpr(e, depth)
		}
		return
	case *ast.BinaryExpr:
		if n.Op == token.ADD && s.isNonConstString(n) {
			s.add(n.Pos(), "non-constant string concatenation")
		}
		s.scanExpr(n.X, depth)
		s.scanExpr(n.Y, depth)
		return
	case *ast.AssignStmt:
		s.scanAssign(n, depth)
		return
	case *ast.ReturnStmt:
		s.scanReturn(n, depth)
		return
	}
	// Generic traversal for everything else, one level at a time so the
	// cases above see every descendant with the right context.
	ast.Inspect(n, func(child ast.Node) bool {
		if child == n {
			return true
		}
		s.scan(child, depth)
		return false
	})
}

func (s *scanner) scanBlock(b *ast.BlockStmt, depth int) {
	if b == nil {
		return
	}
	for _, st := range b.List {
		s.scan(st, depth)
	}
}

func (s *scanner) scanExpr(e ast.Expr, depth int) {
	if e == nil {
		return
	}
	s.scan(e, depth)
}

// scanCall classifies one call: known fmt allocators, make/new in loops,
// resolvable callees (edges for the fixpoint), and implicit interface
// conversions at the arguments.
func (s *scanner) scanCall(call *ast.CallExpr, depth int) {
	if tv, ok := s.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		// Conversion T(x), not a call. Interface targets allocate.
		if types.IsInterface(tv.Type) && len(call.Args) == 1 && s.allocatingConv(call.Args[0]) {
			s.add(call.Pos(), "value-to-interface conversion")
		}
		for _, a := range call.Args {
			s.scanExpr(a, depth)
		}
		return
	}
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := s.pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
			if depth > 0 && (id.Name == "make" || id.Name == "new") {
				s.add(call.Pos(), id.Name+" inside a loop")
			}
			for _, a := range call.Args {
				s.scanExpr(a, depth)
			}
			return
		}
	}
	if fn := calleeOf(s.pass, call); fn != nil {
		if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
			switch fn.Name() {
			case "Sprintf", "Errorf", "Sprint", "Sprintln", "Appendf":
				s.add(call.Pos(), "fmt."+fn.Name())
			}
		} else {
			s.info.callees = append(s.info.callees, calleeRef{fn: fn, pos: call.Pos()})
		}
	}
	s.checkArgConvs(call)
	s.scanExpr(call.Fun, depth)
	for _, a := range call.Args {
		s.scanExpr(a, depth)
	}
}

// checkArgConvs flags concrete values passed to interface-typed parameters
// (including the variadic ...interface{} of the print family).
func (s *scanner) checkArgConvs(call *ast.CallExpr) {
	sig, ok := s.pass.TypesInfo.Types[call.Fun].Type.(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // s... passes the slice through, no conversion
			}
			if sl, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = sl.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		if s.allocatingConv(arg) {
			s.add(arg.Pos(), "value-to-interface conversion at call argument")
		}
	}
}

func (s *scanner) scanAssign(n *ast.AssignStmt, depth int) {
	if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && s.isNonConstString(n.Lhs[0]) {
		s.add(n.Pos(), "non-constant string concatenation")
	}
	if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
		for i, lhs := range n.Lhs {
			lt := s.pass.TypesInfo.Types[lhs].Type
			if lt != nil && types.IsInterface(lt) && s.allocatingConv(n.Rhs[i]) {
				s.add(n.Rhs[i].Pos(), "value-to-interface conversion at assignment")
			}
		}
	}
	for _, e := range n.Lhs {
		s.scanExpr(e, depth)
	}
	for _, e := range n.Rhs {
		s.scanExpr(e, depth)
	}
}

func (s *scanner) scanReturn(n *ast.ReturnStmt, depth int) {
	sig := s.sigs[len(s.sigs)-1]
	if sig != nil && sig.Results() != nil && len(n.Results) == sig.Results().Len() {
		for i, res := range n.Results {
			if types.IsInterface(sig.Results().At(i).Type()) && s.allocatingConv(res) {
				s.add(res.Pos(), "value-to-interface conversion at return")
			}
		}
	}
	for _, e := range n.Results {
		s.scanExpr(e, depth)
	}
}

// allocatingConv reports whether implicitly converting arg to an interface
// type heap-allocates: true for concrete non-pointer-shaped values, false
// for constants, nil, interfaces, pointers, chans, maps and funcs.
func (s *scanner) allocatingConv(arg ast.Expr) bool {
	tv := s.pass.TypesInfo.Types[arg]
	if tv.Value != nil || tv.Type == nil {
		return false
	}
	if b, ok := tv.Type.(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return false
	}
	if types.IsInterface(tv.Type) {
		return false
	}
	switch tv.Type.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false
	}
	return true
}

// isNonConstString reports whether e has string type and no constant value.
func (s *scanner) isNonConstString(e ast.Expr) bool {
	tv := s.pass.TypesInfo.Types[e]
	if tv.Value != nil || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// litType returns the composite literal's underlying type (resolving the
// elided types of nested literals).
func (s *scanner) litType(cl *ast.CompositeLit) types.Type {
	t := s.pass.TypesInfo.Types[cl].Type
	if t == nil {
		return nil
	}
	return t.Underlying()
}

// captures returns the names of outer local variables the literal closes
// over. Package-level variables, struct fields and the literal's own
// parameters and locals do not force a heap allocation.
func (s *scanner) captures(lit *ast.FuncLit) []string {
	var names []string
	seen := map[*types.Var]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := s.pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || seen[v] || v.IsField() {
			return true
		}
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return true // package-level
		}
		if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
			return true // declared inside the literal
		}
		seen[v] = true
		names = append(names, id.Name)
		return true
	})
	return names
}

// calleeOf resolves the *types.Func a call statically invokes, or nil for
// builtins and calls through function values.
func calleeOf(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pass.TypesInfo.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
