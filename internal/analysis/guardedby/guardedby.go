// Package guardedby checks mutex discipline declared in the source: a struct
// field annotated
//
//	foo T //gcopss:guardedby mu
//
// may only be read or written in functions that lock the sibling mutex field
// first. The annotation names a field of type sync.Mutex or sync.RWMutex in
// the same struct (anything else is itself a diagnostic).
//
// Lock tracking is syntactic and source-ordered: an access x.foo is
// considered protected if the enclosing function contains x.mu.Lock() or
// x.mu.RLock() — with the same base expression x — earlier in the body.
// Two escape hatches mark functions that run with the lock already held:
//
//   - a name ending in "Locked" (the sync package's own convention), or
//   - a //gcopss:locked [mu] doc annotation (with an argument, only accesses
//     guarded by that mutex are exempt).
//
// Constructors stay clean by construction: composite-literal initialization
// (&T{foo: …}) is not a selector access and is never flagged.
//
// Guarded fields of exported structs export a fact keyed by the field, so
// packages that reach into an imported struct are checked too, provided the
// driver analyzes packages in dependency order.
//
// Limitations (documented, deliberate): unlock-then-access within one
// function is not caught (source order only), aliasing through a second
// variable is not tracked, and accesses through method calls are the callee's
// responsibility.
package guardedby

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/icn-gaming/gcopss/internal/analysis"
)

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name:        "guardedby",
	Doc:         "fields annotated //gcopss:guardedby <mutex> must only be accessed with that mutex held",
	NeedsReason: true,
	Run:         run,
}

// guardFact is the cross-package fact exported for each annotated field.
type guardFact struct {
	Mutex string
}

func run(pass *analysis.Pass) (interface{}, error) {
	guards := collectGuards(pass)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd, guards)
		}
	}
	return nil, nil
}

// collectGuards parses //gcopss:guardedby annotations on struct fields,
// validates that each names a sibling sync.Mutex/RWMutex field, records the
// guarded fields and exports a fact per field for importing packages.
func collectGuards(pass *analysis.Pass) map[*types.Var]string {
	guards := map[*types.Var]string{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				dir, ok := analysis.FieldDirective(field, "guardedby")
				if !ok {
					continue
				}
				if dir.Arg == "" {
					pass.Reportf(field.Pos(), "//gcopss:guardedby needs the name of the guarding mutex field")
					continue
				}
				if !hasMutexField(st, pass, dir.Arg) {
					pass.Reportf(field.Pos(), "//gcopss:guardedby %s: %s is not a sync.Mutex/RWMutex field of %s", dir.Arg, dir.Arg, ts.Name.Name)
					continue
				}
				for _, name := range field.Names {
					v, ok := pass.TypesInfo.Defs[name].(*types.Var)
					if !ok {
						continue
					}
					guards[v] = dir.Arg
					pass.ExportFact(analysis.FieldKey(pass.Pkg.Path(), ts.Name.Name, name.Name), guardFact{Mutex: dir.Arg})
				}
			}
			return true
		})
	}
	return guards
}

// hasMutexField reports whether the struct declares a field named name whose
// type is sync.Mutex or sync.RWMutex.
func hasMutexField(st *ast.StructType, pass *analysis.Pass, name string) bool {
	for _, field := range st.Fields.List {
		for _, fn := range field.Names {
			if fn.Name != name {
				continue
			}
			v, ok := pass.TypesInfo.Defs[fn].(*types.Var)
			return ok && isMutexType(v.Type())
		}
	}
	return false
}

func isMutexType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// checkFunc flags unguarded accesses to annotated fields within one function
// body (closures included: a lock taken in the enclosing body counts for
// them, by source position).
func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl, guards map[*types.Var]string) {
	lockedAll, lockedMu := lockedEscape(fd)
	if lockedAll && lockedMu == "" {
		return
	}
	// First sweep: every x.mu.Lock()/RLock() position, keyed by the printed
	// form of x.mu.
	locks := map[string]token.Pos{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
			return true
		}
		key := renderExpr(sel.X)
		if key == "" {
			return true
		}
		if prev, ok := locks[key]; !ok || call.Pos() < prev {
			locks[key] = call.Pos()
		}
		return true
	})
	// Second sweep: guarded-field accesses.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		selection, ok := pass.TypesInfo.Selections[sel]
		if !ok || selection.Kind() != types.FieldVal {
			return true
		}
		field, ok := selection.Obj().(*types.Var)
		if !ok {
			return true
		}
		mutex, guarded := guardOf(pass, guards, field, selection)
		if !guarded {
			return true
		}
		if lockedAll && lockedMu == mutex {
			return true
		}
		lockKey := renderExpr(sel.X) + "." + mutex
		if pos, ok := locks[lockKey]; ok && pos < sel.Pos() {
			return true
		}
		pass.Reportf(sel.Pos(), "access to %s.%s without holding %s (//gcopss:guardedby %s): lock %s first or mark the function //gcopss:locked %s",
			renderExpr(sel.X), field.Name(), mutex, mutex, lockKey, mutex)
		return true
	})
}

// guardOf resolves the guarding mutex of a field: same-package annotations
// first, then facts exported by the field's package.
func guardOf(pass *analysis.Pass, guards map[*types.Var]string, field *types.Var, selection *types.Selection) (string, bool) {
	if mu, ok := guards[field]; ok {
		return mu, true
	}
	if field.Pkg() == nil || field.Pkg() == pass.Pkg {
		return "", false
	}
	recv := selection.Recv()
	if ptr, ok := recv.Underlying().(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return "", false
	}
	f, ok := pass.ImportFact(analysis.FieldKey(field.Pkg().Path(), named.Obj().Name(), field.Name()))
	if !ok {
		return "", false
	}
	gf, ok := f.(guardFact)
	if !ok {
		return "", false
	}
	return gf.Mutex, true
}

// lockedEscape reports whether the function declares it runs with a lock
// already held: a *Locked name suffix (all mutexes) or a //gcopss:locked
// annotation (optionally restricted to one mutex name).
func lockedEscape(fd *ast.FuncDecl) (locked bool, mutex string) {
	name := fd.Name.Name
	if len(name) > len("Locked") && name[len(name)-len("Locked"):] == "Locked" {
		return true, ""
	}
	if dir, ok := analysis.GroupDirective(fd.Doc, "locked"); ok {
		return true, dir.Arg
	}
	return false, ""
}

// renderExpr prints the base expression of a selector in a canonical,
// index-insensitive form ("d", "c.conn", "s.shards[]"), so a lock through
// the same chain matches the access.
func renderExpr(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := renderExpr(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	case *ast.ParenExpr:
		return renderExpr(e.X)
	case *ast.StarExpr:
		return renderExpr(e.X)
	case *ast.IndexExpr:
		base := renderExpr(e.X)
		if base == "" {
			return ""
		}
		return base + "[]"
	}
	return ""
}
