// Package errcheckedfaces forbids discarding the error results of wire
// encode/decode and transport face writes.
//
// A dropped Encode/Decode error turns a malformed packet into silent state
// divergence; a dropped face-write error leaves a dead face attached and a
// subscriber losing every subsequent update — precisely the losses the
// paper's migration protocol promises cannot happen. The checked set is:
//
//   - every error-returning function and method of internal/wire;
//   - the face-write methods of internal/transport (WritePacket, WriteBurst,
//     SendHello, Send, Subscribe, Unsubscribe, Publish, AnnouncePrefix,
//     Query).
//
// Discarding covers call statements, go/defer statements, and assignments of
// the error result to the blank identifier.
package errcheckedfaces

import (
	"go/ast"
	"go/types"

	"github.com/icn-gaming/gcopss/internal/analysis"
)

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name: "errcheckedfaces",
	Doc:  "error results of wire encode/decode and transport face writes must not be discarded",
	Run:  run,
}

// faceWrites is the transport method set whose errors are load-bearing.
var faceWrites = map[string]bool{
	"WritePacket":    true,
	"WriteBurst":     true,
	"SendHello":      true,
	"Send":           true,
	"Subscribe":      true,
	"Unsubscribe":    true,
	"Publish":        true,
	"AnnouncePrefix": true,
	"Query":          true,
}

func run(pass *analysis.Pass) (interface{}, error) {
	pass.Inspect(func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			report(pass, n.X)
		case *ast.GoStmt:
			report(pass, n.Call)
		case *ast.DeferStmt:
			report(pass, n.Call)
		case *ast.AssignStmt:
			checkAssign(pass, n)
		}
		return true
	})
	return nil, nil
}

// report flags expr when it is a bare call to a checked function.
func report(pass *analysis.Pass, expr ast.Expr) {
	call, ok := expr.(*ast.CallExpr)
	if !ok {
		return
	}
	if fn := checkedCallee(pass, call); fn != nil {
		pass.Reportf(call.Pos(), "error result of %s is discarded: wire/transport failures must be handled or explicitly waived", fn.Name())
	}
}

// checkAssign flags assignments that send a checked callee's error result to
// the blank identifier.
func checkAssign(pass *analysis.Pass, as *ast.AssignStmt) {
	// a, b := f() — one call, results matched positionally.
	if len(as.Rhs) == 1 {
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return
		}
		fn := checkedCallee(pass, call)
		if fn == nil {
			return
		}
		sig := fn.Type().(*types.Signature)
		if sig.Results().Len() != len(as.Lhs) {
			return
		}
		for i := 0; i < sig.Results().Len(); i++ {
			if isErrorType(sig.Results().At(i).Type()) && isBlank(as.Lhs[i]) {
				pass.Reportf(call.Pos(), "error result of %s is assigned to _: wire/transport failures must be handled or explicitly waived", fn.Name())
			}
		}
		return
	}
	// a, b = f(), g() — calls pair with LHS one-to-one.
	if len(as.Rhs) == len(as.Lhs) {
		for i, rhs := range as.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok {
				continue
			}
			fn := checkedCallee(pass, call)
			if fn == nil {
				continue
			}
			sig := fn.Type().(*types.Signature)
			if sig.Results().Len() == 1 && isErrorType(sig.Results().At(0).Type()) && isBlank(as.Lhs[i]) {
				pass.Reportf(call.Pos(), "error result of %s is assigned to _: wire/transport failures must be handled or explicitly waived", fn.Name())
			}
		}
	}
}

// checkedCallee returns the called function if it belongs to the checked set
// and returns an error; nil otherwise.
func checkedCallee(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		obj = pass.TypesInfo.Uses[fun.Sel]
	case *ast.Ident:
		obj = pass.TypesInfo.Uses[fun]
	default:
		return nil
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || !hasErrorResult(sig) {
		return nil
	}
	switch {
	case analysis.PathIn(fn.Pkg().Path(), "internal/wire"):
		return fn
	case analysis.PathIn(fn.Pkg().Path(), "internal/transport") && sig.Recv() != nil && faceWrites[fn.Name()]:
		return fn
	}
	return nil
}

func hasErrorResult(sig *types.Signature) bool {
	for i := 0; i < sig.Results().Len(); i++ {
		if isErrorType(sig.Results().At(i).Type()) {
			return true
		}
	}
	return false
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}
