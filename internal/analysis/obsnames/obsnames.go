// Package obsnames guards the metric namespace of the telemetry registry.
//
// Metric names are the contract between the code and every dashboard, alert
// and scrape that consumes the exposition. Two properties keep that contract
// auditable:
//
//  1. Names are compile-time constants. A name assembled at runtime cannot
//     be grepped for, can collide after deployment, and turns the registry's
//     register-once panic into a data-dependent crash.
//  2. Names match ^[a-z][a-z0-9_.]*$ — the grammar obs.ValidName enforces at
//     runtime. The linter moves that panic to the build.
//
// The check fires on every call to an obs.Registry constructor method
// (Counter, Gauge, GaugeFunc, Histogram) outside internal/obs
// itself, whose own tests exercise the invalid-name panics.
package obsnames

import (
	"go/ast"
	"go/constant"
	"go/types"
	"regexp"

	"github.com/icn-gaming/gcopss/internal/analysis"
)

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name: "obsnames",
	Doc:  "obs.Registry metric names must be compile-time string constants matching ^[a-z][a-z0-9_.]*$",
	Run:  run,
}

// constructors are the Registry methods whose first argument is a metric name.
var constructors = map[string]bool{
	"Counter":   true,
	"Gauge":     true,
	"GaugeFunc": true,
	"Histogram": true,
}

var validName = regexp.MustCompile(`^[a-z][a-z0-9_.]*$`)

func run(pass *analysis.Pass) (interface{}, error) {
	if analysis.PathIn(pass.Pkg.Path(), "internal/obs") {
		return nil, nil
	}
	pass.Inspect(func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !constructors[sel.Sel.Name] || len(call.Args) == 0 {
			return true
		}
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || !isRegistryMethod(fn) {
			return true
		}
		tv, ok := pass.TypesInfo.Types[call.Args[0]]
		if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
			pass.Reportf(call.Args[0].Pos(),
				"metric name passed to obs.Registry.%s must be a compile-time string constant", sel.Sel.Name)
			return true
		}
		if name := constant.StringVal(tv.Value); !validName.MatchString(name) {
			pass.Reportf(call.Args[0].Pos(),
				"metric name %q does not match ^[a-z][a-z0-9_.]*$", name)
		}
		return true
	})
	return nil, nil
}

// isRegistryMethod reports whether fn is a method with an obs.Registry
// receiver (value or pointer).
func isRegistryMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Registry" && obj.Pkg() != nil && analysis.PathIn(obj.Pkg().Path(), "internal/obs")
}
