// Package forbidden holds the rules of the shape "identifier X of package P
// must not be used in package set S": one AST walk, one table.
//
//   - clockfree: the paper's latency and loss-freedom numbers are only
//     reproducible if a run is a pure function of its inputs, so router,
//     simulator and testbed code — the event scheduler included — takes the
//     current (virtual) time as a parameter instead of sampling time.Now — or
//     time.Since, which samples it internally. The
//     transport daemon and the experiment timers sit at the edge of the
//     deterministic core and are out of scope.
//   - randinject: replayability requires every random decision to flow from
//     a recorded seed. The global math/rand functions draw from a
//     process-wide source other code consumes concurrently, so library code
//     threads a seeded *rand.Rand; constructing one and naming the rand types
//     stay allowed.
//   - nopanic: a router must survive any byte sequence a face can deliver. A
//     malformed packet surfaces as an error (and a Dropped counter), never as
//     a crash that takes the node and every multicast tree hanging off it
//     down. Test files are exempt.
//
// Each rule is an analyzer of its own name, so -checks and //lint:allow
// address it individually.
package forbidden

import (
	"go/ast"
	"go/types"
	"slices"

	"github.com/icn-gaming/gcopss/internal/analysis"
)

// rule is one row of the table.
type rule struct {
	name, doc string
	// in lists the package roots the rule covers (module prefix ignored, see
	// analysis.PathIn); nil covers every package except package main.
	in []string
	// pkgs are the import paths whose identifiers the rule looks at; ""
	// is the universe scope (builtins).
	pkgs []string
	// deny lists the forbidden identifiers. When nil, every package-level
	// function of pkgs is forbidden except those in allow.
	deny, allow []string
	// skipTests exempts _test.go files.
	skipTests bool
	// format is the diagnostic: %[1]s is the identifier, %[2]s the package
	// path under analysis.
	format string
}

var rules = []rule{
	{
		name:   "clockfree",
		doc:    "forbid time.Now/time.Since in the deterministic simulation core; inject time as a parameter",
		in:     []string{"internal/core", "internal/copss", "internal/broker", "internal/sim", "internal/ndn", "internal/faultnet", "internal/flowctl", "internal/event", "internal/testbed"},
		pkgs:   []string{"time"},
		deny:   []string{"Now", "Since"},
		format: "time.%[1]s is forbidden in %[2]s: simulation time must be injected as a parameter",
	},
	{
		name: "randinject",
		doc:  "forbid global math/rand functions outside package main; thread a seeded *rand.Rand",
		pkgs: []string{"math/rand", "math/rand/v2"},
		// The constructors do not draw from the global source.
		allow:  []string{"New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8"},
		format: "global rand.%[1]s is forbidden outside package main: thread a seeded *rand.Rand for replayable runs",
	},
	{
		name:      "nopanic",
		doc:       "forbid panic in packet-handling packages; malformed input must surface as an error",
		in:        []string{"internal/wire", "internal/core", "internal/copss", "internal/transport"},
		pkgs:      []string{""},
		deny:      []string{"panic"},
		skipTests: true,
		format:    "panic is forbidden in packet-handling package %[2]s: return an error so a malformed packet cannot crash a router",
	},
}

// Analyzers holds one analyzer per rule, in table order.
var Analyzers = func() []*analysis.Analyzer {
	out := make([]*analysis.Analyzer, len(rules))
	for i := range rules {
		r := &rules[i]
		out[i] = &analysis.Analyzer{
			Name: r.name,
			Doc:  r.doc,
			Run:  func(pass *analysis.Pass) (interface{}, error) { r.run(pass); return nil, nil },
		}
	}
	return out
}()

func (r *rule) run(pass *analysis.Pass) {
	inScope := pass.Pkg.Name() != "main"
	if r.in != nil {
		inScope = analysis.PathIn(pass.Pkg.Path(), r.in...)
	}
	if !inScope {
		return
	}
	pass.Inspect(func(n ast.Node) bool {
		// A use is pkg.Ident through an imported package name, or a bare
		// identifier resolving to a builtin.
		var (
			id  *ast.Ident
			pkg string
		)
		switch n := n.(type) {
		case *ast.SelectorExpr:
			x, ok := n.X.(*ast.Ident)
			if !ok {
				return true
			}
			pn, ok := pass.TypesInfo.Uses[x].(*types.PkgName)
			if !ok {
				return true
			}
			id, pkg = n.Sel, pn.Imported().Path()
		case *ast.Ident:
			if _, ok := pass.TypesInfo.Uses[n].(*types.Builtin); !ok {
				return true
			}
			id = n
		default:
			return true
		}
		if !slices.Contains(r.pkgs, pkg) {
			return true
		}
		if r.deny != nil {
			if !slices.Contains(r.deny, id.Name) {
				return true
			}
		} else if _, isFunc := pass.TypesInfo.Uses[id].(*types.Func); !isFunc || slices.Contains(r.allow, id.Name) {
			// Type references (*rand.Rand parameters) are the fix, not the bug.
			return true
		}
		if r.skipTests && pass.IsTestFile(n.Pos()) {
			return true
		}
		pass.Reportf(n.Pos(), r.format, id.Name, pass.Pkg.Path())
		return true
	})
}
