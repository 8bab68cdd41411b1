// Package analysis is a minimal, dependency-free re-implementation of the
// golang.org/x/tools/go/analysis vocabulary, sized for this repository's
// invariant checkers (cmd/gcopsslint).
//
// The x/tools module is deliberately not vendored: the checkers only need an
// Analyzer/Pass/Diagnostic shape, a package loader, and an analysistest-style
// harness, all of which the standard library's go/{ast,parser,token,types}
// packages provide. Keeping the surface identical to x/tools means the
// checkers can be ported to the real framework by changing one import.
//
// Suppression: a diagnostic is suppressed by an escape-hatch comment of the
// form
//
//	//lint:allow <name>[,<name>...] [reason...]
//
// placed either on the flagged line or on the line directly above it. A
// comment on its own line also covers the line below it; a trailing comment
// covers only the line it sits on. The reason is free text; naming the
// analyzer is mandatory so grep can audit every waived invariant, and
// analyzers with NeedsReason set turn a reason-less waiver into a diagnostic
// of its own.
//
// Interprocedural checks use the FactStore (facts.go): the driver walks
// packages in dependency order and analyzers export per-function summaries
// that importing packages consume.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and //lint:allow comments.
	Name string
	// Doc states the invariant the analyzer guards.
	Doc string
	// NeedsReason requires every //lint:allow waiver naming this analyzer
	// to carry a free-text reason; a bare waiver is itself reported (and
	// that report cannot be suppressed).
	NeedsReason bool
	// Run applies the analyzer to one package.
	Run func(*Pass) (interface{}, error)
}

// A Pass provides one analyzer run with a single type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Facts is the cross-package fact store shared by the whole run, or nil
	// when the driver analyzes packages in isolation (plain RunUnit).
	Facts *FactStore

	// Report delivers one diagnostic. Set by the driver.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding, positioned within the Pass's FileSet.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// A Unit is a loaded, type-checked package ready for analysis. The loader
// (internal/analysis/load) and the analysistest harness both produce Units.
type Unit struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
}

// RunUnit applies a to u in isolation (no fact store) and returns its
// diagnostics with //lint:allow suppressions already filtered out, sorted by
// position.
func RunUnit(a *Analyzer, u *Unit) ([]Diagnostic, error) {
	return RunUnitFacts(a, u, nil)
}

// RunUnitFacts applies a to u with a shared cross-package fact store (nil is
// allowed and degrades to per-package analysis). Facts exported by earlier
// units in the same store are visible through Pass.ImportFact; for the
// contract to hold, callers must process units in dependency order.
func RunUnitFacts(a *Analyzer, u *Unit, facts *FactStore) ([]Diagnostic, error) {
	var diags []Diagnostic
	pass := &Pass{
		Analyzer:  a,
		Fset:      u.Fset,
		Files:     u.Files,
		Pkg:       u.Pkg,
		TypesInfo: u.TypesInfo,
		Facts:     facts,
		Report:    func(d Diagnostic) { diags = append(diags, d) },
	}
	if _, err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %v", a.Name, err)
	}
	allowed := allowedLines(u.Fset, u.Files, a.Name)
	var kept []Diagnostic
	for _, d := range diags {
		pos := u.Fset.Position(d.Pos)
		if allowed[posKey{pos.Filename, pos.Line}] {
			continue
		}
		kept = append(kept, d)
	}
	// A reason-less waiver naming a NeedsReason analyzer is a finding of its
	// own — appended after the suppression filter so it cannot waive itself.
	if a.NeedsReason {
		kept = append(kept, reasonlessAllows(u.Files, a.Name)...)
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i].Pos < kept[j].Pos })
	return kept, nil
}

type posKey struct {
	file string
	line int
}

// allowedLines collects the lines on which diagnostics from the named
// analyzer are suppressed. A //lint:allow comment standing on its own line
// covers that line and the line below it (so it can sit above the flagged
// statement); a comment trailing code covers only its own line — otherwise a
// trailing waiver would silently waive the next line too.
func allowedLines(fset *token.FileSet, files []*ast.File, name string) map[posKey]bool {
	out := map[posKey]bool{}
	starts := map[*ast.File]map[int]int{} // line -> earliest code column, built lazily
	Allows(files, func(f *ast.File, c *ast.Comment, names []string, _ string) {
		if !slices.Contains(names, name) {
			return
		}
		pos := fset.Position(c.Pos())
		out[posKey{pos.Filename, pos.Line}] = true
		if starts[f] == nil {
			starts[f] = codeColumns(fset, f)
		}
		if col, hasCode := starts[f][pos.Line]; hasCode && col < pos.Column {
			return // trailing comment: own line only
		}
		out[posKey{pos.Filename, pos.Line + 1}] = true
	})
	return out
}

// codeColumns maps each line of f to the earliest column at which a
// non-comment token starts, so allowedLines can tell a trailing comment
// (code precedes it on the line) from one standing alone.
func codeColumns(fset *token.FileSet, f *ast.File) map[int]int {
	out := map[int]int{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case nil, *ast.Comment, *ast.CommentGroup:
			return false
		}
		if p := n.Pos(); p.IsValid() {
			pos := fset.Position(p)
			if cur, ok := out[pos.Line]; !ok || pos.Column < cur {
				out[pos.Line] = pos.Column
			}
		}
		return true
	})
	return out
}

// reasonlessAllows reports every //lint:allow comment that names the given
// analyzer but carries no reason text.
func reasonlessAllows(files []*ast.File, name string) []Diagnostic {
	var out []Diagnostic
	Allows(files, func(_ *ast.File, c *ast.Comment, names []string, reason string) {
		if reason == "" && slices.Contains(names, name) {
			out = append(out, Diagnostic{
				Pos:     c.Pos(),
				Message: fmt.Sprintf("//lint:allow %s without a reason: state why the invariant is waived", name),
			})
		}
	})
	return out
}

// UnknownAllows reports every //lint:allow comment in files that names a
// checker known does not accept. Such a waiver waives nothing — a typo, or a
// checker deleted since — and would otherwise sit in the tree unnoticed.
func UnknownAllows(files []*ast.File, known func(name string) bool) []Diagnostic {
	var out []Diagnostic
	Allows(files, func(_ *ast.File, c *ast.Comment, names []string, _ string) {
		for _, n := range names {
			if !known(n) {
				out = append(out, Diagnostic{
					Pos:     c.Pos(),
					Message: fmt.Sprintf("//lint:allow names unknown checker %q", n),
				})
			}
		}
	})
	return out
}

// Allows calls fn for every //lint:allow comment in files, in source order,
// with the comment's parsed checker names and reason.
func Allows(files []*ast.File, fn func(f *ast.File, c *ast.Comment, names []string, reason string)) {
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if names, reason, ok := ParseAllow(c.Text); ok {
					fn(f, c, names, reason)
				}
			}
		}
	}
}

// ParseAllow extracts the analyzer names and the free-text reason of a
// //lint:allow comment.
func ParseAllow(text string) (names []string, reason string, ok bool) {
	text = strings.TrimPrefix(text, "//")
	text = strings.TrimSpace(text)
	rest, found := strings.CutPrefix(text, "lint:allow")
	// The marker must be the whole word: "lint:allowx" is not a waiver.
	if !found || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
		return nil, "", false
	}
	rest = strings.TrimSpace(rest)
	if rest == "" {
		return nil, "", false
	}
	fields := strings.Fields(rest)
	for _, n := range strings.Split(fields[0], ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		return nil, "", false
	}
	reason = strings.TrimSpace(strings.TrimPrefix(rest, fields[0]))
	return names, reason, true
}

// Inspect walks every file of the pass in depth-first order.
func (p *Pass) Inspect(fn func(ast.Node) bool) {
	for _, f := range p.Files {
		ast.Inspect(f, fn)
	}
}

// PathIn reports whether pkgPath lies inside any of the given package-path
// roots, comparing by path segments and ignoring any module prefix — so both
// "github.com/icn-gaming/gcopss/internal/core" and the bare "internal/core"
// (as used by analyzer testdata) match the root "internal/core".
func PathIn(pkgPath string, roots ...string) bool {
	for _, root := range roots {
		if pkgPath == root || strings.HasPrefix(pkgPath, root+"/") {
			return true
		}
		if i := strings.Index(pkgPath, "/"+root); i >= 0 {
			rest := pkgPath[i+1+len(root):]
			if rest == "" || rest[0] == '/' {
				return true
			}
		}
	}
	return false
}

// IsTestFile reports whether the file enclosing pos is an in-package test
// file (name ends in _test.go).
func (p *Pass) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}
