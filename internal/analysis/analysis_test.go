package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// unitOf type-checks one import-free source file into a Unit.
func unitOf(t *testing.T, src string) *Unit {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "a.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	pkg, err := (&types.Config{}).Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return &Unit{Fset: fset, Files: []*ast.File{f}, Pkg: pkg, TypesInfo: info}
}

// reportAt builds an analyzer that reports "finding" on every line whose
// source (per the given map) should be flagged. Lines are addressed through
// marker functions: the analyzer reports at each function declaration whose
// name starts with "flag".
func flagAnalyzer(needsReason bool) *Analyzer {
	return &Analyzer{
		Name:        "flagger",
		Doc:         "flags every func named flag*",
		NeedsReason: needsReason,
		Run: func(pass *Pass) (interface{}, error) {
			for _, f := range pass.Files {
				for _, d := range f.Decls {
					fd, ok := d.(*ast.FuncDecl)
					if ok && strings.HasPrefix(fd.Name.Name, "flag") {
						pass.Reportf(fd.Pos(), "finding in %s", fd.Name.Name)
					}
				}
			}
			return nil, nil
		},
	}
}

func TestParseAllow(t *testing.T) {
	cases := []struct {
		text   string
		names  []string
		reason string
		ok     bool
	}{
		{"//lint:allow maporder", []string{"maporder"}, "", true},
		{"// lint:allow maporder sorted upstream", []string{"maporder"}, "sorted upstream", true},
		{"//lint:allow a,b reason text here", []string{"a", "b"}, "reason text here", true},
		{"//lint:allow a, ", []string{"a"}, "", true},
		{"//lint:allow", nil, "", false},
		{"//lint:allow   ", nil, "", false},
		{"// regular comment", nil, "", false},
		{"//nolint:errcheck", nil, "", false},
	}
	for _, c := range cases {
		names, reason, ok := ParseAllow(c.text)
		if ok != c.ok || reason != c.reason || strings.Join(names, "|") != strings.Join(c.names, "|") {
			t.Errorf("ParseAllow(%q) = %v, %q, %v; want %v, %q, %v",
				c.text, names, reason, ok, c.names, c.reason, c.ok)
		}
	}
}

// TestTrailingAllowScope pins the trailing-comment fix: a waiver trailing
// code suppresses only its own line, while a waiver standing alone also
// covers the next line.
func TestTrailingAllowScope(t *testing.T) {
	const src = `package p

func flagTrailing() {} //lint:allow flagger waived here
func flagNext() {}

//lint:allow flagger standalone covers the next line
func flagBelow() {}

func helper() {} //lint:allow flagger trailing on the line above must NOT cover this
func flagAfterTrailing() {}
`
	u := unitOf(t, src)
	diags, err := RunUnit(flagAnalyzer(false), u)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range diags {
		got = append(got, d.Message)
	}
	want := []string{"finding in flagNext", "finding in flagAfterTrailing"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("diagnostics = %v, want %v", got, want)
	}
}

// TestNeedsReason pins the reason enforcement: a bare waiver naming a
// NeedsReason analyzer becomes a finding of its own, and that finding cannot
// be waived by the same bare comment.
func TestNeedsReason(t *testing.T) {
	const src = `package p

func flagReasoned() {} //lint:allow flagger measured and accepted
func flagBare() {} //lint:allow flagger
func flagOther() {} //lint:allow other
`
	u := unitOf(t, src)
	diags, err := RunUnit(flagAnalyzer(true), u)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range diags {
		got = append(got, d.Message)
	}
	want := []string{
		// Position order: the bare waiver trails flagBare on line 4, the
		// unwaived finding lands on flagOther's decl on line 5.
		"//lint:allow flagger without a reason: state why the invariant is waived",
		"finding in flagOther", // its waiver names a different analyzer
	}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("diagnostics = %v, want %v", got, want)
	}
}

func TestUnknownAllows(t *testing.T) {
	const src = `package p

func a() {} //lint:allow flagger known
func b() {} //lint:allow flaggerx typo
func c() {} //lint:allow flagger,gone both
`
	u := unitOf(t, src)
	diags := UnknownAllows(u.Files, func(name string) bool { return name == "flagger" })
	var got []string
	for _, d := range diags {
		pos := u.Fset.Position(d.Pos)
		got = append(got, fmt.Sprintf("%d: %s", pos.Line, d.Message))
	}
	want := []string{
		`4: //lint:allow names unknown checker "flaggerx"`,
		`5: //lint:allow names unknown checker "gone"`,
	}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("diagnostics = %v, want %v", got, want)
	}
}

func TestFactStore(t *testing.T) {
	fs := NewFactStore()
	pass := &Pass{Analyzer: &Analyzer{Name: "a"}, Facts: fs}
	pass.ExportFact("k1", "why-one")
	pass.ExportFact("k2", 42)
	if got, ok := pass.ImportFact("k1"); !ok || got != "why-one" {
		t.Errorf("ImportFact(k1) = %v, %v", got, ok)
	}
	if _, ok := pass.ImportFact("missing"); ok {
		t.Error("ImportFact(missing) reported ok")
	}
	// Facts are namespaced per analyzer.
	other := &Pass{Analyzer: &Analyzer{Name: "b"}, Facts: fs}
	if _, ok := other.ImportFact("k1"); ok {
		t.Error("analyzer b sees analyzer a's fact")
	}
	if got, ok := pass.ImportFact("k2"); !ok || got != 42 {
		t.Errorf("ImportFact(k2) = %v, %v", got, ok)
	}
	// A nil store degrades to no facts, without panicking.
	lone := &Pass{Analyzer: &Analyzer{Name: "a"}}
	lone.ExportFact("k", "v")
	if _, ok := lone.ImportFact("k"); ok {
		t.Error("nil store retained a fact")
	}
}

func TestFieldKey(t *testing.T) {
	if got := FieldKey("internal/obs/trace", "Ring", "next"); got != "internal/obs/trace.Ring.next" {
		t.Errorf("FieldKey = %q", got)
	}
}

func TestParseDirective(t *testing.T) {
	cases := []struct {
		text string
		verb string
		arg  string
		ok   bool
	}{
		{"//gcopss:locked", "locked", "", true},
		{"// gcopss:locked", "locked", "", true},
		{"//gcopss:guardedby mu", "guardedby", "mu", true},
		{"//gcopss:locked  mu ", "locked", "mu", true},
		{"//gcopss:", "", "", false},
		{"// plain comment", "", "", false},
		{"//lint:allow x", "", "", false},
	}
	for _, c := range cases {
		dir, ok := ParseDirective(c.text)
		if ok != c.ok || dir.Verb != c.verb || dir.Arg != c.arg {
			t.Errorf("ParseDirective(%q) = %+v, %v; want {%s %s}, %v",
				c.text, dir, ok, c.verb, c.arg, c.ok)
		}
	}
}
