package analysis

import (
	"go/ast"
	"strings"
	"unicode"
)

// A Directive is one parsed //gcopss:<verb> annotation comment. The
// vocabulary (DESIGN.md §13):
//
//	//gcopss:guardedby <field>  — struct field only accessed with <field> held (guardedby)
//	//gcopss:locked [<field>]   — function runs with the lock already held (guardedby escape)
type Directive struct {
	Verb string // "guardedby", "locked", ...
	Arg  string // remainder after the verb, space-trimmed ("" if none)
}

// ParseDirective parses a //gcopss:<verb> [arg...] annotation comment.
// Both "//gcopss:locked" (go:directive style, no space) and
// "// gcopss:locked" are accepted. Returns ok=false for comments that are
// not gcopss annotations, including a bare "//gcopss:" with no verb.
func ParseDirective(text string) (Directive, bool) {
	if !strings.HasPrefix(text, "//") {
		return Directive{}, false
	}
	text = strings.TrimSpace(text[2:])
	if !strings.HasPrefix(text, "gcopss:") {
		return Directive{}, false
	}
	rest := text[len("gcopss:"):]
	verb := rest
	arg := ""
	// Split the verb from the arg on any whitespace, not just ' '/'\t', so a
	// stray "\r" or unicode space cannot smuggle itself into the verb.
	if i := strings.IndexFunc(rest, unicode.IsSpace); i >= 0 {
		verb, arg = rest[:i], strings.TrimSpace(rest[i:])
	}
	if verb == "" {
		return Directive{}, false
	}
	return Directive{Verb: verb, Arg: arg}, true
}

// GroupDirective returns the first directive with the given verb in a comment
// group (a declaration doc comment or a field's trailing comment).
func GroupDirective(cg *ast.CommentGroup, verb string) (Directive, bool) {
	if cg == nil {
		return Directive{}, false
	}
	for _, c := range cg.List {
		if d, ok := ParseDirective(c.Text); ok && d.Verb == verb {
			return d, true
		}
	}
	return Directive{}, false
}

// FieldDirective returns the directive with the given verb attached to a
// struct field, checking the doc comment above the field and then the
// trailing comment on the field's own line.
func FieldDirective(f *ast.Field, verb string) (Directive, bool) {
	if d, ok := GroupDirective(f.Doc, verb); ok {
		return d, true
	}
	return GroupDirective(f.Comment, verb)
}
