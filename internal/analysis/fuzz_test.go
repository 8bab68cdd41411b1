package analysis

import (
	"strings"
	"testing"
	"unicode"
)

// FuzzParseAllow checks the //lint:allow parser's invariants on arbitrary
// comment text: it never panics, ok implies at least one non-empty name, and
// names never retain commas or surrounding space.
func FuzzParseAllow(f *testing.F) {
	f.Add("//lint:allow maporder")
	f.Add("// lint:allow a,b reason text")
	f.Add("//lint:allow ,,, ")
	f.Add("//lint:allow\tname\treason")
	f.Add("//nolint:errcheck")
	f.Add("//lint:allowx y")
	f.Fuzz(func(t *testing.T, text string) {
		names, reason, ok := ParseAllow(text)
		if ok != (len(names) > 0) {
			t.Fatalf("ok=%v but names=%v", ok, names)
		}
		for _, n := range names {
			if n == "" {
				t.Fatalf("empty name in %v", names)
			}
			if strings.ContainsAny(n, ", \t") {
				t.Fatalf("unsplit name %q", n)
			}
		}
		if reason != strings.TrimSpace(reason) {
			t.Fatalf("untrimmed reason %q", reason)
		}
		if !ok && reason != "" {
			t.Fatalf("reason %q without ok", reason)
		}
	})
}

// FuzzParseAnnotation checks the //gcopss: directive parser's invariants:
// no panics, ok implies a non-empty verb without spaces, and both the
// "//gcopss:x" and "// gcopss:x" spellings agree.
func FuzzParseAnnotation(f *testing.F) {
	f.Add("//gcopss:locked")
	f.Add("// gcopss:guardedby mu")
	f.Add("//gcopss: ")
	f.Add("//gcopss:locked  mu  ")
	f.Add("//gcopss:a\tb c")
	f.Add("// unrelated")
	f.Fuzz(func(t *testing.T, text string) {
		dir, ok := ParseDirective(text)
		if !ok {
			if dir.Verb != "" || dir.Arg != "" {
				t.Fatalf("!ok but directive %+v", dir)
			}
			return
		}
		if dir.Verb == "" {
			t.Fatal("ok with empty verb")
		}
		if strings.IndexFunc(dir.Verb, unicode.IsSpace) >= 0 {
			t.Fatalf("verb %q contains space", dir.Verb)
		}
		if dir.Arg != strings.TrimSpace(dir.Arg) {
			t.Fatalf("untrimmed arg %q", dir.Arg)
		}
		// The two accepted spellings parse identically.
		if strings.HasPrefix(text, "//gcopss:") {
			alt, ok2 := ParseDirective("// " + strings.TrimPrefix(text, "//"))
			if !ok2 || alt != dir {
				t.Fatalf("spaced spelling disagrees: %+v/%v vs %+v", alt, ok2, dir)
			}
		}
	})
}
