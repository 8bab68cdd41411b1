package cd

import (
	"strings"
	"testing"
)

// referenceParse is the definition Parse had before it validated in place:
// split into components and let New judge them.
func referenceParse(s string) (CD, error) {
	if s == "" {
		return CD{}, nil
	}
	if !strings.HasPrefix(s, "/") {
		return CD{}, ErrInvalid
	}
	return New(strings.Split(s[1:], "/")...)
}

// FuzzParse checks the in-place validator against the reference: the same
// strings are accepted, and an accepted one yields the same Key. The seed
// corpus doubles as the table test under plain `go test`.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"", "/", "//", "///", "/a", "/a/", "/a//", "/a/b", "/a//b", "//a", "a", "a/", "a/b",
		"/1/2/3/", "/ /", "/\x00", "/a/b/c/d/e/f/g/h", "/é/ü",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, wantErr := referenceParse(s)
		got, err := Parse(s)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("Parse(%q) error = %v, reference error = %v", s, err, wantErr)
		}
		if err == nil && got.Key() != want.Key() {
			t.Fatalf("Parse(%q).Key() = %q, reference %q", s, got.Key(), want.Key())
		}
	})
}

// TestParseAllocFree pins the decode budget: a valid key is validated in
// place and becomes the CD without allocating.
func TestParseAllocFree(t *testing.T) {
	for _, s := range []string{"", "/", "/1/2", "/1/2/"} {
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := Parse(s); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("Parse(%q): %v allocs/op, want 0", s, allocs)
		}
	}
}
