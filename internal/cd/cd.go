// Package cd implements hierarchical Content Descriptors (CDs), the naming
// primitive of COPSS and G-COPSS.
//
// A CD is a sequence of name components, written with "/" separators:
//
//	/            the root (empty sequence); subscribing to it matches everything
//	/1           region 1
//	/1/2         zone 2 of region 1
//	/1/          the "airspace leaf" of region 1 (trailing empty component)
//
// The trailing empty component encodes the paper's convention that every
// non-leaf area of the game map is also represented by a leaf node (the area
// "above" it, e.g. where planes fly). It may only appear as the final
// component.
package cd

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// ErrInvalid reports a malformed CD string or component sequence.
var ErrInvalid = errors.New("cd: invalid content descriptor")

// CD is an immutable hierarchical content descriptor. The zero value is the
// root descriptor.
//
// Internally a CD stores its canonical string form; components are joined
// with '/'. The root is the empty string. Non-root CDs start with '/'.
type CD struct {
	s string
}

// Root returns the root CD (empty component sequence). A subscription to
// Root matches every publication.
func Root() CD { return CD{} }

// New builds a CD from components. An empty component is permitted only in
// the final position (the airspace-leaf marker).
func New(components ...string) (CD, error) {
	for i, c := range components {
		if strings.ContainsRune(c, '/') {
			return CD{}, fmt.Errorf("%w: component %q contains '/'", ErrInvalid, c)
		}
		if c == "" && i != len(components)-1 {
			return CD{}, fmt.Errorf("%w: empty component not in final position", ErrInvalid)
		}
	}
	if len(components) == 0 {
		return CD{}, nil
	}
	return CD{s: "/" + strings.Join(components, "/")}, nil
}

// MustNew is New but panics on error. Intended for constants and tests.
func MustNew(components ...string) CD {
	c, err := New(components...)
	if err != nil {
		panic(err)
	}
	return c
}

// Parse converts the textual form back to a CD. Accepted forms:
//
//	""      → root
//	"/"     → the top airspace leaf (one empty component)
//	"/a/b"  → ["a" "b"]
//	"/a/"   → ["a" ""]
//
// The textual form is the canonical one, so Parse validates s in place — a
// leading '/' and no empty component before the last, i.e. no "//" — and the
// returned CD holds s itself: the success path allocates nothing (the wire
// decoder calls it once per CD field).
func Parse(s string) (CD, error) {
	if s == "" {
		return CD{}, nil
	}
	if s[0] != '/' {
		return CD{}, fmt.Errorf("%w: %q does not start with '/'", ErrInvalid, s)
	}
	if strings.Contains(s, "//") {
		return CD{}, fmt.Errorf("%w: %q has an empty component not in final position", ErrInvalid, s)
	}
	return CD{s: s}, nil
}

// MustParse is Parse but panics on error.
func MustParse(s string) CD {
	c, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return c
}

// String returns the canonical textual form (see Parse).
func (c CD) String() string {
	if c.s == "" {
		return "(root)"
	}
	return c.s
}

// Key returns the canonical encoding used as a map key and on the wire. It
// differs from String only for the root ("" instead of "(root)").
func (c CD) Key() string { return c.s }

// FromKey reconstructs a CD from its Key form.
func FromKey(k string) (CD, error) { return Parse(k) }

// Components returns a copy of the component sequence.
func (c CD) Components() []string {
	if c.s == "" {
		return nil
	}
	return strings.Split(c.s[1:], "/")
}

// Len returns the number of components.
func (c CD) Len() int {
	if c.s == "" {
		return 0
	}
	return strings.Count(c.s, "/")
}

// IsRoot reports whether c is the root descriptor.
func (c CD) IsRoot() bool { return c.s == "" }

// IsAirspace reports whether c ends with the airspace-leaf marker (an empty
// final component), e.g. "/1/" or "/".
func (c CD) IsAirspace() bool {
	return c.s != "" && strings.HasSuffix(c.s, "/")
}

// Parent returns the CD with the final component removed. The parent of the
// root is the root.
func (c CD) Parent() CD {
	if c.s == "" {
		return CD{}
	}
	i := strings.LastIndex(c.s, "/")
	return CD{s: c.s[:i]}
}

// Child extends c with one more component. Extending an airspace leaf is an
// error, as is adding a non-final empty component later.
func (c CD) Child(component string) (CD, error) {
	if c.IsAirspace() {
		return CD{}, fmt.Errorf("%w: cannot extend airspace leaf %v", ErrInvalid, c)
	}
	if strings.ContainsRune(component, '/') {
		return CD{}, fmt.Errorf("%w: component %q contains '/'", ErrInvalid, component)
	}
	return CD{s: c.s + "/" + component}, nil
}

// MustChild is Child but panics on error.
func (c CD) MustChild(component string) CD {
	ch, err := c.Child(component)
	if err != nil {
		panic(err)
	}
	return ch
}

// Airspace returns the airspace leaf of c (c plus a trailing empty
// component). Calling Airspace on an airspace leaf is an error.
func (c CD) Airspace() (CD, error) { return c.Child("") }

// MustAirspace is Airspace but panics on error.
func (c CD) MustAirspace() CD { return c.MustChild("") }

// HasPrefix reports whether p is a prefix of c (component-wise, including
// p == c). Every CD has the root as a prefix.
func (c CD) HasPrefix(p CD) bool {
	if p.s == "" {
		return true
	}
	if !strings.HasPrefix(c.s, p.s) {
		return false
	}
	// Component boundary: either exact match or the next byte is '/'.
	// An airspace prefix like "/1/" is a string prefix of "/1/2" but NOT a
	// component prefix (components ["1",""] vs ["1","2"]).
	if len(c.s) == len(p.s) {
		return true
	}
	if strings.HasSuffix(p.s, "/") { // airspace leaf: only exact match allowed
		return false
	}
	return c.s[len(p.s)] == '/'
}

// Prefixes returns all prefixes of c from the root up to and including c
// itself, shortest first.
func (c CD) Prefixes() []CD {
	return c.AppendPrefixes(nil)
}

// AppendPrefixes appends the prefixes of c (root first, c last) to dst and
// returns the extended slice. Passing a reused buffer keeps the per-match
// hot paths allocation-free.
func (c CD) AppendPrefixes(dst []CD) []CD {
	out := append(dst, Root())
	for i := 1; i < len(c.s); i++ {
		if c.s[i] == '/' {
			out = append(out, CD{s: c.s[:i]})
		}
	}
	if c.s != "" {
		out = append(out, c)
	}
	return out
}

// Relation classifies how two CDs relate in the hierarchy.
type Relation int

// Relations between two CDs. Enum starts at 1 so the zero value is invalid.
const (
	// RelationEqual means the CDs are identical.
	RelationEqual Relation = iota + 1
	// RelationAncestor means the receiver is a proper prefix of the argument.
	RelationAncestor
	// RelationDescendant means the argument is a proper prefix of the receiver.
	RelationDescendant
	// RelationDisjoint means neither is a prefix of the other.
	RelationDisjoint
)

// String implements fmt.Stringer.
func (r Relation) String() string {
	switch r {
	case RelationEqual:
		return "equal"
	case RelationAncestor:
		return "ancestor"
	case RelationDescendant:
		return "descendant"
	case RelationDisjoint:
		return "disjoint"
	default:
		return fmt.Sprintf("Relation(%d)", int(r))
	}
}

// Relate returns the relation of c to other.
func (c CD) Relate(other CD) Relation {
	switch {
	case c.s == other.s:
		return RelationEqual
	case other.HasPrefix(c):
		return RelationAncestor
	case c.HasPrefix(other):
		return RelationDescendant
	default:
		return RelationDisjoint
	}
}

// Intersects reports whether the subtrees rooted at c and other overlap,
// i.e. one is a (possibly equal) prefix of the other. This is the condition
// under which a subscription to one must be routed toward an RP serving the
// other.
func (c CD) Intersects(other CD) bool {
	return c.HasPrefix(other) || other.HasPrefix(c)
}

// Compare orders CDs lexicographically by component sequence. It returns
// -1, 0 or +1.
func (c CD) Compare(other CD) int {
	return strings.Compare(c.s, other.s)
}

// Sort orders a slice of CDs in place (lexicographic component order).
func Sort(cds []CD) {
	sort.Slice(cds, func(i, j int) bool { return cds[i].Compare(cds[j]) < 0 })
}
