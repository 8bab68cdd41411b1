package cd

import (
	"fmt"
	"strings"
)

// Set is a mutable set of CDs. The zero value is an empty set ready to use
// for reads; use Add for writes (the map is allocated lazily).
type Set struct {
	m map[string]struct{}
}

// NewSet builds a Set containing the given CDs.
func NewSet(cds ...CD) *Set {
	s := &Set{}
	for _, c := range cds {
		s.Add(c)
	}
	return s
}

// Add inserts c and reports whether it was newly added.
func (s *Set) Add(c CD) bool {
	if s.m == nil {
		s.m = make(map[string]struct{})
	}
	if _, ok := s.m[c.s]; ok {
		return false
	}
	s.m[c.s] = struct{}{}
	return true
}

// Remove deletes c and reports whether it was present.
func (s *Set) Remove(c CD) bool {
	if s.m == nil {
		return false
	}
	if _, ok := s.m[c.s]; !ok {
		return false
	}
	delete(s.m, c.s)
	return true
}

// Contains reports exact membership of c.
func (s *Set) Contains(c CD) bool {
	if s == nil || s.m == nil {
		return false
	}
	_, ok := s.m[c.s]
	return ok
}

// ContainsPrefixOf reports whether any member of the set is a prefix of c
// (including c itself). This is the COPSS forwarding predicate: a multicast
// packet for CD c is forwarded over a face whose subscription set contains a
// prefix of c.
func (s *Set) ContainsPrefixOf(c CD) bool {
	if s == nil || s.m == nil {
		return false
	}
	// Probe each prefix as a substring of the canonical form instead of
	// materializing c.Prefixes(): string-keyed map lookups on a subslice do
	// not allocate, and this predicate sits on the per-face multicast match
	// path.
	if _, ok := s.m[""]; ok { // the root is a prefix of every CD
		return true
	}
	for i := 1; i < len(c.s); i++ {
		if c.s[i] == '/' {
			if _, ok := s.m[c.s[:i]]; ok {
				return true
			}
		}
	}
	if c.s != "" {
		if _, ok := s.m[c.s]; ok {
			return true
		}
	}
	return false
}

// Len returns the number of members.
func (s *Set) Len() int {
	if s == nil {
		return 0
	}
	return len(s.m)
}

// Members returns the members in sorted order.
func (s *Set) Members() []CD {
	if s == nil {
		return nil
	}
	out := make([]CD, 0, len(s.m))
	for k := range s.m {
		out = append(out, CD{s: k})
	}
	Sort(out)
	return out
}

// Clone returns an independent copy of the set.
func (s *Set) Clone() *Set {
	out := NewSet()
	if s == nil {
		return out
	}
	for k := range s.m {
		out.Add(CD{s: k})
	}
	return out
}

// String renders the sorted members, for logs and tests.
func (s *Set) String() string {
	ms := s.Members()
	parts := make([]string, len(ms))
	for i, m := range ms {
		parts[i] = m.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// PrefixFree checks that no member of cds is a proper or equal prefix of
// another member at a different index. This is the invariant the paper
// requires of the CD prefixes served by the RP population ("prefix-free
// virtual RPs"). It returns nil when the invariant holds and a descriptive
// error naming the offending pair otherwise.
func PrefixFree(cds []CD) error {
	for i, a := range cds {
		for j, b := range cds {
			if i == j {
				continue
			}
			if b.HasPrefix(a) {
				return fmt.Errorf("cd: prefix-free violation: %v is a prefix of %v", a, b)
			}
		}
	}
	return nil
}

// Cover returns the member of served (a prefix-free set) that is a prefix of
// c, and whether one exists. Because served is prefix-free the cover is
// unique; publications to c are routed to the RP owning that prefix.
func Cover(served []CD, c CD) (CD, bool) {
	for _, p := range served {
		if c.HasPrefix(p) {
			return p, true
		}
	}
	return CD{}, false
}
