package cd

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseAndString(t *testing.T) {
	tests := []struct {
		name    string
		in      string
		want    []string
		wantErr bool
	}{
		{name: "root", in: "", want: nil},
		{name: "top airspace", in: "/", want: []string{""}},
		{name: "region", in: "/1", want: []string{"1"}},
		{name: "zone", in: "/1/2", want: []string{"1", "2"}},
		{name: "region airspace", in: "/1/", want: []string{"1", ""}},
		{name: "deep", in: "/a/b/c/d", want: []string{"a", "b", "c", "d"}},
		{name: "named topics", in: "/sports/football", want: []string{"sports", "football"}},
		{name: "no leading slash", in: "1/2", wantErr: true},
		{name: "interior empty", in: "/1//2", wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c, err := Parse(tt.in)
			if tt.wantErr {
				if err == nil {
					t.Fatalf("Parse(%q) = %v, want error", tt.in, c)
				}
				return
			}
			if err != nil {
				t.Fatalf("Parse(%q) error: %v", tt.in, err)
			}
			if got := c.Components(); !reflect.DeepEqual(got, tt.want) {
				t.Errorf("Components() = %#v, want %#v", got, tt.want)
			}
			back, err := Parse(c.Key())
			if err != nil {
				t.Fatalf("re-Parse(%q) error: %v", c.Key(), err)
			}
			if back != c {
				t.Errorf("round trip: got %v want %v", back, c)
			}
		})
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New("a", "", "b"); err == nil {
		t.Error("New with interior empty component should fail")
	}
	if _, err := New("a/b"); err == nil {
		t.Error("New with '/' in component should fail")
	}
	if _, err := New(); err != nil {
		t.Errorf("New() root: %v", err)
	}
	if _, err := New("a", ""); err != nil {
		t.Errorf("New airspace leaf: %v", err)
	}
}

func TestHasPrefix(t *testing.T) {
	tests := []struct {
		c, p string
		want bool
	}{
		{"/1/2", "", true},     // root prefixes everything
		{"/1/2", "/1", true},   // region prefixes zone
		{"/1/2", "/1/2", true}, // equality
		{"/1/2", "/1/", false}, // airspace leaf is NOT a prefix of a zone
		{"/1/", "/1", true},    // region prefixes its airspace leaf
		{"/1/", "/", false},    // top airspace does not prefix region airspace
		{"/1/2", "/2", false},  // disjoint
		{"/12/3", "/1", false}, // component boundary, not string boundary
		{"/1", "/1/2", false},  // child is not a prefix of parent
		{"/", "", true},        // root prefixes top airspace
		{"/sports/football", "/sports", true},
	}
	for _, tt := range tests {
		c, p := MustParse(tt.c), MustParse(tt.p)
		if got := c.HasPrefix(p); got != tt.want {
			t.Errorf("%q.HasPrefix(%q) = %v, want %v", tt.c, tt.p, got, tt.want)
		}
	}
}

func TestPrefixes(t *testing.T) {
	got := MustParse("/1/2/3").Prefixes()
	want := []CD{Root(), MustParse("/1"), MustParse("/1/2"), MustParse("/1/2/3")}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Prefixes = %v, want %v", got, want)
	}
	if got := Root().Prefixes(); len(got) != 1 || !got[0].IsRoot() {
		t.Errorf("root Prefixes = %v", got)
	}
	got = MustParse("/1/").Prefixes()
	want = []CD{Root(), MustParse("/1"), MustParse("/1/")}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("airspace Prefixes = %v, want %v", got, want)
	}
}

func TestParentChildAirspace(t *testing.T) {
	z := MustParse("/1/2")
	if got := z.Parent(); got != MustParse("/1") {
		t.Errorf("Parent = %v", got)
	}
	if got := Root().Parent(); !got.IsRoot() {
		t.Errorf("root Parent = %v", got)
	}
	if got := MustParse("/1").MustAirspace(); got != MustParse("/1/") {
		t.Errorf("Airspace = %v", got)
	}
	if _, err := MustParse("/1/").Airspace(); err == nil {
		t.Error("Airspace of airspace leaf should fail")
	}
	if _, err := MustParse("/1/").Child("x"); err == nil {
		t.Error("Child of airspace leaf should fail")
	}
	if !MustParse("/1/").IsAirspace() || MustParse("/1/2").IsAirspace() {
		t.Error("IsAirspace misclassifies")
	}
	if !MustParse("/").IsAirspace() {
		t.Error("top airspace leaf should be airspace")
	}
}

func TestRelate(t *testing.T) {
	tests := []struct {
		a, b string
		want Relation
	}{
		{"/1", "/1", RelationEqual},
		{"/1", "/1/2", RelationAncestor},
		{"/1/2", "/1", RelationDescendant},
		{"/1", "/2", RelationDisjoint},
		{"/1/", "/1/2", RelationDisjoint},
		{"", "/1/2", RelationAncestor},
	}
	for _, tt := range tests {
		a, b := MustParse(tt.a), MustParse(tt.b)
		if got := a.Relate(b); got != tt.want {
			t.Errorf("%q.Relate(%q) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestSetBasics(t *testing.T) {
	s := NewSet()
	if s.Len() != 0 || s.Contains(MustParse("/1")) {
		t.Fatal("empty set misbehaves")
	}
	if !s.Add(MustParse("/1")) || s.Add(MustParse("/1")) {
		t.Error("Add should report novelty")
	}
	s.Add(MustParse("/1/2"))
	if s.Len() != 2 {
		t.Errorf("Len = %d", s.Len())
	}
	if !s.Remove(MustParse("/1")) || s.Remove(MustParse("/1")) {
		t.Error("Remove should report presence")
	}
	var zero Set
	if zero.Contains(MustParse("/1")) || zero.ContainsPrefixOf(MustParse("/1")) {
		t.Error("zero-value set should be empty")
	}
	zero.Add(MustParse("/x"))
	if !zero.Contains(MustParse("/x")) {
		t.Error("zero-value set should accept Add")
	}
}

func TestSetContainsPrefixOf(t *testing.T) {
	// A soldier at /1/2 subscribes to {/, /1/, /1/2} per the paper.
	soldier := NewSet(MustParse("/"), MustParse("/1/"), MustParse("/1/2"))
	tests := []struct {
		pub  string
		want bool
	}{
		{"/1/2", true},      // own zone
		{"/1/", true},       // plane over region 1
		{"/", true},         // satellite
		{"/1/3", false},     // sibling zone invisible
		{"/2/", false},      // plane over another region
		{"/2/1", false},     // zone in another region
		{"/1/2/obj7", true}, // object below own zone
	}
	for _, tt := range tests {
		if got := soldier.ContainsPrefixOf(MustParse(tt.pub)); got != tt.want {
			t.Errorf("soldier sees %q = %v, want %v", tt.pub, got, tt.want)
		}
	}

	// A plane over region 1 subscribes to {/, /1} (aggregated).
	plane := NewSet(MustParse("/"), MustParse("/1"))
	planeTests := []struct {
		pub  string
		want bool
	}{
		{"/1/1", true}, {"/1/4", true}, {"/1/", true}, {"/", true},
		{"/2/1", false}, {"/2/", false},
	}
	for _, tt := range planeTests {
		if got := plane.ContainsPrefixOf(MustParse(tt.pub)); got != tt.want {
			t.Errorf("plane sees %q = %v, want %v", tt.pub, got, tt.want)
		}
	}

	// The satellite subscribes to the root and sees everything.
	sat := NewSet(Root())
	for _, pub := range []string{"/", "/1", "/1/", "/1/2", "/5/5/objx"} {
		if !sat.ContainsPrefixOf(MustParse(pub)) {
			t.Errorf("satellite misses %q", pub)
		}
	}
}

func TestPrefixFree(t *testing.T) {
	ok := []CD{MustParse("/"), MustParse("/1"), MustParse("/2")}
	if err := PrefixFree(ok); err != nil {
		t.Errorf("PrefixFree(%v) = %v", ok, err)
	}
	bad := []CD{MustParse("/1"), MustParse("/1/1")}
	if err := PrefixFree(bad); err == nil {
		t.Error("PrefixFree should reject nested prefixes")
	}
	withRoot := []CD{Root(), MustParse("/1")}
	if err := PrefixFree(withRoot); err == nil {
		t.Error("root covers everything; set with root plus others is not prefix-free")
	}
}

func TestCoverAndIntersecting(t *testing.T) {
	served := []CD{MustParse("/"), MustParse("/1/1"), MustParse("/1/2"), MustParse("/1/"), MustParse("/2")}
	if err := PrefixFree(served); err != nil {
		t.Fatalf("test fixture not prefix-free: %v", err)
	}
	p, ok := Cover(served, MustParse("/1/1/obj3"))
	if !ok || p != MustParse("/1/1") {
		t.Errorf("Cover = %v, %v", p, ok)
	}
	if _, ok := Cover(served, MustParse("/3")); ok {
		t.Error("Cover should miss for unserved CD")
	}
	intersecting := func(sub CD) []CD {
		var out []CD
		for _, p := range served {
			if p.Intersects(sub) {
				out = append(out, p)
			}
		}
		return out
	}
	// Subscribing to /1 must reach RPs serving /1/1, /1/2 and /1/ but not /2.
	got := intersecting(MustParse("/1"))
	want := []CD{MustParse("/1/1"), MustParse("/1/2"), MustParse("/1/")}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("intersecting = %v, want %v", got, want)
	}
	// Subscribing to /2/4 is covered by the RP serving /2.
	got = intersecting(MustParse("/2/4"))
	want = []CD{MustParse("/2")}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("intersecting = %v, want %v", got, want)
	}
}

// randomCD produces structured CDs for property tests: depth ≤ 4, components
// from a small alphabet, possibly an airspace leaf.
func randomCD(r *rand.Rand) CD {
	depth := r.Intn(5)
	comps := make([]string, 0, depth+1)
	for i := 0; i < depth; i++ {
		comps = append(comps, string(rune('a'+r.Intn(4))))
	}
	if depth > 0 && r.Intn(3) == 0 {
		comps = append(comps, "")
	}
	return MustNew(comps...)
}

type quickCD struct{ c CD }

// Generate implements quick.Generator.
func (quickCD) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(quickCD{c: randomCD(r)})
}

func TestQuickParseRoundTrip(t *testing.T) {
	f := func(q quickCD) bool {
		back, err := Parse(q.c.Key())
		return err == nil && back == q.c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickPrefixesConsistent(t *testing.T) {
	// Every element of Prefixes(c) satisfies c.HasPrefix(p), and HasPrefix
	// holds exactly for members of Prefixes.
	f := func(qa, qb quickCD) bool {
		a, b := qa.c, qb.c
		inList := false
		for _, p := range a.Prefixes() {
			if !a.HasPrefix(p) {
				return false
			}
			if p == b {
				inList = true
			}
		}
		return a.HasPrefix(b) == inList
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickRelateSymmetry(t *testing.T) {
	f := func(qa, qb quickCD) bool {
		a, b := qa.c, qb.c
		ra, rb := a.Relate(b), b.Relate(a)
		switch ra {
		case RelationEqual:
			return rb == RelationEqual
		case RelationAncestor:
			return rb == RelationDescendant
		case RelationDescendant:
			return rb == RelationAncestor
		case RelationDisjoint:
			return rb == RelationDisjoint
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickSetPrefixPredicate(t *testing.T) {
	// ContainsPrefixOf(c) ⇔ ∃ member m with c.HasPrefix(m).
	f := func(members [8]quickCD, qc quickCD) bool {
		s := NewSet()
		naive := false
		for _, m := range members {
			s.Add(m.c)
		}
		for _, m := range members {
			if qc.c.HasPrefix(m.c) {
				naive = true
			}
		}
		return s.ContainsPrefixOf(qc.c) == naive
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickCoverUniqueOnPrefixFree(t *testing.T) {
	// For a prefix-free served set, at most one member covers any CD, and
	// Cover finds it.
	f := func(members [6]quickCD, qc quickCD) bool {
		var served []CD
		for _, m := range members {
			candidate := m.c
			conflict := false
			for _, s := range served {
				if candidate.Intersects(s) {
					conflict = true
					break
				}
			}
			if !conflict {
				served = append(served, candidate)
			}
		}
		if err := PrefixFree(served); err != nil {
			return false
		}
		n := 0
		var covering CD
		for _, s := range served {
			if qc.c.HasPrefix(s) {
				n++
				covering = s
			}
		}
		got, ok := Cover(served, qc.c)
		if n == 0 {
			return !ok
		}
		return n == 1 && ok && got == covering
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestSortAndString(t *testing.T) {
	cds := []CD{MustParse("/2"), MustParse("/1/"), MustParse("/1"), Root()}
	Sort(cds)
	var b strings.Builder
	for _, c := range cds {
		b.WriteString(c.Key())
		b.WriteString(";")
	}
	if got := b.String(); got != ";/1;/1/;/2;" {
		t.Errorf("sorted = %q", got)
	}
	s := NewSet(MustParse("/b"), MustParse("/a"))
	if got := s.String(); got != "{/a, /b}" {
		t.Errorf("Set.String = %q", got)
	}
}
