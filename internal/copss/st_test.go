package copss

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"github.com/icn-gaming/gcopss/internal/cd"
	"github.com/icn-gaming/gcopss/internal/ndn"
)

func TestSTForwardingPredicate(t *testing.T) {
	st, blm := NewST(), &BloomST{}
	add := func(face ndn.FaceID, cds ...string) {
		for _, c := range cds {
			st.Add(face, cd.MustParse(c))
			blm.Add(face, cd.MustParse(c))
		}
	}
	// Face 1: soldier at /1/2. Face 2: plane over region 1. Face 3: satellite.
	add(1, "/", "/1/", "/1/2")
	add(2, "/", "/1")
	st.Add(3, cd.Root())
	blm.Add(3, cd.Root())

	tests := []struct {
		pub  string
		want []ndn.FaceID
	}{
		{"/1/2", []ndn.FaceID{1, 2, 3}}, // zone update: soldier, plane, satellite
		{"/1/3", []ndn.FaceID{2, 3}},    // sibling zone: plane + satellite only
		{"/1/", []ndn.FaceID{1, 2, 3}},  // plane airspace visible to all three
		{"/", []ndn.FaceID{1, 2, 3}},    // satellite visible to all
		{"/2/4", []ndn.FaceID{3}},       // other region: satellite only
	}
	for _, tt := range tests {
		if got := st.FacesFor(cd.MustParse(tt.pub)); !reflect.DeepEqual(got, tt.want) {
			t.Errorf("ST.FacesFor(%q) = %v, want %v", tt.pub, got, tt.want)
		}
		// The filters are far from full here, so the model is exact too.
		if got := blm.FacesFor(cd.MustParse(tt.pub)); !reflect.DeepEqual(got, tt.want) {
			t.Errorf("BloomST.FacesFor(%q) = %v, want %v", tt.pub, got, tt.want)
		}
	}
}

func TestSTAddRemove(t *testing.T) {
	st := NewST()
	c := cd.MustParse("/1/2")
	if !st.Add(1, c) || st.Add(1, c) {
		t.Error("Add should report novelty")
	}
	if !st.Subscribed(1, c) || st.Subscribed(2, c) {
		t.Error("Subscribed misreports")
	}
	if !st.Remove(1, c) || st.Remove(1, c) {
		t.Error("Remove should report presence")
	}
	if got := st.FacesFor(c); got != nil {
		t.Errorf("FacesFor after removal = %v", got)
	}
	if st.Len() != 0 || len(st.Faces()) != 0 || len(st.index) != 0 {
		t.Error("empty face or index list not garbage collected")
	}
}

func TestSTRemoveFace(t *testing.T) {
	st := NewST()
	st.Add(1, cd.MustParse("/1"))
	st.Add(1, cd.MustParse("/2"))
	st.Add(2, cd.MustParse("/1"))
	if !st.RemoveFace(1) || st.RemoveFace(1) {
		t.Error("RemoveFace misreports")
	}
	if got := st.FacesFor(cd.MustParse("/1/1")); !reflect.DeepEqual(got, []ndn.FaceID{2}) {
		t.Errorf("FacesFor = %v", got)
	}
	if st.AnyIntersecting(cd.MustParse("/2")) {
		t.Error("RemoveFace left /2 in the table")
	}
}

// TestSTAggregationQueries pins AnyIntersecting, the question a router asks
// before withdrawing a CD upstream: a subscription to a prefix of the CD,
// the CD itself or a CD under it keeps it; a sibling or an airspace leaf
// beside it does not.
func TestSTAggregationQueries(t *testing.T) {
	st := NewST()
	st.Add(1, cd.MustParse("/1/2"))
	st.Add(2, cd.MustParse("/3/"))
	for _, tc := range []struct {
		d    string
		want bool
	}{
		{"", true},      // the root covers every subscription
		{"/", false},    // the root's airspace leaf covers only itself
		{"/1", true},    // /1/2 lies under /1
		{"/1/2", true},  // exact
		{"/1/2/", true}, // /1/2 is a prefix of its airspace leaf
		{"/1/3", false}, // sibling
		{"/1/", false},  // /1's airspace leaf is beside /1/2, not above it
		{"/3", true},    // /3/ is under /3
		{"/3/1", false}, // /3/ covers only itself
		{"/2", false},
	} {
		if got := st.AnyIntersecting(cd.MustParse(tc.d)); got != tc.want {
			t.Errorf("AnyIntersecting(%s) = %v, want %v", tc.d, got, tc.want)
		}
	}
	st.Add(3, cd.MustParse("/1/2"))
	st.Add(3, cd.MustParse("/1/2/7"))
	for _, tc := range []struct{ d, want string }{
		{"", "[/1/2 /3/ /1/2 /1/2/7]"}, // face order, once per face
		{"/1", "[/1/2 /1/2 /1/2/7]"},
		{"/1/2", "[/1/2/7]"}, // strictly under: /1/2 itself is left out
		{"/1/2/7", "[]"},
		{"/3", "[/3/]"},
		{"/3/", "[]"},
	} {
		if got := fmt.Sprint(st.AppendUnder(nil, cd.MustParse(tc.d))); got != tc.want {
			t.Errorf("AppendUnder(%s) = %s, want %s", tc.d, got, tc.want)
		}
	}
	st.Remove(3, cd.MustParse("/1/2"))
	st.Remove(3, cd.MustParse("/1/2/7"))
	st.Remove(1, cd.MustParse("/1/2"))
	if st.AnyIntersecting(cd.MustParse("/1")) {
		t.Error("AnyIntersecting(/1) true after the only subscription under it left")
	}
}

func TestSTBloomNeverFalseNegative(t *testing.T) {
	// Property: every face the exact index selects, the Bloom model selects
	// too (Bloom filters may over-deliver, never under-deliver).
	f := func(subsRaw [20]uint16, pubRaw uint16) bool {
		mk := func(v uint16) cd.CD {
			a := int(v) % 5
			b := int(v>>4) % 6
			switch {
			case b == 5:
				return cd.MustNew(string(rune('0'+a)), "")
			case b == 4:
				return cd.MustNew(string(rune('0' + a)))
			default:
				return cd.MustNew(string(rune('0'+a)), string(rune('0'+b)))
			}
		}
		exact, blm := NewST(), &BloomST{}
		for i, raw := range subsRaw {
			face := ndn.FaceID(i % 4)
			c := mk(raw)
			exact.Add(face, c)
			blm.Add(face, c)
		}
		pub := mk(pubRaw)
		got := blm.FacesFor(pub)
		for _, f := range exact.FacesFor(pub) {
			if !slices.Contains(got, f) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 1500, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestSTStringAndCDsOf(t *testing.T) {
	st := NewST()
	st.Add(2, cd.MustParse("/b"))
	st.Add(2, cd.MustParse("/a"))
	st.Add(3, cd.MustParse("/a"))
	got := st.CDsOf(2)
	if len(got) != 2 || got[0] != cd.MustParse("/a") {
		t.Errorf("CDsOf = %v", got)
	}
	got[0] = cd.MustParse("/z") // a copy: the table is unchanged
	if !st.Subscribed(2, cd.MustParse("/a")) || st.CDsOf(2)[0] != cd.MustParse("/a") {
		t.Error("CDsOf returned table storage")
	}
	if st.CDsOf(9) != nil {
		t.Error("CDsOf unknown face should be nil")
	}
	if got := st.AllCDs(); !reflect.DeepEqual(got, []cd.CD{cd.MustParse("/a"), cd.MustParse("/b")}) {
		t.Errorf("AllCDs = %v", got)
	}
	if s := st.String(); s == "" {
		t.Error("String should render entries")
	}
}

// TestSTFacesForMatchesModelUnderChurn runs the FuzzSTIndex model check on
// a long pseudo-random operation stream, so plain `go test` covers
// thousands of interleaved Add / Remove / RemoveFace steps.
func TestSTFacesForMatchesModelUnderChurn(t *testing.T) {
	ops := make([]byte, 8000)
	rand.New(rand.NewSource(3)).Read(ops)
	checkSTModel(t, ops)
}

// FuzzSTIndex drives random Add, Remove and RemoveFace calls and checks
// every query against a brute-force model: a map of exact per-face sets,
// scanned face by face for each lookup, the way the table worked before it
// had an index. Results must be equal and sorted at every step, and a held
// FacesFor result must survive the next step's mutation unchanged.
func FuzzSTIndex(f *testing.F) {
	f.Add([]byte{0, 0, 4, 0, 7, 0})
	f.Add([]byte{0, 0x13, 1, 0x13, 0x05, 0x27, 3, 0x42, 2, 0x13, 7, 0x27})
	f.Add([]byte{0, 6, 0x04, 6, 0x08, 6, 0x0c, 9, 0x11, 1, 0x05, 2, 0x0c, 0x31})
	f.Fuzz(checkSTModel)
}

// stModelCDs is the CD population of the model check: the root, regions,
// zones and airspace leaves ("/" is the root's), so a publication can hit
// up to four prefixes.
var stModelCDs = []cd.CD{
	cd.Root(), cd.MustParse("/"), cd.MustParse("/1"), cd.MustParse("/2"), cd.MustParse("/1/1"), cd.MustParse("/1/2"),
	cd.MustParse("/2/1"), cd.MustParse("/1/"), cd.MustParse("/2/"), cd.MustParse("/1/1/"), cd.MustParse("/1/2/"),
}

// checkSTModel reads ops two bytes per step: the first picks the operation
// and the face, the second the operand CD and the CD the step publishes.
func checkSTModel(t *testing.T, ops []byte) {
	st := NewST()
	model := map[ndn.FaceID]*cd.Set{}
	var held, heldCopy []ndn.FaceID
	for step := 0; step+1 < len(ops); step += 2 {
		a, b := ops[step], ops[step+1]
		face := ndn.FaceID(int(a>>3) % 6 * 7) // sparse IDs, unordered arrivals
		c := stModelCDs[int(b)%len(stModelCDs)]
		pub := stModelCDs[int(b/16)%len(stModelCDs)]
		switch a % 8 {
		case 0, 1, 2, 3:
			if model[face] == nil {
				model[face] = cd.NewSet()
			}
			if got, want := st.Add(face, c), model[face].Add(c); got != want {
				t.Fatalf("step %d: Add(%d, %v) = %v, model %v", step, face, c, got, want)
			}
		case 4, 5, 6:
			want := model[face] != nil && model[face].Remove(c)
			if model[face].Len() == 0 {
				delete(model, face)
			}
			if got := st.Remove(face, c); got != want {
				t.Fatalf("step %d: Remove(%d, %v) = %v, model %v", step, face, c, got, want)
			}
		default:
			_, want := model[face]
			delete(model, face)
			if got := st.RemoveFace(face); got != want {
				t.Fatalf("step %d: RemoveFace(%d) = %v, model %v", step, face, got, want)
			}
		}
		if !slices.Equal(held, heldCopy) {
			t.Fatalf("step %d: a held FacesFor result changed from %v to %v", step, heldCopy, held)
		}

		var faces, want []ndn.FaceID
		all, entries, intersecting := cd.NewSet(), 0, false
		for id, subs := range model {
			faces = append(faces, id)
			entries += subs.Len()
			if subs.ContainsPrefixOf(pub) {
				want = append(want, id)
			}
			for _, m := range subs.Members() {
				all.Add(m)
				intersecting = intersecting || m.Intersects(c)
			}
		}
		sort.Slice(faces, func(i, j int) bool { return faces[i] < faces[j] })
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })

		if got := st.FacesForFlat(pub, nil); !slices.Equal(got, want) {
			t.Fatalf("step %d: FacesForFlat(%v) = %v, model %v", step, pub, got, want)
		}
		held = st.FacesFor(pub)
		heldCopy = slices.Clone(held)
		if !slices.Equal(held, want) || (held == nil) != (len(want) == 0) {
			t.Fatalf("step %d: FacesFor(%v) = %v, model %v", step, pub, held, want)
		}
		if got := st.Faces(); !slices.Equal(got, faces) {
			t.Fatalf("step %d: Faces() = %v, model %v", step, got, faces)
		}
		if st.Len() != entries {
			t.Fatalf("step %d: Len() = %d, model %d", step, st.Len(), entries)
		}
		if got, want := st.CDsOf(face), model[face].Members(); !slices.Equal(got, want) || (got == nil) != (want == nil) {
			t.Fatalf("step %d: CDsOf(%d) = %v, model %v", step, face, got, want)
		}
		if got := st.AllCDs(); !slices.Equal(got, all.Members()) {
			t.Fatalf("step %d: AllCDs() = %v, model %v", step, got, all.Members())
		}
		if got, want := st.Subscribed(face, c), model[face].Contains(c); got != want {
			t.Fatalf("step %d: Subscribed(%d, %v) = %v, model %v", step, face, c, got, want)
		}
		if got := st.AnyIntersecting(c); got != intersecting {
			t.Fatalf("step %d: AnyIntersecting(%v) = %v, model %v", step, c, got, intersecting)
		}
	}
}
