package copss

import (
	"testing"

	"github.com/icn-gaming/gcopss/internal/cd"
	"github.com/icn-gaming/gcopss/internal/ndn"
)

// buildBudgetST populates an ST with a realistic small fan-out: a handful of
// faces subscribed across a two-level CD hierarchy.
func buildBudgetST() (*ST, cd.CD) {
	st := NewST()
	pub := cd.MustParse("/1/2")
	st.Add(1, cd.MustParse("/1"))
	st.Add(2, cd.MustParse("/1/2"))
	st.Add(3, cd.MustParse("/1/3"))
	st.Add(4, cd.Root())
	st.Add(5, cd.MustParse("/2"))
	return st, pub
}

// TestFacesForHashedAllocFree locks the steady-state forwarding budget at
// zero, since an ST lookup is on the per-hop path of every Multicast. A warm
// index lookup allocates nothing whether one prefix of the CD hits (/3/1:
// only the root subscriber) or three do (/1/2: the root, /1 and /1/2), and
// neither does re-adding an existing entry, the unsubscribe aggregation
// queries (into a warm buffer) or the Bloom model's lookup with first-hop
// hashes.
func TestFacesForHashedAllocFree(t *testing.T) {
	st, pub := buildBudgetST()
	one, known := cd.MustParse("/3/1"), cd.MustParse("/1/3")
	var under []cd.CD
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"FacesFor, one prefix hit", func() { st.FacesFor(one) }},
		{"FacesFor, three prefix hits", func() { st.FacesFor(pub) }},
		{"FacesForFlat", func() { st.FacesForFlat(pub, nil) }},
		{"Add of a known entry", func() { st.Add(3, known) }},
		{"AnyIntersecting, hit on the fourth face", func() { st.AnyIntersecting(one) }},
		{"AppendUnder", func() { under = st.AppendUnder(under[:0], cd.MustParse("/1")) }},
	} {
		tc.fn() // warm the scratch buffers
		if allocs := testing.AllocsPerRun(100, tc.fn); allocs != 0 {
			t.Errorf("%s: allocs/op = %v, want 0", tc.name, allocs)
		}
	}
	if got := st.FacesFor(one); len(got) != 1 || got[0] != 4 {
		t.Errorf("FacesFor(%v) = %v, want [4]", one, got)
	}
	if got := st.FacesFor(pub); len(got) != 3 {
		t.Errorf("FacesFor(%v) = %v, want three faces", pub, got)
	}

	blm := &BloomST{}
	blm.Add(1, cd.MustParse("/1"))
	blm.Add(4, cd.Root())
	pairs := PrefixHashes(pub)
	blm.FacesForHashed(pub, pairs)
	if allocs := testing.AllocsPerRun(100, func() { blm.FacesForHashed(pub, pairs) }); allocs != 0 {
		t.Errorf("BloomST.FacesForHashed: allocs/op = %v, want 0", allocs)
	}
}

// TestFacesForFlatEquivalence pins the deprecated FacesForFlat to FacesFor,
// whatever hash vector it is handed.
func TestFacesForFlatEquivalence(t *testing.T) {
	st, pub := buildBudgetST()
	want := append([]ndn.FaceID(nil), st.FacesFor(pub)...)
	for _, flat := range [][]uint64{nil, FlattenHashes(PrefixHashes(pub)), {1, 2, 3}} {
		got := st.FacesForFlat(pub, flat)
		if len(got) != len(want) {
			t.Fatalf("FacesForFlat(%v) = %v, want %v", flat, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("FacesForFlat(%v) = %v, want %v", flat, got, want)
			}
		}
	}
}
