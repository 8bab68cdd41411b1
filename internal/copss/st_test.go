package copss

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"github.com/icn-gaming/gcopss/internal/cd"
	"github.com/icn-gaming/gcopss/internal/ndn"
)

func TestSTForwardingPredicate(t *testing.T) {
	for _, mode := range []MatchMode{MatchExact, MatchBloom, MatchBloomVerified} {
		st := NewST(mode)
		// Face 1: soldier at /1/2. Face 2: plane over region 1. Face 3: satellite.
		for _, c := range []string{"/", "/1/", "/1/2"} {
			st.Add(1, cd.MustParse(c))
		}
		for _, c := range []string{"/", "/1"} {
			st.Add(2, cd.MustParse(c))
		}
		st.Add(3, cd.Root())

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
			got := st.FacesFor(cd.MustParse(tt.pub))
			if !reflect.DeepEqual(got, tt.want) {
				t.Errorf("mode %v: FacesFor(%q) = %v, want %v", mode, tt.pub, got, tt.want)
			}
		}
	}
}

func TestSTAddRemove(t *testing.T) {
	st := NewST(MatchBloomVerified)
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
	// After removal the Bloom filter is rebuilt lazily; no stale delivery.
	if got := st.FacesFor(c); got != nil {
		t.Errorf("FacesFor after removal = %v", got)
	}
	if st.Len() != 0 || len(st.Faces()) != 0 {
		t.Error("empty face not garbage collected")
	}
}

func TestSTRemoveFace(t *testing.T) {
	st := NewST(MatchExact)
	st.Add(1, cd.MustParse("/1"))
	st.Add(1, cd.MustParse("/2"))
	st.Add(2, cd.MustParse("/1"))
	if !st.RemoveFace(1) || st.RemoveFace(1) {
		t.Error("RemoveFace misreports")
	}
	if got := st.FacesFor(cd.MustParse("/1/1")); !reflect.DeepEqual(got, []ndn.FaceID{2}) {
		t.Errorf("FacesFor = %v", got)
	}
}

func TestSTAggregationQueries(t *testing.T) {
	st := NewST(MatchExact)
	st.Add(1, cd.MustParse("/1"))
	st.Add(2, cd.MustParse("/1"))
	if !st.SubscribedAnywhere(cd.MustParse("/1")) {
		t.Error("SubscribedAnywhere false negative")
	}
	if st.SubscribedAnywhere(cd.MustParse("/2")) {
		t.Error("SubscribedAnywhere false positive")
	}
	if !st.SubscribedElsewhere(cd.MustParse("/1"), 1) {
		t.Error("SubscribedElsewhere should see face 2")
	}
	st.Remove(2, cd.MustParse("/1"))
	if st.SubscribedElsewhere(cd.MustParse("/1"), 1) {
		t.Error("SubscribedElsewhere should be false with only face 1 left")
	}
}

func TestSTBloomNeverFalseNegative(t *testing.T) {
	// Property: in MatchBloom mode, every face that MatchExact would select
	// is also selected (Bloom filters may over-deliver, never under-deliver).
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
		exact := NewST(MatchExact)
		blm := NewST(MatchBloom)
		for i, raw := range subsRaw {
			face := ndn.FaceID(i % 4)
			c := mk(raw)
			exact.Add(face, c)
			blm.Add(face, c)
		}
		pub := mk(pubRaw)
		want := exact.FacesFor(pub)
		got := blm.FacesFor(pub)
		gotSet := map[ndn.FaceID]bool{}
		for _, f := range got {
			gotSet[f] = true
		}
		for _, f := range want {
			if !gotSet[f] {
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

func TestSTBloomVerifiedEqualsExact(t *testing.T) {
	f := func(subsRaw [16]uint16, pubRaw uint16) bool {
		mk := func(v uint16) cd.CD {
			comps := []string{string(rune('a' + int(v)%3))}
			if v%7 != 0 {
				comps = append(comps, string(rune('a'+int(v>>3)%3)))
			}
			return cd.MustNew(comps...)
		}
		exact := NewST(MatchExact)
		bv := NewST(MatchBloomVerified)
		for i, raw := range subsRaw {
			face := ndn.FaceID(i % 5)
			exact.Add(face, mk(raw))
			bv.Add(face, mk(raw))
		}
		pub := mk(pubRaw)
		return reflect.DeepEqual(exact.FacesFor(pub), bv.FacesFor(pub))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1500}); err != nil {
		t.Error(err)
	}
}

func TestSTZeroModeDefaults(t *testing.T) {
	st := NewST(0)
	st.Add(1, cd.MustParse("/1"))
	if got := st.FacesFor(cd.MustParse("/1/2")); !reflect.DeepEqual(got, []ndn.FaceID{1}) {
		t.Errorf("FacesFor = %v", got)
	}
	probes, _ := st.BloomStats()
	if probes == 0 {
		t.Error("default mode should use the Bloom fast path")
	}
}

func TestSTStringAndCDsOf(t *testing.T) {
	st := NewST(MatchExact)
	st.Add(2, cd.MustParse("/b"))
	st.Add(2, cd.MustParse("/a"))
	if got := st.CDsOf(2); len(got) != 2 || got[0] != cd.MustParse("/a") {
		t.Errorf("CDsOf = %v", got)
	}
	if st.CDsOf(9) != nil {
		t.Error("CDsOf unknown face should be nil")
	}
	if got := st.AllCDs(); len(got) != 2 {
		t.Errorf("AllCDs = %v", got)
	}
	if s := st.String(); s == "" {
		t.Error("String should render entries")
	}
}

// TestSTFacesForMatchesModelUnderChurn drives interleaved Add / Remove /
// RemoveFace and checks every forwarding query against a model written the
// way the table used to answer: range a map of faces, keep those holding a
// prefix of the CD, sort. The exact modes must equal it; the Bloom mode may
// only add faces. Faces(), Len() and the aggregation queries ride along.
func TestSTFacesForMatchesModelUnderChurn(t *testing.T) {
	cds := []cd.CD{cd.Root()}
	for _, a := range []string{"1", "2", "3"} {
		cds = append(cds, cd.MustNew(a))
		for _, b := range []string{"1", "2", "3"} {
			cds = append(cds, cd.MustNew(a, b))
		}
	}
	for _, mode := range []MatchMode{MatchExact, MatchBloom, MatchBloomVerified} {
		r := rand.New(rand.NewSource(int64(mode)))
		st := NewST(mode)
		model := map[ndn.FaceID]map[string]cd.CD{}
		for step := 0; step < 4000; step++ {
			face := ndn.FaceID(r.Intn(12) * 7) // sparse, unordered arrivals
			c := cds[r.Intn(len(cds))]
			switch op := r.Intn(10); {
			case op < 5:
				_, had := model[face][c.Key()]
				if model[face] == nil {
					model[face] = map[string]cd.CD{}
				}
				model[face][c.Key()] = c
				if got := st.Add(face, c); got == had {
					t.Fatalf("mode %d step %d: Add(%d, %v) = %v with had=%v", mode, step, face, c, got, had)
				}
			case op < 9:
				_, had := model[face][c.Key()]
				delete(model[face], c.Key())
				if len(model[face]) == 0 {
					delete(model, face)
				}
				if got := st.Remove(face, c); got != had {
					t.Fatalf("mode %d step %d: Remove(%d, %v) = %v, want %v", mode, step, face, c, got, had)
				}
			default:
				_, had := model[face]
				delete(model, face)
				if got := st.RemoveFace(face); got != had {
					t.Fatalf("mode %d step %d: RemoveFace(%d) = %v, want %v", mode, step, face, got, had)
				}
			}

			pub := cds[r.Intn(len(cds))]
			var want, faces []ndn.FaceID
			entries, elsewhere := 0, false
			for id, subs := range model {
				faces = append(faces, id)
				entries += len(subs)
				if _, ok := subs[pub.Key()]; ok && id != face {
					elsewhere = true
				}
				for _, p := range pub.Prefixes() {
					if _, ok := subs[p.Key()]; ok {
						want = append(want, id)
						break
					}
				}
			}
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			sort.Slice(faces, func(i, j int) bool { return faces[i] < faces[j] })

			pairs := PrefixHashes(pub)
			for name, got := range map[string][]ndn.FaceID{
				"FacesFor":       append([]ndn.FaceID(nil), st.FacesFor(pub)...),
				"FacesForHashed": append([]ndn.FaceID(nil), st.FacesForHashed(pub, pairs)...),
				"FacesForFlat":   append([]ndn.FaceID(nil), st.FacesForFlat(pub, FlattenHashes(pairs))...),
			} {
				if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
					t.Fatalf("mode %d step %d: %s(%v) = %v is not sorted", mode, step, name, pub, got)
				}
				if mode == MatchBloom {
					in := map[ndn.FaceID]bool{}
					for _, f := range got {
						in[f] = true
					}
					for _, f := range want {
						if !in[f] {
							t.Fatalf("mode %d step %d: %s(%v) = %v misses face %d", mode, step, name, pub, got, f)
						}
					}
				} else if !reflect.DeepEqual(got, want) {
					t.Fatalf("mode %d step %d: %s(%v) = %v, model %v", mode, step, name, pub, got, want)
				}
			}
			if got := st.Faces(); !reflect.DeepEqual(got, append([]ndn.FaceID{}, faces...)) {
				t.Fatalf("mode %d step %d: Faces() = %v, model %v", mode, step, got, faces)
			}
			if st.Len() != entries {
				t.Fatalf("mode %d step %d: Len() = %d, model %d", mode, step, st.Len(), entries)
			}
			if got := st.SubscribedElsewhere(pub, face); got != elsewhere {
				t.Fatalf("mode %d step %d: SubscribedElsewhere(%v, %d) = %v, model %v", mode, step, pub, face, got, elsewhere)
			}
		}
	}
}
