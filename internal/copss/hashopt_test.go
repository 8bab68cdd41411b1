package copss

import (
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"github.com/icn-gaming/gcopss/internal/bloom"
	"github.com/icn-gaming/gcopss/internal/cd"
	"github.com/icn-gaming/gcopss/internal/ndn"
)

func TestPrefixHashesShape(t *testing.T) {
	c := cd.MustParse("/1/2")
	pairs := PrefixHashes(c)
	if len(pairs) != 3 { // root, /1, /1/2
		t.Fatalf("pairs = %d", len(pairs))
	}
	// The pairs must equal direct hashing of the prefix keys.
	for i, p := range c.Prefixes() {
		if pairs[i] != bloom.HashString(p.Key()) {
			t.Errorf("pair %d mismatch", i)
		}
	}
}

func TestFlattenHashes(t *testing.T) {
	pairs := PrefixHashes(cd.MustParse("/a/b/c"))
	flat := FlattenHashes(pairs)
	if len(flat) != len(pairs)*2 {
		t.Fatalf("flat = %d", len(flat))
	}
	for i, p := range pairs {
		if flat[2*i] != p.H1 || flat[2*i+1] != p.H2 {
			t.Errorf("pair %d is not at flat[%d:%d]", i, 2*i, 2*i+2)
		}
	}
}

func TestFacesForHashedEquivalence(t *testing.T) {
	// Property: the Bloom model answers the same with precomputed pairs as
	// when it hashes the prefixes itself.
	f := func(subsRaw [18]uint16, pubRaw uint16) bool {
		mk := func(v uint16) cd.CD {
			comps := []string{string(rune('a' + int(v)%4))}
			if v%5 != 0 {
				comps = append(comps, string(rune('a'+int(v>>3)%4)))
			}
			if v%7 == 0 {
				comps = append(comps, "")
			}
			return cd.MustNew(comps...)
		}
		blm := &BloomST{}
		for i, raw := range subsRaw {
			blm.Add(ndn.FaceID(i%5), mk(raw))
		}
		pub := mk(pubRaw)
		// Lookup results alias a reused scratch buffer, so copy the first
		// result before issuing the second lookup.
		plain := append([]ndn.FaceID(nil), blm.FacesFor(pub)...)
		return slices.Equal(plain, blm.FacesForHashed(pub, PrefixHashes(pub)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 800}); err != nil {
		t.Error(err)
	}
}

func TestFacesForHashedRejectsWrongPairCount(t *testing.T) {
	blm := &BloomST{}
	blm.Add(1, cd.MustParse("/1"))
	pub := cd.MustParse("/1/2")
	// Wrong-length pair slices must fall back to hashing, not misdeliver.
	// Results alias the model's scratch buffer: copy before the next lookup.
	got := append([]ndn.FaceID(nil), blm.FacesForHashed(pub, PrefixHashes(cd.MustParse("/1/2/3/4")))...)
	want := append([]ndn.FaceID(nil), blm.FacesFor(pub)...)
	if !reflect.DeepEqual(got, want) || len(want) != 1 {
		t.Errorf("fallback mismatch: %v vs %v", got, want)
	}
	if got := blm.FacesForHashed(pub, nil); !reflect.DeepEqual(got, want) {
		t.Errorf("nil-pairs mismatch: %v vs %v", got, want)
	}
}
