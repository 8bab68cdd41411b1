package copss

import (
	"reflect"
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
	// Property: with precomputed pairs, every mode returns exactly what
	// plain FacesFor returns.
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
		for _, mode := range []MatchMode{MatchExact, MatchBloom, MatchBloomVerified} {
			st := NewST(mode)
			for i, raw := range subsRaw {
				st.Add(ndn.FaceID(i%5), mk(raw))
			}
			pub := mk(pubRaw)
			// ST query results alias a reused scratch buffer, so copy the
			// first result before issuing the second query.
			plain := append([]ndn.FaceID(nil), st.FacesFor(pub)...)
			hashed := st.FacesForHashed(pub, PrefixHashes(pub))
			if len(plain) == 0 && len(hashed) == 0 {
				continue
			}
			if !reflect.DeepEqual(plain, hashed) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 800}); err != nil {
		t.Error(err)
	}
}

func TestFacesForHashedRejectsWrongPairCount(t *testing.T) {
	st := NewST(MatchBloom)
	st.Add(1, cd.MustParse("/1"))
	pub := cd.MustParse("/1/2")
	// Wrong-length pair slices must fall back to hashing, not misdeliver.
	// Results alias the ST's scratch buffer: copy before the next query.
	got := append([]ndn.FaceID(nil), st.FacesForHashed(pub, PrefixHashes(cd.MustParse("/1/2/3/4")))...)
	want := append([]ndn.FaceID(nil), st.FacesFor(pub)...)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("fallback mismatch: %v vs %v", got, want)
	}
	if got := st.FacesForHashed(pub, nil); !reflect.DeepEqual(got, want) {
		t.Errorf("nil-pairs mismatch: %v vs %v", got, want)
	}
}

func BenchmarkFacesForRehash(b *testing.B) {
	st := NewST(MatchBloom)
	for i := 0; i < 40; i++ {
		st.Add(ndn.FaceID(i), cd.MustNew(string(rune('0'+i%5)), string(rune('0'+i%4))))
	}
	pub := cd.MustParse("/3/2")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.FacesFor(pub)
	}
}

func BenchmarkFacesForPrecomputedHash(b *testing.B) {
	st := NewST(MatchBloom)
	for i := 0; i < 40; i++ {
		st.Add(ndn.FaceID(i), cd.MustNew(string(rune('0'+i%5)), string(rune('0'+i%4))))
	}
	pub := cd.MustParse("/3/2")
	pairs := PrefixHashes(pub) // done once at the first hop
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.FacesForHashed(pub, pairs)
	}
}
