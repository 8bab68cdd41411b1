package bloom

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestAddTest(t *testing.T) {
	f := New(1024, 4)
	keys := []string{"/", "/1", "/1/2", "/sports/football", "(root)"}
	for _, k := range keys {
		f.AddString(k)
	}
	for _, k := range keys {
		if !f.TestString(k) {
			t.Errorf("false negative for %q", k)
		}
	}
	if f.Count() != uint64(len(keys)) {
		t.Errorf("Count = %d", f.Count())
	}
}

func TestNoFalseNegativesProperty(t *testing.T) {
	f := func(keys []string) bool {
		bf := New(10*uint64(len(keys)+1), 7)
		for _, k := range keys {
			bf.AddString(k)
		}
		for _, k := range keys {
			if !bf.TestString(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestFalsePositiveRateBounded(t *testing.T) {
	const n = 5000
	bf := New(1<<16, 7) // the geometry for n elements at a 1% target, rounded up
	r := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		bf.AddString(fmt.Sprintf("member-%d-%d", i, r.Int63()))
	}
	fp := 0
	const probes = 20000
	for i := 0; i < probes; i++ {
		if bf.TestString(fmt.Sprintf("nonmember-%d", i)) {
			fp++
		}
	}
	rate := float64(fp) / probes
	if rate > 0.03 { // 3× the design target leaves headroom for hash variance
		t.Errorf("false positive rate %.4f exceeds bound", rate)
	}
}

func TestGeometryClamping(t *testing.T) {
	f := New(1, 0)
	if f.Bits() != 64 || f.Hashes() != 1 {
		t.Errorf("clamped geometry = (%d,%d)", f.Bits(), f.Hashes())
	}
	f = New(100, 100)
	if f.Bits() != 128 || f.Hashes() != 32 {
		t.Errorf("clamped geometry = (%d,%d)", f.Bits(), f.Hashes())
	}
}

func TestReset(t *testing.T) {
	f := New(256, 3)
	f.AddString("x")
	f.Reset()
	if f.TestString("x") {
		t.Error("Reset did not clear bits")
	}
	if f.Count() != 0 || !slices.Equal(f.bits, make([]uint64, len(f.bits))) {
		t.Error("Reset did not clear counters")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := New(256, 3)
	a.AddString("a")
	b := a.Clone()
	b.AddString("b")
	if slices.Equal(a.bits, b.bits) {
		t.Error("Clone shares storage with original")
	}
	if !b.TestString("a") {
		t.Error("Clone lost member")
	}
}

// TestMaskedProbeMatchesModulo pins the probe positions: for every
// power-of-two size the stepped, masked index must set and test exactly the
// bits of the textbook (H1 + i·H2) mod m, written out here as the reference.
func TestMaskedProbeMatchesModulo(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	pairs := make([]HashPair, 10000)
	for i := range pairs {
		pairs[i] = HashPair{H1: r.Uint64(), H2: r.Uint64()}
	}
	const k = 5
	for m := uint64(64); m <= 65536; m *= 2 {
		f := New(m, k)
		want := make([]uint64, m/64)
		for n, p := range pairs {
			if n%8 == 0 { // keep large filters sparse enough for TestPair to say no
				f.AddPair(p)
				for i := uint64(0); i < k; i++ {
					idx := (p.H1 + i*p.H2) % m
					want[idx/64] |= 1 << (idx % 64)
				}
			}
		}
		for w := range want {
			if f.bits[w] != want[w] {
				t.Fatalf("m=%d: word %d is %#x, reference %#x", m, w, f.bits[w], want[w])
			}
		}
		for _, p := range pairs {
			ref := true
			for i := uint64(0); i < k; i++ {
				idx := (p.H1 + i*p.H2) % m
				ref = ref && want[idx/64]&(1<<(idx%64)) != 0
			}
			if got := f.TestPair(p); got != ref {
				t.Fatalf("m=%d: TestPair(%+v) = %v, reference %v", m, p, got, ref)
			}
		}
	}
}

// TestRoundsUpToPowerOfTwo: a size between two powers takes the larger one
// and the filter still has no false negatives.
func TestRoundsUpToPowerOfTwo(t *testing.T) {
	f := New(192, 3)
	if f.Bits() != 256 {
		t.Fatalf("New(192, 3).Bits() = %d, want 256", f.Bits())
	}
	for i := 0; i < 60; i++ {
		f.AddString(fmt.Sprintf("k%d", i))
	}
	for i := 0; i < 60; i++ {
		if !f.TestString(fmt.Sprintf("k%d", i)) {
			t.Errorf("member k%d missing", i)
		}
	}
}

func BenchmarkAdd(b *testing.B) {
	f := New(1<<17, 7)
	key := []byte("/1/2/some-object-name")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Add(key)
	}
}

func BenchmarkTest(b *testing.B) {
	f := New(1<<17, 7)
	for i := 0; i < 1000; i++ {
		f.AddString(fmt.Sprintf("/k/%d", i))
	}
	key := []byte("/1/2/some-object-name")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Test(key)
	}
}
