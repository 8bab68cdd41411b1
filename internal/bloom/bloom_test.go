package bloom

import (
	"fmt"
	"math/rand"
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
		if !f.TestPair(HashString(k)) {
			t.Errorf("false negative for %q", k)
		}
	}
}

func TestNoFalseNegativesProperty(t *testing.T) {
	f := func(keys []string) bool {
		bf := New(10*uint64(len(keys)+1), 7)
		for _, k := range keys {
			bf.AddString(k)
		}
		for _, k := range keys {
			if !bf.TestPair(HashString(k)) {
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
		if bf.TestPair(HashString(fmt.Sprintf("nonmember-%d", i))) {
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
	if f.m != 64 || f.k != 1 || len(f.bits) != 1 {
		t.Errorf("clamped geometry = (%d,%d)", f.m, f.k)
	}
	f = New(100, 100)
	if f.m != 128 || f.k != 32 || len(f.bits) != 2 {
		t.Errorf("clamped geometry = (%d,%d)", f.m, f.k)
	}
}

// TestMaskedProbeMatchesModulo pins the probe positions: for every
// power-of-two size the stepped, masked index must set and test exactly the
// bits of the textbook (H1 + i·H2) mod m, written out here as the reference.
func TestMaskedProbeMatchesModulo(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	keys := make([]string, 10000)
	pairs := make([]HashPair, len(keys))
	for i := range pairs {
		keys[i] = fmt.Sprintf("k%d-%d", i, r.Int63())
		pairs[i] = HashString(keys[i])
	}
	const k = 5
	for m := uint64(64); m <= 65536; m *= 2 {
		f := New(m, k)
		want := make([]uint64, m/64)
		for n, p := range pairs {
			if n%8 == 0 { // keep large filters sparse enough for TestPair to say no
				f.AddString(keys[n])
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
	if f.m != 256 {
		t.Fatalf("New(192, 3) has %d bits, want 256", f.m)
	}
	for i := 0; i < 60; i++ {
		f.AddString(fmt.Sprintf("k%d", i))
	}
	for i := 0; i < 60; i++ {
		if !f.TestPair(HashString(fmt.Sprintf("k%d", i))) {
			t.Errorf("member k%d missing", i)
		}
	}
}

func BenchmarkAdd(b *testing.B) {
	f := New(1<<17, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.AddString("/1/2/some-object-name")
	}
}

func BenchmarkTest(b *testing.B) {
	f := New(1<<17, 7)
	for i := 0; i < 1000; i++ {
		f.AddString(fmt.Sprintf("/k/%d", i))
	}
	key := HashString("/1/2/some-object-name")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.TestPair(key)
	}
}
