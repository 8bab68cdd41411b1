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
		bf := NewWithEstimates(uint64(len(keys))+1, 0.01)
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
	bf := NewWithEstimates(n, 0.01)
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
	if est := bf.EstimatedFalsePositiveRate(); est > 0.02 {
		t.Errorf("estimated fp rate %.4f unexpectedly high", est)
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
	f = NewWithEstimates(0, 2.0) // degenerate inputs fall back to defaults
	if f.Bits() == 0 {
		t.Error("NewWithEstimates produced empty filter")
	}
}

func TestReset(t *testing.T) {
	f := New(256, 3)
	f.AddString("x")
	f.Reset()
	if f.TestString("x") {
		t.Error("Reset did not clear bits")
	}
	if f.Count() != 0 || f.FillRatio() != 0 {
		t.Error("Reset did not clear counters")
	}
}

func TestUnion(t *testing.T) {
	a, b := New(256, 3), New(256, 3)
	a.AddString("a")
	b.AddString("b")
	if err := a.Union(b); err != nil {
		t.Fatalf("Union: %v", err)
	}
	if !a.TestString("a") || !a.TestString("b") {
		t.Error("Union lost members")
	}
	c := New(512, 3)
	if err := a.Union(c); err == nil {
		t.Error("Union should reject geometry mismatch")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := New(256, 3)
	a.AddString("a")
	b := a.Clone()
	b.AddString("b")
	if a.TestString("b") && a.FillRatio() == b.FillRatio() {
		t.Error("Clone shares storage with original")
	}
	if !b.TestString("a") {
		t.Error("Clone lost member")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	a := New(512, 5)
	for i := 0; i < 40; i++ {
		a.AddString(fmt.Sprintf("k%d", i))
	}
	data, err := a.MarshalBinary()
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}
	var b Filter
	if err := b.UnmarshalBinary(data); err != nil {
		t.Fatalf("UnmarshalBinary: %v", err)
	}
	for i := 0; i < 40; i++ {
		if !b.TestString(fmt.Sprintf("k%d", i)) {
			t.Errorf("member k%d lost in round trip", i)
		}
	}
	if b.Bits() != a.Bits() || b.Hashes() != a.Hashes() || b.Count() != a.Count() {
		t.Error("geometry lost in round trip")
	}
	if err := b.UnmarshalBinary(data[:10]); err == nil {
		t.Error("UnmarshalBinary should reject short buffers")
	}
	if err := b.UnmarshalBinary(data[:30]); err == nil {
		t.Error("UnmarshalBinary should reject inconsistent lengths")
	}
	// 192 bits with a matching body: consistent, but not a size the masked
	// probe can index.
	odd := make([]byte, 24+192/8)
	odd[7], odd[15] = 192, 3
	if err := b.UnmarshalBinary(odd); err == nil {
		t.Error("UnmarshalBinary should reject a size that is not a power of two")
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

func TestFillRatioMonotone(t *testing.T) {
	f := New(1024, 4)
	prev := 0.0
	for i := 0; i < 100; i++ {
		f.AddString(fmt.Sprintf("k%d", i))
		cur := f.FillRatio()
		if cur < prev {
			t.Fatalf("fill ratio decreased: %f -> %f", prev, cur)
		}
		prev = cur
	}
	if prev <= 0 || prev > 1 {
		t.Errorf("fill ratio out of range: %f", prev)
	}
}

func BenchmarkAdd(b *testing.B) {
	f := NewWithEstimates(10000, 0.01)
	key := []byte("/1/2/some-object-name")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Add(key)
	}
}

func BenchmarkTest(b *testing.B) {
	f := NewWithEstimates(10000, 0.01)
	for i := 0; i < 1000; i++ {
		f.AddString(fmt.Sprintf("/k/%d", i))
	}
	key := []byte("/1/2/some-object-name")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Test(key)
	}
}
