// Package bloom provides the Bloom filters used by the COPSS Subscription
// Table fast path. The paper stores, per face, a Bloom filter over the
// subscribed CDs so that forwarding a Multicast packet reduces to a few bit
// probes per prefix of the packet's CD.
//
// The implementation uses double hashing over two 64-bit FNV-1a derived
// values (Kirsch–Mitzenmacher), which needs only the standard library.
package bloom

import (
	"encoding/binary"
	"hash/fnv"
	"math/bits"
)

// Filter is a fixed-size Bloom filter. The zero value is unusable; construct
// with New.
type Filter struct {
	bits []uint64
	m    uint64 // number of bits, a power of two: probes index with h & (m-1)
	k    uint64 // number of hash functions
	n    uint64 // number of inserted elements (approximate if duplicates)
}

// New creates a filter with m bits and k hash functions. m is rounded up to
// a power of two of at least 64, so that a probe is a mask and not a
// division; k is clamped to [1, 32].
func New(m, k uint64) *Filter {
	if m < 64 {
		m = 64
	}
	m = 1 << bits.Len64(m-1)
	if k < 1 {
		k = 1
	}
	if k > 32 {
		k = 32
	}
	return &Filter{bits: make([]uint64, m/64), m: m, k: k}
}

// HashPair is the precomputed double-hashing state of one key. The paper's
// first-hop optimization ("calculate the hash values at the 1st hop router
// and the routers forward hash values along with the names. So routers only
// need to perform simple bit comparison") ships these pairs inside packets
// so downstream Subscription Tables probe without re-hashing.
type HashPair struct {
	H1, H2 uint64
}

// Hash derives the double-hashing pair for a key.
func Hash(data []byte) HashPair {
	h := fnv.New64a()
	h.Write(data) //nolint:errcheck // fnv never errors
	h1 := h.Sum64()
	// Derive a second, independent-enough value by hashing h1's bytes with a
	// different seed byte prepended.
	var buf [9]byte
	buf[0] = 0x9e
	binary.LittleEndian.PutUint64(buf[1:], h1)
	h2h := fnv.New64a()
	h2h.Write(buf[:]) //nolint:errcheck
	h2 := h2h.Sum64()
	if h2 == 0 {
		h2 = 0x9e3779b97f4a7c15 // avoid a degenerate stride
	}
	return HashPair{H1: h1, H2: h2}
}

// HashString derives the pair for a string key.
func HashString(s string) HashPair { return Hash([]byte(s)) }

// Add inserts data into the filter.
func (f *Filter) Add(data []byte) {
	f.AddPair(Hash(data))
}

// AddPair inserts a precomputed key. Probe i lands on bit (H1 + i·H2) mod m,
// reached by stepping h and masking.
func (f *Filter) AddPair(p HashPair) {
	mask, h := f.m-1, p.H1
	for i := uint64(0); i < f.k; i++ {
		idx := h & mask
		f.bits[idx/64] |= 1 << (idx % 64)
		h += p.H2
	}
	f.n++
}

// AddString inserts a string key.
func (f *Filter) AddString(s string) { f.Add([]byte(s)) }

// Test reports whether data may have been inserted. False positives are
// possible; false negatives are not.
func (f *Filter) Test(data []byte) bool {
	return f.TestPair(Hash(data))
}

// TestPair probes with a precomputed key — the "simple bit comparison" fast
// path of the first-hop hash optimization.
func (f *Filter) TestPair(p HashPair) bool {
	mask, h := f.m-1, p.H1
	for i := uint64(0); i < f.k; i++ {
		idx := h & mask
		if f.bits[idx/64]&(1<<(idx%64)) == 0 {
			return false
		}
		h += p.H2
	}
	return true
}

// TestString reports possible membership of a string key.
func (f *Filter) TestString(s string) bool { return f.Test([]byte(s)) }

// Reset clears all bits.
func (f *Filter) Reset() {
	for i := range f.bits {
		f.bits[i] = 0
	}
	f.n = 0
}

// Count returns the number of Add calls since construction or Reset.
func (f *Filter) Count() uint64 { return f.n }

// Bits returns the filter size in bits.
func (f *Filter) Bits() uint64 { return f.m }

// Hashes returns the number of hash functions.
func (f *Filter) Hashes() uint64 { return f.k }

// Clone returns an independent copy.
func (f *Filter) Clone() *Filter {
	out := &Filter{bits: make([]uint64, len(f.bits)), m: f.m, k: f.k, n: f.n}
	copy(out.bits, f.bits)
	return out
}
