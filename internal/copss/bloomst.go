package copss

import (
	"cmp"
	"slices"

	"github.com/icn-gaming/gcopss/internal/bloom"
	"github.com/icn-gaming/gcopss/internal/cd"
	"github.com/icn-gaming/gcopss/internal/ndn"
)

// Per-face Bloom filter geometry of the model: sized for the CD populations
// of the paper's game maps (tens of CDs per face) with room to spare before
// false positives matter.
const (
	stFilterBits   = 2048
	stFilterHashes = 5
)

// BloomST models the paper's Subscription Table, <Face, BloomFilter<CD>>:
// one Bloom filter per face and nothing else. A lookup probes every face's
// filter with each prefix of the CD, so a false positive forwards a packet
// nobody subscribed to; with no exact record beside the filters, the model
// cannot remove a subscription. Routers use the exact ST; BloomST exists for
// the forwarding-cost ablation and BenchmarkSTMulticastLookup. The zero
// value is an empty table; it is not safe for concurrent use.
type BloomST struct {
	faces   []bloomFace  // sorted by face ID
	scratch []ndn.FaceID // backs the slice the lookups return
}

type bloomFace struct {
	id     ndn.FaceID
	filter *bloom.Filter
}

// Add subscribes face to c.
func (b *BloomST) Add(face ndn.FaceID, c cd.CD) {
	i, ok := slices.BinarySearchFunc(b.faces, face, func(e bloomFace, f ndn.FaceID) int {
		return cmp.Compare(e.id, f)
	})
	if !ok {
		b.faces = slices.Insert(b.faces, i, bloomFace{id: face, filter: bloom.New(stFilterBits, stFilterHashes)})
	}
	b.faces[i].filter.AddString(c.Key())
}

// FacesFor returns the sorted faces whose filter may hold a prefix of c,
// hashing the prefixes itself. The result is valid until the next lookup.
func (b *BloomST) FacesFor(c cd.CD) []ndn.FaceID {
	return b.FacesForHashed(c, PrefixHashes(c))
}

// FacesForHashed is FacesFor with the prefix hash pairs precomputed, as the
// paper's first hop ships them, so a lookup is bit probes only. Pairs that
// do not match c's prefix count are recomputed.
func (b *BloomST) FacesForHashed(c cd.CD, pairs []bloom.HashPair) []ndn.FaceID {
	if len(pairs) != c.Len()+1 {
		pairs = PrefixHashes(c)
	}
	out := b.scratch[:0]
	for _, e := range b.faces {
		for _, p := range pairs {
			if e.filter.TestPair(p) {
				out = append(out, e.id)
				break
			}
		}
	}
	b.scratch = out
	if len(out) == 0 {
		return nil
	}
	return out
}
