// Package copss implements the Content-Oriented Publish/Subscribe System
// layer of G-COPSS: the per-face Subscription Table (ST) with a Bloom-filter
// fast path, the RP (Rendezvous Point) table mapping prefix-free CD prefixes
// to RP names, and the pure pub/sub engine that decides how Subscribe,
// Unsubscribe and Multicast packets are forwarded.
package copss

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"github.com/icn-gaming/gcopss/internal/bloom"
	"github.com/icn-gaming/gcopss/internal/cd"
	"github.com/icn-gaming/gcopss/internal/ndn"
)

// MatchMode selects how the ST answers forwarding queries.
type MatchMode int

// Match modes. Enum starts at 1 so the zero value is invalid and construction
// goes through NewST.
const (
	// MatchExact consults only the exact subscription sets: no false
	// positives, deterministic. The ablation experiments count deliveries
	// and subscription entries with it; routers never use it.
	MatchExact MatchMode = iota + 1
	// MatchBloom consults only the per-face Bloom filters, as the paper's
	// data plane does: false positives forward extra packets that end hosts
	// discard, false negatives cannot occur.
	MatchBloom
	// MatchBloomVerified probes the Bloom filter first and confirms hits
	// against the exact set, modelling the filter as a cache-friendly
	// pre-check while keeping delivery exact.
	MatchBloomVerified
)

// stFilterSize is the per-face Bloom filter geometry: sized for the CD
// populations of the paper's game maps (tens of CDs per face) with room to
// spare before false positives matter.
const (
	stFilterBits   = 2048
	stFilterHashes = 5
)

type faceSubs struct {
	exact  *cd.Set
	filter *bloom.Filter
	dirty  bool // true when filter must be rebuilt (after removals)

	// keyScratch backs rebuild's key listing so lazy rebuilds on the
	// forwarding path stay allocation-free in the steady state.
	keyScratch []string
}

func newFaceSubs() *faceSubs {
	return &faceSubs{exact: cd.NewSet(), filter: bloom.New(stFilterBits, stFilterHashes)}
}

// rebuild repopulates the Bloom filter from the exact set. Insertion order is
// irrelevant (the filter ORs bits), so it iterates keys unsorted via
// AppendKeys instead of the sorting, allocating Members.
func (fs *faceSubs) rebuild() {
	fs.filter.Reset()
	fs.keyScratch = fs.exact.AppendKeys(fs.keyScratch[:0])
	for _, k := range fs.keyScratch {
		fs.filter.AddString(k)
	}
	fs.dirty = false
}

// ST is the Subscription Table: for every face, the set of CDs subscribed
// through that face, stored both exactly and in a Bloom filter. The paper
// models it as <Face, BloomFilter<CD>>. An ST belongs to one router and is
// not safe for concurrent use; queries reuse internal scratch buffers.
type ST struct {
	// faces is kept sorted by face ID: forwarding queries walk it in order
	// and so emit sorted face lists without sorting, and by-face lookups
	// binary-search it.
	faces []faceEntry
	mode  MatchMode

	bloomProbes       uint64
	bloomFalseMatches uint64

	// Query scratch state, reused so the steady-state forwarding lookup is
	// allocation-free. Reuse is safe because the ST is single-goroutine by
	// contract (see the type comment).
	scratch     []ndn.FaceID     // backs the slice returned by facesFor
	pairScratch []bloom.HashPair // backs FacesForFlat's pair view
	pairCache   map[string][]bloom.HashPair
}

// faceEntry is one face's row of the table.
type faceEntry struct {
	id   ndn.FaceID
	subs *faceSubs
}

// find returns face's position in st.faces, or where it would be inserted.
func (st *ST) find(face ndn.FaceID) (int, bool) {
	return slices.BinarySearchFunc(st.faces, face, func(e faceEntry, f ndn.FaceID) int {
		return cmp.Compare(e.id, f)
	})
}

// subsOf returns face's subscriptions, or nil when it has none.
func (st *ST) subsOf(face ndn.FaceID) *faceSubs {
	if i, ok := st.find(face); ok {
		return st.faces[i].subs
	}
	return nil
}

// stPairCacheMax bounds the per-ST memoized hash vectors; when the cache
// fills (an adversarial CD churn pattern), it is reset wholesale — correct,
// just momentarily slower.
const stPairCacheMax = 4096

// NewST creates an empty subscription table with the given match mode.
func NewST(mode MatchMode) *ST {
	if mode == 0 {
		mode = MatchBloomVerified
	}
	return &ST{mode: mode}
}

// Add subscribes face to c; it reports whether the entry is new.
func (st *ST) Add(face ndn.FaceID, c cd.CD) bool {
	i, ok := st.find(face)
	if !ok {
		st.faces = slices.Insert(st.faces, i, faceEntry{id: face, subs: newFaceSubs()})
	}
	fs := st.faces[i].subs
	if !fs.exact.Add(c) {
		return false
	}
	fs.filter.AddString(c.Key())
	return true
}

// Remove unsubscribes face from c; it reports whether the entry existed.
// Bloom filters cannot delete, so the face's filter is marked for rebuild.
func (st *ST) Remove(face ndn.FaceID, c cd.CD) bool {
	i, ok := st.find(face)
	if !ok {
		return false
	}
	fs := st.faces[i].subs
	if !fs.exact.Remove(c) {
		return false
	}
	fs.dirty = true
	if fs.exact.Len() == 0 {
		st.faces = slices.Delete(st.faces, i, i+1)
	}
	return true
}

// RemoveFace drops every subscription of a face (e.g. a disconnected
// client); it reports whether the face had any.
func (st *ST) RemoveFace(face ndn.FaceID) bool {
	i, ok := st.find(face)
	if ok {
		st.faces = slices.Delete(st.faces, i, i+1)
	}
	return ok
}

// PrefixHashes precomputes the Bloom hash pairs of a CD's prefixes
// (shortest first) — done once at the first-hop router, per the paper's
// optimization, and carried in the packet so every downstream ST probe is
// a bit comparison.
func PrefixHashes(c cd.CD) []bloom.HashPair {
	prefixes := c.Prefixes()
	out := make([]bloom.HashPair, len(prefixes))
	for i, p := range prefixes {
		out[i] = bloom.HashString(p.Key())
	}
	return out
}

// FlattenHashes converts pairs to the packet representation (two uint64
// per pair).
func FlattenHashes(pairs []bloom.HashPair) []uint64 {
	out := make([]uint64, 0, len(pairs)*2)
	for _, p := range pairs {
		out = append(out, p.H1, p.H2)
	}
	return out
}

// FacesFor returns the faces a Multicast packet for CD c must be forwarded
// to: every face whose subscription set contains a prefix of c (including c
// itself). The result is sorted, is nil when empty, and — like all ST
// forwarding queries — remains valid only until the next query on this ST;
// callers that retain it across queries must copy it.
func (st *ST) FacesFor(c cd.CD) []ndn.FaceID {
	return st.facesFor(c, nil)
}

// FacesForHashed is FacesFor with precomputed prefix hash pairs (the
// first-hop optimization). Invalid pair counts fall back to hashing. The
// result is valid only until the next query on this ST.
func (st *ST) FacesForHashed(c cd.CD, pairs []bloom.HashPair) []ndn.FaceID {
	if len(pairs) != c.Len()+1 {
		pairs = nil // inconsistent with the prefix count: recompute
	}
	return st.facesFor(c, pairs)
}

// FacesForFlat is FacesForHashed taking the flat on-the-wire hash vector
// (wire.Packet.CDHashes: H1,H2 per prefix, shortest first) directly, so the
// per-hop forwarding path allocates no pair slice; it must stay
// allocation-free (TestFacesForHashedAllocFree). The result is valid only
// until the next query on this ST.
func (st *ST) FacesForFlat(c cd.CD, flat []uint64) []ndn.FaceID {
	if len(flat) != 2*(c.Len()+1) {
		return st.facesFor(c, nil)
	}
	st.pairScratch = st.pairScratch[:0]
	for i := 0; i+1 < len(flat); i += 2 {
		st.pairScratch = append(st.pairScratch, bloom.HashPair{H1: flat[i], H2: flat[i+1]})
	}
	return st.facesFor(c, st.pairScratch)
}

// pairsFor memoizes PrefixHashes per CD so repeated publications to the same
// CD (the common game pattern: every move republishes the same area CD) hash
// only once per ST.
func (st *ST) pairsFor(c cd.CD) []bloom.HashPair {
	if pairs, ok := st.pairCache[c.Key()]; ok {
		return pairs
	}
	pairs := PrefixHashes(c)
	if st.pairCache == nil || len(st.pairCache) >= stPairCacheMax {
		st.pairCache = make(map[string][]bloom.HashPair, 64)
	}
	st.pairCache[c.Key()] = pairs
	return pairs
}

func (st *ST) facesFor(c cd.CD, pairs []bloom.HashPair) []ndn.FaceID {
	if pairs == nil && st.mode != MatchExact {
		pairs = st.pairsFor(c)
	}
	out := st.scratch[:0]
	for _, e := range st.faces {
		if st.matches(e.subs, c, pairs) {
			out = append(out, e.id)
		}
	}
	st.scratch = out
	if len(out) == 0 {
		return nil
	}
	return out
}

func (st *ST) matches(fs *faceSubs, c cd.CD, pairs []bloom.HashPair) bool {
	switch st.mode {
	case MatchExact:
		return fs.exact.ContainsPrefixOf(c)
	case MatchBloom:
		if fs.dirty {
			fs.rebuild()
		}
		for _, p := range pairs {
			st.bloomProbes++
			if fs.filter.TestPair(p) {
				return true
			}
		}
		return false
	case MatchBloomVerified:
		if fs.dirty {
			fs.rebuild()
		}
		hit := false
		for _, p := range pairs {
			st.bloomProbes++
			if fs.filter.TestPair(p) {
				hit = true
				break
			}
		}
		if !hit {
			return false
		}
		ok := fs.exact.ContainsPrefixOf(c)
		if !ok {
			st.bloomFalseMatches++
		}
		return ok
	default:
		return fs.exact.ContainsPrefixOf(c)
	}
}

// Subscribed reports whether face holds an exact subscription to c.
func (st *ST) Subscribed(face ndn.FaceID, c cd.CD) bool {
	fs := st.subsOf(face)
	return fs != nil && fs.exact.Contains(c)
}

// SubscribedAnywhere reports whether any face holds an exact subscription to
// c. Used for unsubscribe aggregation: the router leaves the group upstream
// only when the last downstream subscriber is gone.
func (st *ST) SubscribedAnywhere(c cd.CD) bool {
	for _, e := range st.faces {
		if e.subs.exact.Contains(c) {
			return true
		}
	}
	return false
}

// SubscribedElsewhere reports whether a face other than except subscribes to
// c exactly.
func (st *ST) SubscribedElsewhere(c cd.CD, except ndn.FaceID) bool {
	for _, e := range st.faces {
		if e.id != except && e.subs.exact.Contains(c) {
			return true
		}
	}
	return false
}

// CDsOf returns the sorted CDs face is subscribed to.
func (st *ST) CDsOf(face ndn.FaceID) []cd.CD {
	fs := st.subsOf(face)
	if fs == nil {
		return nil
	}
	return fs.exact.Members()
}

// AllCDs returns the union of subscriptions across faces, sorted.
func (st *ST) AllCDs() []cd.CD {
	u := cd.NewSet()
	for _, e := range st.faces {
		for _, c := range e.subs.exact.Members() {
			u.Add(c)
		}
	}
	return u.Members()
}

// Faces returns the sorted faces that hold at least one subscription.
func (st *ST) Faces() []ndn.FaceID {
	out := make([]ndn.FaceID, 0, len(st.faces))
	for _, e := range st.faces {
		out = append(out, e.id)
	}
	return out
}

// Len returns the total number of (face, CD) entries.
func (st *ST) Len() int {
	n := 0
	for _, e := range st.faces {
		n += e.subs.exact.Len()
	}
	return n
}

// BloomStats returns the number of Bloom probes performed and how many hits
// were rejected by exact verification (observed false positives).
func (st *ST) BloomStats() (probes, falseMatches uint64) {
	return st.bloomProbes, st.bloomFalseMatches
}

// String renders the table for debugging.
func (st *ST) String() string {
	var b strings.Builder
	for _, e := range st.faces {
		fmt.Fprintf(&b, "face %d: %v\n", e.id, e.subs.exact)
	}
	return b.String()
}
