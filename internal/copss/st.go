// Package copss implements the Content-Oriented Publish/Subscribe System
// layer of G-COPSS: the Subscription Table (ST), an exact index from each CD
// to the faces subscribed to it; the RP (Rendezvous Point) table mapping
// prefix-free CD prefixes to RP names; and BloomST, the paper's per-face
// Bloom-filter ST, kept as a model for the forwarding-cost ablation.
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

// ST is the Subscription Table: which faces subscribe to which CDs. The
// paper models it as <Face, BloomFilter<CD>>; this table is exact instead.
// One index maps each subscribed CD to its sorted faces, so a forwarding
// lookup is one map probe per prefix of the packet's CD. Each face also
// keeps its sorted CDs, which serve RemoveFace, CDsOf, Faces and Len. An ST
// belongs to one router and is not safe for concurrent use; FacesFor reuses
// an internal scratch buffer.
type ST struct {
	index map[string][]ndn.FaceID // CD key → sorted faces; never empty
	faces []faceCDs               // sorted by face ID; cds never empty

	// Query scratch, reused so the steady-state forwarding lookup is
	// allocation-free. FacesFor copies index lists into scratch and never
	// returns index storage, so a later Add or Remove cannot rewrite a
	// result a caller still holds.
	scratch  []ndn.FaceID
	prefixes []cd.CD
}

// faceCDs is one face's row of the table.
type faceCDs struct {
	id  ndn.FaceID
	cds []cd.CD // sorted by cd.CD.Compare
}

// NewST creates an empty subscription table.
func NewST() *ST {
	return &ST{index: make(map[string][]ndn.FaceID)}
}

// find returns face's position in st.faces, or where it would be inserted.
func (st *ST) find(face ndn.FaceID) (int, bool) {
	return slices.BinarySearchFunc(st.faces, face, func(e faceCDs, f ndn.FaceID) int {
		return cmp.Compare(e.id, f)
	})
}

// Add subscribes face to c; it reports whether the entry is new. Adding an
// entry that exists allocates nothing (TestFacesForHashedAllocFree).
func (st *ST) Add(face ndn.FaceID, c cd.CD) bool {
	i, ok := st.find(face)
	if !ok {
		st.faces = slices.Insert(st.faces, i, faceCDs{id: face})
	}
	cds := st.faces[i].cds
	j, ok := slices.BinarySearchFunc(cds, c, cd.CD.Compare)
	if ok {
		return false
	}
	st.faces[i].cds = slices.Insert(cds, j, c)
	fs := st.index[c.Key()]
	n, _ := slices.BinarySearch(fs, face)
	st.index[c.Key()] = slices.Insert(fs, n, face)
	return true
}

// Remove unsubscribes face from c; it reports whether the entry existed.
func (st *ST) Remove(face ndn.FaceID, c cd.CD) bool {
	i, ok := st.find(face)
	if !ok {
		return false
	}
	cds := st.faces[i].cds
	j, ok := slices.BinarySearchFunc(cds, c, cd.CD.Compare)
	if !ok {
		return false
	}
	if len(cds) == 1 {
		st.faces = slices.Delete(st.faces, i, i+1)
	} else {
		st.faces[i].cds = slices.Delete(cds, j, j+1)
	}
	st.unindex(face, c)
	return true
}

// RemoveFace drops every subscription of a face (e.g. a disconnected
// client); it reports whether the face had any.
func (st *ST) RemoveFace(face ndn.FaceID) bool {
	i, ok := st.find(face)
	if !ok {
		return false
	}
	for _, c := range st.faces[i].cds {
		st.unindex(face, c)
	}
	st.faces = slices.Delete(st.faces, i, i+1)
	return true
}

// unindex takes face out of c's index list, dropping the list when it empties.
func (st *ST) unindex(face ndn.FaceID, c cd.CD) {
	fs := st.index[c.Key()]
	if len(fs) == 1 {
		delete(st.index, c.Key())
		return
	}
	n, _ := slices.BinarySearch(fs, face)
	st.index[c.Key()] = slices.Delete(fs, n, n+1)
}

// FacesFor returns the faces a Multicast packet for CD c must be forwarded
// to: every face subscribed to a prefix of c (including c itself). The
// result is sorted, is nil when empty, and lives in ST scratch: it stays
// valid until the next FacesFor on this ST, and callers that retain it
// longer must copy it. A warm lookup allocates nothing
// (TestFacesForHashedAllocFree).
func (st *ST) FacesFor(c cd.CD) []ndn.FaceID {
	out, hits := st.scratch[:0], 0
	st.prefixes = c.AppendPrefixes(st.prefixes[:0])
	for _, p := range st.prefixes {
		if fs := st.index[p.Key()]; len(fs) > 0 {
			out = append(out, fs...)
			hits++
		}
	}
	if hits > 1 {
		slices.Sort(out)
		out = slices.Compact(out)
	}
	st.scratch = out
	if len(out) == 0 {
		return nil
	}
	return out
}

// FacesForFlat is FacesFor; it ignores flat.
//
// Deprecated: no packet carries the first-hop hash vector any more
// (wire.Packet.CDHashes). Only the benchmark's layer probes still call this.
func (st *ST) FacesForFlat(c cd.CD, flat []uint64) []ndn.FaceID {
	return st.FacesFor(c)
}

// Subscribed reports whether face holds an exact subscription to c.
func (st *ST) Subscribed(face ndn.FaceID, c cd.CD) bool {
	_, ok := slices.BinarySearch(st.index[c.Key()], face)
	return ok
}

// AnyIntersecting reports whether any face subscribes to a CD that
// intersects d: a prefix of d, d itself, or a CD under d. A router asks it
// before withdrawing d upstream. It walks the per-face CD lists in place and
// allocates nothing (TestFacesForHashedAllocFree).
func (st *ST) AnyIntersecting(d cd.CD) bool {
	for _, e := range st.faces {
		for _, c := range e.cds {
			if c.Intersects(d) {
				return true
			}
		}
	}
	return false
}

// AppendUnder appends to dst every subscribed CD that has d as a proper
// prefix, once per subscribing face, and returns the extended slice. It walks
// the per-face CD lists in place; with a dst of enough capacity it allocates
// nothing.
func (st *ST) AppendUnder(dst []cd.CD, d cd.CD) []cd.CD {
	for _, e := range st.faces {
		for _, c := range e.cds {
			if c != d && c.HasPrefix(d) {
				dst = append(dst, c)
			}
		}
	}
	return dst
}

// CDsOf returns the sorted CDs face is subscribed to, in a new slice.
func (st *ST) CDsOf(face ndn.FaceID) []cd.CD {
	i, ok := st.find(face)
	if !ok {
		return nil
	}
	return slices.Clone(st.faces[i].cds)
}

// AllCDs returns the union of subscriptions across faces, sorted.
func (st *ST) AllCDs() []cd.CD {
	out := make([]cd.CD, 0, st.Len())
	for _, e := range st.faces {
		out = append(out, e.cds...)
	}
	slices.SortFunc(out, cd.CD.Compare)
	return slices.Compact(out)
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
		n += len(e.cds)
	}
	return n
}

// String renders the table for debugging.
func (st *ST) String() string {
	var b strings.Builder
	for _, e := range st.faces {
		fmt.Fprintf(&b, "face %d: %v\n", e.id, e.cds)
	}
	return b.String()
}

// PrefixHashes computes the Bloom hash pairs of a CD's prefixes (shortest
// first): the paper's first-hop optimization hashes them once and carries
// them in the packet, so a Bloom ST probes without re-hashing.
//
// Only the BloomST model, the ablation and the benchmark's layer probes use
// it; no router computes it.
func PrefixHashes(c cd.CD) []bloom.HashPair {
	prefixes := c.Prefixes()
	out := make([]bloom.HashPair, len(prefixes))
	for i, p := range prefixes {
		out[i] = bloom.HashString(p.Key())
	}
	return out
}

// FlattenHashes converts pairs to the flat form the wire once carried (two
// uint64 per pair).
//
// Deprecated: no packet carries the vector any more (wire.Packet.CDHashes).
// Only the benchmark's layer probes still call this.
func FlattenHashes(pairs []bloom.HashPair) []uint64 {
	out := make([]uint64, 0, len(pairs)*2)
	for _, p := range pairs {
		out = append(out, p.H1, p.H2)
	}
	return out
}
