package copss

import (
	"fmt"
	"slices"
	"strings"

	"github.com/icn-gaming/gcopss/internal/cd"
)

// RPInfo describes one Rendezvous Point: its routable name (an NDN prefix
// such as "/rp1") and the prefix-free set of CD prefixes it serves.
type RPInfo struct {
	Name     string
	Prefixes []cd.CD
	Seq      uint64 // announcement sequence number; higher replaces lower
}

// RPTable is each router's view of the RP population: which RP serves which
// CD prefixes. The served prefixes must be prefix-free across all RPs (the
// paper's invariant), which Set enforces.
//
// The table is distributed: RPs announce themselves with FIBAdd packets
// carrying their name and served prefixes; routers apply announcements in
// sequence-number order.
type RPTable struct {
	rps []*RPInfo // sorted by Name; an entry is replaced, never changed
}

// NewRPTable returns an empty table.
func NewRPTable() *RPTable { return &RPTable{} }

// find returns name's position in t.rps, or where it would be inserted.
func (t *RPTable) find(name string) (int, bool) {
	return slices.BinarySearchFunc(t.rps, name, func(info *RPInfo, n string) int {
		return strings.Compare(info.Name, n)
	})
}

// Set installs or replaces an RP's served prefixes. It fails if the result
// would violate the global prefix-free invariant, unless the conflicting
// prefixes are simultaneously removed from the other RP by the same
// announcement sequence (handoffs call Set for both RPs in order: shrink the
// old RP first, then grow the new one).
func (t *RPTable) Set(name string, prefixes []cd.CD, seq uint64) error {
	if name == "" {
		return fmt.Errorf("copss: RP with empty name")
	}
	i, ok := t.find(name)
	if ok && t.rps[i].Seq >= seq {
		return fmt.Errorf("copss: stale RP announcement for %s: seq %d <= %d", name, seq, t.rps[i].Seq)
	}
	var all []cd.CD
	all = append(all, prefixes...)
	for _, info := range t.rps {
		if info.Name != name {
			all = append(all, info.Prefixes...)
		}
	}
	if err := cd.PrefixFree(all); err != nil {
		return fmt.Errorf("copss: RP %s announcement: %w", name, err)
	}
	info := &RPInfo{Name: name, Prefixes: append([]cd.CD(nil), prefixes...), Seq: seq}
	if ok {
		t.rps[i] = info
	} else {
		t.rps = slices.Insert(t.rps, i, info)
	}
	return nil
}

// Remove drops an RP entirely.
func (t *RPTable) Remove(name string) bool {
	i, ok := t.find(name)
	if ok {
		t.rps = slices.Delete(t.rps, i, i+1)
	}
	return ok
}

// Get returns the info for a named RP.
func (t *RPTable) Get(name string) (RPInfo, bool) {
	i, ok := t.find(name)
	if !ok {
		return RPInfo{}, false
	}
	return *t.rps[i], true
}

// CoverOf returns the RP name and served prefix covering CD c: the unique RP
// whose served prefix is a prefix of c. Publications to c are sent there.
func (t *RPTable) CoverOf(c cd.CD) (rpName string, prefix cd.CD, ok bool) {
	for _, info := range t.rps {
		if p, found := cd.Cover(info.Prefixes, c); found {
			return info.Name, p, true
		}
	}
	return "", cd.Root(), false
}

// RPs returns the table's RPs sorted by name, without copying: the slice and
// the entries are the table's own and read-only, and stay valid until the
// next Set or Remove. Walking it with Serves is how a router finds the RPs a
// subscription must reach, allocation-free (TestResubscribeAllocFree).
func (t *RPTable) RPs() []*RPInfo { return t.rps }

// Serves reports whether any of the RP's served prefixes intersects the
// subtree of sub, so that a subscription to sub must be routed toward it.
func (info *RPInfo) Serves(sub cd.CD) bool {
	for _, p := range info.Prefixes {
		if p.Intersects(sub) {
			return true
		}
	}
	return false
}

// Names returns all RP names, sorted.
func (t *RPTable) Names() []string {
	out := make([]string, 0, len(t.rps))
	for _, info := range t.rps {
		out = append(out, info.Name)
	}
	return out
}

// Len returns the number of RPs.
func (t *RPTable) Len() int { return len(t.rps) }

// Clone returns an independent copy of the table.
func (t *RPTable) Clone() *RPTable {
	out := &RPTable{rps: make([]*RPInfo, len(t.rps))}
	for i, info := range t.rps {
		cp := *info
		cp.Prefixes = append([]cd.CD(nil), info.Prefixes...)
		out.rps[i] = &cp
	}
	return out
}

// PartitionPrefixes builds the canonical prefix-free serving sets for a
// hierarchical map with the given region identifiers: one prefix per region
// ("/1", "/2", …) plus the world airspace leaf ("/"). Distributing these
// sets over n RPs round-robin (sim.DefaultRPPlacement) yields the paper's
// initial RP configurations (e.g. "3 RPs" in Table I).
func PartitionPrefixes(regions []string) []cd.CD {
	out := make([]cd.CD, 0, len(regions)+1)
	out = append(out, cd.MustNew("")) // the world airspace leaf "/"
	for _, r := range regions {
		out = append(out, cd.MustNew(r))
	}
	return out
}
