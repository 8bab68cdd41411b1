package copss

import (
	"fmt"
	"sort"

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
	rps map[string]*RPInfo
}

// NewRPTable returns an empty table.
func NewRPTable() *RPTable {
	return &RPTable{rps: make(map[string]*RPInfo)}
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
	if cur, ok := t.rps[name]; ok && cur.Seq >= seq {
		return fmt.Errorf("copss: stale RP announcement for %s: seq %d <= %d", name, seq, cur.Seq)
	}
	var all []cd.CD
	all = append(all, prefixes...)
	for n, info := range t.rps {
		if n == name {
			continue
		}
		all = append(all, info.Prefixes...)
	}
	if err := cd.PrefixFree(all); err != nil {
		return fmt.Errorf("copss: RP %s announcement: %w", name, err)
	}
	t.rps[name] = &RPInfo{Name: name, Prefixes: append([]cd.CD(nil), prefixes...), Seq: seq}
	return nil
}

// Remove drops an RP entirely.
func (t *RPTable) Remove(name string) bool {
	if _, ok := t.rps[name]; !ok {
		return false
	}
	delete(t.rps, name)
	return true
}

// Get returns the info for a named RP.
func (t *RPTable) Get(name string) (RPInfo, bool) {
	info, ok := t.rps[name]
	if !ok {
		return RPInfo{}, false
	}
	return *info, true
}

// CoverOf returns the RP name and served prefix covering CD c: the unique RP
// whose served prefix is a prefix of c. Publications to c are sent there.
func (t *RPTable) CoverOf(c cd.CD) (rpName string, prefix cd.CD, ok bool) {
	for name, info := range t.rps {
		if p, found := cd.Cover(info.Prefixes, c); found {
			return name, p, true
		}
	}
	return "", cd.Root(), false
}

// IntersectingRPs returns the names of all RPs whose served prefixes
// intersect the subtree of sub, sorted. A subscription to sub must be routed
// toward each of them.
func (t *RPTable) IntersectingRPs(sub cd.CD) []string {
	var out []string
	for name, info := range t.rps {
		if len(cd.Intersecting(info.Prefixes, sub)) > 0 {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Names returns all RP names, sorted.
func (t *RPTable) Names() []string {
	out := make([]string, 0, len(t.rps))
	for n := range t.rps {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of RPs.
func (t *RPTable) Len() int { return len(t.rps) }

// Clone returns an independent copy of the table.
func (t *RPTable) Clone() *RPTable {
	out := NewRPTable()
	for n, info := range t.rps {
		cp := *info
		cp.Prefixes = append([]cd.CD(nil), info.Prefixes...)
		out.rps[n] = &cp
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
