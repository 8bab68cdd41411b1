// Package gamemap models the hierarchical game world of G-COPSS: a
// multi-layer map partition (world → regions → zones, arbitrary depth),
// the visibility rules that derive publish/subscribe CD sets from a player's
// position, the six movement types of the paper's Table III, and the object
// model with the version-size decay formula used by snapshot brokers.
package gamemap

import (
	"fmt"
	"sort"

	"github.com/icn-gaming/gcopss/internal/cd"
)

// Area is one node of the hierarchical map. Leaf areas are ground zones;
// internal areas also own an "airspace leaf" where flying players live.
type Area struct {
	node     cd.CD
	parent   *Area
	children []*Area
}

// CD returns the area's node descriptor ("" for the world, "/1" for a
// region, "/1/2" for a zone).
func (a *Area) CD() cd.CD { return a.node }

// IsLeaf reports whether the area has no sub-areas (a ground zone).
func (a *Area) IsLeaf() bool { return len(a.children) == 0 }

// Parent returns the enclosing area, or nil for the world.
func (a *Area) Parent() *Area { return a.parent }

// Children returns the sub-areas.
func (a *Area) Children() []*Area { return a.children }

// LeafCD returns the leaf descriptor representing presence in this area: the
// node CD itself for ground zones, the airspace leaf for internal areas
// ("we create a '/' for every non-leaf CD in the hierarchy").
func (a *Area) LeafCD() cd.CD {
	if a.IsLeaf() {
		return a.node
	}
	return a.node.MustAirspace()
}

// PublishCD is the CD a player located in this area publishes updates to.
// It equals LeafCD: a soldier in zone /1/2 publishes to /1/2; a plane over
// region 1 publishes to /1/; the satellite publishes to /.
func (a *Area) PublishCD() cd.CD { return a.LeafCD() }

// SubscriptionCDs returns the CDs a player located in this area subscribes
// to: the area itself (aggregated, covering everything at or below it) plus
// the airspace leaves of all proper ancestors, so that "players are able to
// see all the updates below and vice versa".
//
//	zone /1/2   → {/1/2, /1/, /}
//	region /1   → {/1, /}
//	world       → {(root)}
func (a *Area) SubscriptionCDs() []cd.CD {
	out := []cd.CD{a.node}
	for p := a.parent; p != nil; p = p.parent {
		out = append(out, p.node.MustAirspace())
	}
	return out
}

// VisibleLeaves returns the leaf CDs whose contents a player in this area
// can see: every leaf in the subtree (including airspace leaves of internal
// descendants and of the area itself) plus the airspace leaves of all proper
// ancestors.
func (a *Area) VisibleLeaves() []cd.CD {
	var out []cd.CD
	var walk func(x *Area)
	walk = func(x *Area) {
		out = append(out, x.LeafCD())
		for _, ch := range x.children {
			walk(ch)
		}
	}
	walk(a)
	for p := a.parent; p != nil; p = p.parent {
		out = append(out, p.node.MustAirspace())
	}
	cd.Sort(out)
	return out
}

// Depth returns the number of ancestors (0 for the world).
func (a *Area) Depth() int {
	d := 0
	for p := a.parent; p != nil; p = p.parent {
		d++
	}
	return d
}

// Map is the hierarchical game map.
type Map struct {
	root    *Area
	byCD    map[string]*Area // node CD key → area
	byLeaf  map[string]*Area // leaf CD key → area
	leaves  []cd.CD          // all leaf CDs, sorted
	regions []string         // first-layer component names, in creation order
}

// Root returns the world area.
func (m *Map) Root() *Area { return m.root }

// Area looks up an area by its node CD.
func (m *Map) Area(c cd.CD) (*Area, bool) {
	a, ok := m.byCD[c.Key()]
	return a, ok
}

// Lookup resolves an area path as players and operators type it: an area's
// node CD ("/1/2" a zone, "/1" a region, "" the world) or the leaf CD of its
// airspace ("/1/" region 1, "/" the world).
func (m *Map) Lookup(path string) (*Area, error) {
	c, err := cd.Parse(path)
	if err != nil {
		return nil, fmt.Errorf("gamemap: bad area path: %w", err)
	}
	if a, ok := m.byCD[c.Key()]; ok {
		return a, nil
	}
	if a, ok := m.byLeaf[c.Key()]; ok {
		return a, nil
	}
	return nil, fmt.Errorf("gamemap: no area %q on the map", path)
}

// AreaOfLeaf looks up the area represented by a leaf CD (zone or airspace).
func (m *Map) AreaOfLeaf(c cd.CD) (*Area, bool) {
	a, ok := m.byLeaf[c.Key()]
	return a, ok
}

// Leaves returns all leaf CDs of the logical hierarchy, sorted. For the
// paper's 5×5 map this is 31: 25 zones + 5 region airspaces + 1 world
// airspace.
func (m *Map) Leaves() []cd.CD {
	return append([]cd.CD(nil), m.leaves...)
}

// Areas returns every area (world, regions, zones …) in sorted CD order.
func (m *Map) Areas() []*Area {
	out := make([]*Area, 0, len(m.byCD))
	keys := make([]string, 0, len(m.byCD))
	for k := range m.byCD {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		out = append(out, m.byCD[k])
	}
	return out
}

// RegionNames returns the first-layer component names.
func (m *Map) RegionNames() []string {
	return append([]string(nil), m.regions...)
}

// NewGrid builds a uniform multi-layer map: the world divided into `regions`
// regions, each divided into `zones` zones (components "1".."n" at each
// layer). The paper's evaluation map is NewGrid(5, 5); its microbenchmark
// Fig. 1 example is NewGrid(2, 4).
func NewGrid(regions, zones int) (*Map, error) {
	if regions < 1 || zones < 1 {
		return nil, fmt.Errorf("gamemap: grid %dx%d is degenerate", regions, zones)
	}
	spec := make(map[string]int, regions)
	names := make([]string, 0, regions)
	for r := 1; r <= regions; r++ {
		name := fmt.Sprintf("%d", r)
		names = append(names, name)
		spec[name] = zones
	}
	return NewCustom(names, spec)
}

// NewCustom builds a two-layer map with the named regions, each with the
// given number of zones (zone components "1".."n"). Arbitrary deeper layers
// can be built with AddSubArea afterwards; G-COPSS "allows map designers to
// divide the map into arbitrary layers".
func NewCustom(regionNames []string, zonesPerRegion map[string]int) (*Map, error) {
	m := &Map{
		root:   &Area{node: cd.Root()},
		byCD:   make(map[string]*Area),
		byLeaf: make(map[string]*Area),
	}
	m.byCD[cd.Root().Key()] = m.root
	for _, rn := range regionNames {
		region, err := m.AddSubArea(m.root, rn)
		if err != nil {
			return nil, err
		}
		for z := 1; z <= zonesPerRegion[rn]; z++ {
			if _, err := m.AddSubArea(region, fmt.Sprintf("%d", z)); err != nil {
				return nil, err
			}
		}
		m.regions = append(m.regions, rn)
	}
	m.reindex()
	return m, nil
}

// AddSubArea creates a child area under parent. Callers must invoke Freeze
// (or rely on constructors that do) before using leaf lookups.
func (m *Map) AddSubArea(parent *Area, component string) (*Area, error) {
	node, err := parent.node.Child(component)
	if err != nil {
		return nil, fmt.Errorf("gamemap: add sub-area: %w", err)
	}
	if _, exists := m.byCD[node.Key()]; exists {
		return nil, fmt.Errorf("gamemap: duplicate area %v", node)
	}
	a := &Area{node: node, parent: parent}
	parent.children = append(parent.children, a)
	m.byCD[node.Key()] = a
	return a, nil
}

// Freeze recomputes the leaf indexes after manual AddSubArea calls.
func (m *Map) Freeze() { m.reindex() }

func (m *Map) reindex() {
	m.byLeaf = make(map[string]*Area, len(m.byCD))
	m.leaves = m.leaves[:0]
	for _, a := range m.byCD {
		leaf := a.LeafCD()
		m.byLeaf[leaf.Key()] = a
		m.leaves = append(m.leaves, leaf)
	}
	cd.Sort(m.leaves)
}

// LeafCount returns the number of leaves in the logical hierarchy.
func (m *Map) LeafCount() int { return len(m.leaves) }
