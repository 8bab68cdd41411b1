// Package topo provides the network topologies of the evaluation: the
// 6-router lab testbed of the microbenchmark (Fig. 3b), a synthetic
// Rocketfuel-3967-like backbone for the large-scale trace-driven simulation,
// shortest-path computation, and core-based multicast tree construction with
// edge accounting.
package topo

import (
	"fmt"
	"math"
	"sort"
)

// NodeID indexes a node within a Graph.
type NodeID int

// Graph is an undirected weighted graph; weights are link delays in
// milliseconds. The zero value is empty and ready to use.
type Graph struct {
	names map[string]NodeID
	nodes []string
	adj   []map[NodeID]float64
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{names: make(map[string]NodeID)}
}

// AddNode creates a node (or returns the existing one with that name).
func (g *Graph) AddNode(name string) NodeID {
	if id, ok := g.names[name]; ok {
		return id
	}
	id := NodeID(len(g.nodes))
	g.names[name] = id
	g.nodes = append(g.nodes, name)
	g.adj = append(g.adj, make(map[NodeID]float64))
	return id
}

// AddLink connects two nodes with the given delay (ms). Re-adding replaces
// the delay. Self-links are rejected.
func (g *Graph) AddLink(a, b NodeID, delayMs float64) error {
	if a == b {
		return fmt.Errorf("topo: self link on node %d", a)
	}
	if int(a) >= len(g.nodes) || int(b) >= len(g.nodes) || a < 0 || b < 0 {
		return fmt.Errorf("topo: link %d-%d references unknown node", a, b)
	}
	if delayMs <= 0 {
		return fmt.Errorf("topo: non-positive delay %f", delayMs)
	}
	g.adj[a][b] = delayMs
	g.adj[b][a] = delayMs
	return nil
}

// NodeCount returns the number of nodes.
func (g *Graph) NodeCount() int { return len(g.nodes) }

// LinkCount returns the number of undirected links.
func (g *Graph) LinkCount() int {
	n := 0
	for _, m := range g.adj {
		n += len(m)
	}
	return n / 2
}

// Name returns a node's name.
func (g *Graph) Name(id NodeID) string { return g.nodes[id] }

// Lookup resolves a node by name.
func (g *Graph) Lookup(name string) (NodeID, bool) {
	id, ok := g.names[name]
	return id, ok
}

// Neighbors returns the adjacent nodes, sorted.
func (g *Graph) Neighbors(id NodeID) []NodeID {
	out := make([]NodeID, 0, len(g.adj[id]))
	for n := range g.adj[id] {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// LinkDelay returns the delay of the direct link a-b.
func (g *Graph) LinkDelay(a, b NodeID) (float64, bool) {
	d, ok := g.adj[a][b]
	return d, ok
}

// pqItem is a priority-queue entry for Dijkstra.
type pqItem struct {
	node NodeID
	dist float64
}

// pq is a binary min-heap of pqItems by distance. It is typed rather than a
// container/heap.Interface because that boxes an item on every Push and Pop.
type pq []pqItem

func (q *pq) push(it pqItem) {
	*q = append(*q, it)
	h := *q
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if h[i].dist >= h[parent].dist {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (q *pq) pop() pqItem {
	h := *q
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].dist < h[c].dist {
			c = r
		}
		if h[c].dist >= h[i].dist {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	*q = h[:n]
	return h[n]
}

// Dijkstra computes single-source shortest paths. It returns per-node
// distances (ms; +Inf if unreachable) and predecessors (-1 for src and
// unreachable nodes). Ties are broken toward the lower predecessor ID so
// results are deterministic.
func (g *Graph) Dijkstra(src NodeID) (dist []float64, prev []NodeID) {
	n := len(g.nodes)
	dist = make([]float64, n)
	prev = make([]NodeID, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	dist[src] = 0
	q := pq{{node: src}}
	done := make([]bool, n)
	for len(q) > 0 {
		u := q.pop().node
		if done[u] {
			continue
		}
		done[u] = true
		for v, w := range g.adj[u] {
			alt := dist[u] + w
			if alt < dist[v] || (alt == dist[v] && prev[v] > u) {
				dist[v] = alt
				prev[v] = u
				q.push(pqItem{node: v, dist: alt})
			}
		}
	}
	return dist, prev
}

// Paths precomputes all-pairs shortest paths for delay and next-hop queries.
type Paths struct {
	g    *Graph
	dist [][]float64
	prev [][]NodeID
}

// AllPairs runs Dijkstra from every node.
func (g *Graph) AllPairs() *Paths {
	p := &Paths{
		g:    g,
		dist: make([][]float64, len(g.nodes)),
		prev: make([][]NodeID, len(g.nodes)),
	}
	for i := range g.nodes {
		p.dist[i], p.prev[i] = g.Dijkstra(NodeID(i))
	}
	return p
}

// Delay returns the shortest-path delay a→b in ms.
func (p *Paths) Delay(a, b NodeID) float64 { return p.dist[a][b] }

// Path returns the node sequence of the shortest path a→b (inclusive), or
// nil if unreachable.
func (p *Paths) Path(a, b NodeID) []NodeID {
	if math.IsInf(p.dist[a][b], 1) {
		return nil
	}
	var rev []NodeID
	for at := b; at != -1; at = p.prev[a][at] {
		rev = append(rev, at)
		if at == a {
			break
		}
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	if rev[0] != a {
		return nil
	}
	return rev
}

// HopCount returns the number of links on the shortest path a→b, or -1 if
// unreachable.
func (p *Paths) HopCount(a, b NodeID) int {
	path := p.Path(a, b)
	if path == nil {
		return -1
	}
	return len(path) - 1
}

// NextHop returns the first hop on the shortest path a→b.
func (p *Paths) NextHop(a, b NodeID) (NodeID, bool) {
	path := p.Path(a, b)
	if len(path) < 2 {
		return -1, false
	}
	return path[1], true
}

// Tree is a core-based multicast tree: the union of shortest paths from a
// root to a member set, as formed by COPSS subscription propagation toward
// an RP.
type Tree struct {
	Root    NodeID
	edges   map[[2]NodeID]struct{}
	members map[NodeID]struct{}
	delays  map[NodeID]float64
}

// MulticastTree builds the tree rooted at root spanning members.
func (p *Paths) MulticastTree(root NodeID, members []NodeID) *Tree {
	t := &Tree{
		Root:    root,
		edges:   make(map[[2]NodeID]struct{}),
		members: make(map[NodeID]struct{}, len(members)),
		delays:  make(map[NodeID]float64, len(members)),
	}
	for _, m := range members {
		t.members[m] = struct{}{}
		t.delays[m] = p.dist[root][m]
		path := p.Path(root, m)
		for i := 0; i+1 < len(path); i++ {
			a, b := path[i], path[i+1]
			if a > b {
				a, b = b, a
			}
			t.edges[[2]NodeID{a, b}] = struct{}{}
		}
	}
	return t
}

// EdgeCount returns the number of distinct links in the tree — the factor
// multicast saves over unicast in network-load accounting.
func (t *Tree) EdgeCount() int { return len(t.edges) }

// MemberDelay returns the root→member delay in ms.
func (t *Tree) MemberDelay(m NodeID) (float64, bool) {
	d, ok := t.delays[m]
	return d, ok
}

// Members returns the member set, sorted.
func (t *Tree) Members() []NodeID {
	out := make([]NodeID, 0, len(t.members))
	for m := range t.members {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// UnicastCost returns the total number of link traversals needed to reach
// every member by independent unicast — the IP-server dissemination cost.
func (p *Paths) UnicastCost(src NodeID, members []NodeID) int {
	total := 0
	for _, m := range members {
		total += p.HopCount(src, m)
	}
	return total
}
