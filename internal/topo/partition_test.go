package topo

import (
	"fmt"
	"math/rand"
	"testing"
)

func partitionSizes(assign []int, k int) []int {
	sizes := make([]int, k)
	for _, s := range assign {
		sizes[s]++
	}
	return sizes
}

func TestPartitionCoverageAndBalance(t *testing.T) {
	g, _, _, err := Backbone(PaperBackbone())
	if err != nil {
		t.Fatalf("Backbone: %v", err)
	}
	n := g.NodeCount()
	for _, k := range []int{1, 2, 3, 4, 8, 16} {
		assign := Partition(g, k)
		if len(assign) != n {
			t.Fatalf("k=%d: got %d assignments, want %d", k, len(assign), n)
		}
		for v, s := range assign {
			if s < 0 || s >= k {
				t.Fatalf("k=%d: node %d assigned to shard %d outside [0,%d)", k, v, s, k)
			}
		}
		floor, ceil := n/k, (n+k-1)/k
		for s, size := range partitionSizes(assign, k) {
			if size != floor && size != ceil {
				t.Errorf("k=%d: shard %d has %d nodes, want %d or %d", k, s, size, floor, ceil)
			}
		}
	}
}

// crossLinks counts the links of g whose endpoints land in different shards
// under assign — the quantity Partition minimizes.
func crossLinks(g *Graph, assign []int) int {
	n := 0
	for v := 0; v < g.NodeCount(); v++ {
		for _, nb := range g.Neighbors(NodeID(v)) {
			if NodeID(v) < nb && assign[v] != assign[nb] {
				n++
			}
		}
	}
	return n
}

func TestPartitionBeatsRoundRobin(t *testing.T) {
	g, _, _, err := Backbone(PaperBackbone())
	if err != nil {
		t.Fatalf("Backbone: %v", err)
	}
	for _, k := range []int{2, 4, 8} {
		rr := make([]int, g.NodeCount())
		for v := range rr {
			rr[v] = v % k
		}
		rrCross := crossLinks(g, rr)
		gwCross := crossLinks(g, Partition(g, k))
		if gwCross >= rrCross {
			t.Errorf("k=%d: graph-growing cut %d links, round-robin %d — expected an improvement",
				k, gwCross, rrCross)
		}
	}
}

func TestPartitionDeterministic(t *testing.T) {
	g, _, _, err := Backbone(PaperBackbone())
	if err != nil {
		t.Fatalf("Backbone: %v", err)
	}
	a := Partition(g, 8)
	b := Partition(g, 8)
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("node %d: first run shard %d, second run shard %d", v, a[v], b[v])
		}
	}
}

func TestPartitionDegenerate(t *testing.T) {
	g, _ := Benchmark()
	for _, k := range []int{0, 1} {
		for v, s := range Partition(g, k) {
			if s != 0 {
				t.Fatalf("k=%d: node %d on shard %d, want 0", k, v, s)
			}
		}
	}
	// More shards than nodes: every node still assigned, each shard ≤ 1 node.
	n := g.NodeCount()
	assign := Partition(g, n+3)
	for s, size := range partitionSizes(assign, n+3) {
		if size > 1 {
			t.Fatalf("k=%d: shard %d has %d nodes, want ≤ 1", n+3, s, size)
		}
	}
	empty := NewGraph()
	if got := Partition(empty, 4); len(got) != 0 {
		t.Fatalf("empty graph: got %d assignments", len(got))
	}
}

// randomGraph builds a connected seeded graph: a random spanning tree plus
// extra random links, mirroring how the backbone builder works.
func randomGraph(seed int64, n, extra int) *Graph {
	rnd := rand.New(rand.NewSource(seed))
	g := NewGraph()
	for i := 0; i < n; i++ {
		g.AddNode(fmt.Sprintf("n%d", i))
	}
	for i := 1; i < n; i++ {
		_ = g.AddLink(NodeID(i), NodeID(rnd.Intn(i)), 1+rnd.Float64()*9)
	}
	for i := 0; i < extra; i++ {
		a, b := NodeID(rnd.Intn(n)), NodeID(rnd.Intn(n))
		if a != b {
			_ = g.AddLink(a, b, 1+rnd.Float64()*9) // duplicate links rejected, fine
		}
	}
	return g
}

// FuzzShardAssignment drives the partitioner over random seeded graphs and
// asserts its contract: every node assigned exactly once to a valid shard,
// shard sizes balanced within a factor of 2, and the assignment stable
// across calls.
func FuzzShardAssignment(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(8), uint8(4))
	f.Add(int64(3967), uint8(8), uint8(120), uint8(60))
	f.Add(int64(7), uint8(5), uint8(3), uint8(0))
	f.Add(int64(42), uint8(16), uint8(40), uint8(200))
	f.Fuzz(func(t *testing.T, seed int64, kRaw, nRaw, extraRaw uint8) {
		k := int(kRaw)%16 + 1
		n := int(nRaw)%128 + 1
		g := randomGraph(seed, n, int(extraRaw))
		assign := Partition(g, k)
		if len(assign) != n {
			t.Fatalf("got %d assignments for %d nodes", len(assign), n)
		}
		sizes := make([]int, k)
		for v, s := range assign {
			if s < 0 || s >= k {
				t.Fatalf("node %d on shard %d outside [0,%d)", v, s, k)
			}
			sizes[s]++
		}
		ceil := (n + k - 1) / k
		for s, size := range sizes {
			if size > 2*ceil {
				t.Fatalf("shard %d has %d nodes, over the factor-2 bound %d (n=%d k=%d)",
					s, size, 2*ceil, n, k)
			}
		}
		again := Partition(g, k)
		for v := range assign {
			if assign[v] != again[v] {
				t.Fatalf("node %d moved between calls: %d then %d", v, assign[v], again[v])
			}
		}
		if c := crossLinks(g, assign); c > g.LinkCount() {
			t.Fatalf("cross links %d exceed link count %d", c, g.LinkCount())
		}
	})
}
