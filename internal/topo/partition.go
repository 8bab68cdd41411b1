package topo

import "sort"

// Partition assigns every node of g to one of k shards, minimizing (greedily)
// the number of links that cross shard boundaries while keeping shard sizes
// within one node of each other. The returned slice is indexed by NodeID.
// Nothing in the module runs on shards any more: Partition stays only
// because the frozen repository benchmark times it (bench/sim.go:251,
// topo.partition_ms), and goes once the benchmark stops.
//
// The algorithm is greedy graph growing (GGGP without refinement): each
// shard grows from the lowest-numbered unassigned node, repeatedly absorbing
// the frontier node with the most already-absorbed neighbors (ties broken by
// NodeID), until it reaches its size cap. Caps are recomputed per shard as
// ceil(remaining/remainingShards), so sizes land in {⌊n/k⌋, ⌈n/k⌉} — the
// factor-2 balance the fuzz suite asserts with a whole integer to spare.
// Everything is deterministic: same graph, same k, same assignment.
//
// k <= 1 maps every node to shard 0. k >= NodeCount gives every node its
// own shard, leaving trailing shards empty.
func Partition(g *Graph, k int) []int {
	n := g.NodeCount()
	assign := make([]int, n)
	if k <= 1 || n == 0 {
		return assign
	}
	for i := range assign {
		assign[i] = -1
	}
	// gain[v] = number of v's neighbors already in the growing shard.
	gain := make([]int, n)
	remaining := n
	next := NodeID(0) // lowest-numbered unassigned node, advanced monotonically
	for shard := 0; shard < k && remaining > 0; shard++ {
		quota := (remaining + (k - shard) - 1) / (k - shard)
		for next < NodeID(n) && assign[next] >= 0 {
			next++
		}
		seed := next
		assign[seed] = shard
		remaining--
		size := 1
		// frontier holds unassigned neighbors of the shard, sorted by
		// (gain desc, id asc) on each pick; small graphs, O(cap·frontier).
		frontier := []NodeID{}
		inFrontier := make(map[NodeID]bool, 8)
		absorb := func(v NodeID) {
			for _, nb := range g.Neighbors(v) {
				if assign[nb] >= 0 {
					continue
				}
				gain[nb]++
				if !inFrontier[nb] {
					inFrontier[nb] = true
					frontier = append(frontier, nb)
				}
			}
		}
		absorb(seed)
		for size < quota && len(frontier) > 0 {
			sort.Slice(frontier, func(a, b int) bool {
				if gain[frontier[a]] != gain[frontier[b]] {
					return gain[frontier[a]] > gain[frontier[b]]
				}
				return frontier[a] < frontier[b]
			})
			v := frontier[0]
			frontier = frontier[1:]
			delete(inFrontier, v)
			assign[v] = shard
			gain[v] = 0
			remaining--
			size++
			absorb(v)
		}
		// Disconnected graph or exhausted component: restart growth from
		// the next unassigned node inside the same shard.
		for size < quota && remaining > 0 {
			for next < NodeID(n) && assign[next] >= 0 {
				next++
			}
			assign[next] = shard
			remaining--
			size++
			absorb(next)
		}
		for _, v := range frontier {
			gain[v] = 0
			delete(inFrontier, v)
		}
	}
	// k > n leaves trailing shards empty but every node assigned; if the
	// cap arithmetic ever left stragglers it would be a bug — sweep them
	// into the last shard rather than return -1 assignments.
	for i := range assign {
		if assign[i] < 0 {
			assign[i] = k - 1
		}
	}
	return assign
}
