package sim

import (
	"fmt"

	"github.com/icn-gaming/gcopss/internal/cd"
	"github.com/icn-gaming/gcopss/internal/copss"
	"github.com/icn-gaming/gcopss/internal/topo"
	"github.com/icn-gaming/gcopss/internal/trace"
)

// HybridConfig parameterizes hybrid-G-COPSS (COPSS+IP incremental
// deployment, Section III-D): COPSS edge routers hash high-level CDs onto a
// limited IP multicast address space; intermediate routers forward by IP
// multicast; receiver-side edge routers filter unwanted traffic.
type HybridConfig struct {
	// Groups is the number of IP multicast groups available. High-level CDs
	// (the region prefixes plus the world airspace) are hashed onto them;
	// fewer groups than high-level CDs means more over-delivery.
	Groups int
	Costs  Costs
}

// Name implements Runner.
func (cfg HybridConfig) Name() string { return "hybrid" }

// Validate implements Runner: at least one IP multicast group is required.
func (cfg HybridConfig) Validate() error {
	if cfg.Groups < 1 {
		return fmt.Errorf("needs at least 1 multicast group")
	}
	return nil
}

// Run implements Runner: replay updates through hybrid-G-COPSS. Publications
// travel a source-rooted IP multicast tree spanning every edge router with
// group members — no RP detour and no RP queue, which is why hybrid achieves
// the best update latency — but the group carries a superset of the CD's
// subscribers, so unwanted packets consume extra network load that edge
// routers filter out.
func (cfg HybridConfig) Run(env *Env, updates []trace.Update) (*Result, error) {
	if err := precheck(env, cfg); err != nil {
		return nil, err
	}

	// Map every leaf CD to a group via its high-level (level-1) prefix.
	high := copss.PartitionPrefixes(env.Game.Map.RegionNames()) // world airspace + regions
	groupOfHigh := make(map[string]int, len(high))
	for i, h := range high {
		groupOfHigh[h.Key()] = i % cfg.Groups
	}
	groupOfLeaf := func(leaf cd.CD) int {
		for _, h := range high {
			if leaf.HasPrefix(h) {
				return groupOfHigh[h.Key()]
			}
		}
		return 0
	}

	// Group membership: the edge routers of every player that subscribes to
	// any leaf mapped to the group.
	members := make([][]int, cfg.Groups)
	for _, a := range env.Game.Map.Areas() {
		leaf := a.LeafCD()
		g := groupOfLeaf(leaf)
		members[g] = append(members[g], env.SubscribersOf(leaf)...)
	}
	memberEdges := make([][]topo.NodeID, cfg.Groups)
	for g := range members {
		memberEdges[g] = env.edgesOf(members[g])
	}

	pl := newPlanner(env, cfg.Costs, cfg.Costs.EdgeFilterMs)
	res := newResult(len(updates))
	// Group tree link counts per (group, source edge).
	treeLinks := make(map[[2]int]int)
	for _, u := range updates {
		src := env.PlayerEdge[u.Player]
		g := groupOfLeaf(u.CD)
		edges, ok := treeLinks[[2]int{g, int(src)}]
		if !ok {
			edges = env.Paths.MulticastTree(src, memberEdges[g]).EdgeCount()
			treeLinks[[2]int{g, int(src)}] = edges
		}
		plan := pl.plan(u.CD, src)

		pktBytes := float64(u.Size + cfg.Costs.PacketOverhead)
		// Bytes: publisher host link + the whole group tree (over-delivery
		// included) + host links of the actual subscribers only (the edge
		// routers filter the rest).
		res.Bytes += pktBytes * float64(1+edges+len(plan.players))
		// No RP and no queue: the publisher's host link plus the planned
		// source-edge→subscriber delay, filtering included.
		res.deliver(plan, u.Player, cfg.Costs.HostMs, 0)
	}
	res.finishLatency()
	return res, nil
}
