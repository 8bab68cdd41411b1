package sim

import (
	"fmt"
	"time"

	"github.com/icn-gaming/gcopss/internal/cd"
	"github.com/icn-gaming/gcopss/internal/copss"
	"github.com/icn-gaming/gcopss/internal/stats"
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

	// Group membership: the union of edge routers of every player that
	// subscribes to any leaf mapped to the group.
	memberEdges := make([][]topo.NodeID, cfg.Groups)
	{
		seen := make([]map[topo.NodeID]struct{}, cfg.Groups)
		for i := range seen {
			seen[i] = make(map[topo.NodeID]struct{})
		}
		for _, a := range env.Game.Map.Areas() {
			leaf := a.LeafCD()
			g := groupOfLeaf(leaf)
			for _, pi := range env.SubscribersOf(leaf) {
				e := env.PlayerEdge[pi]
				if _, ok := seen[g][e]; !ok {
					seen[g][e] = struct{}{}
					memberEdges[g] = append(memberEdges[g], e)
				}
			}
		}
	}

	res := &Result{
		Latency:      stats.NewStream(20000),
		PerUpdateAvg: make([]float32, 0, len(updates)),
		PerUpdateMin: make([]float32, 0, len(updates)),
		PerUpdateMax: make([]float32, 0, len(updates)),
	}

	// Caches: per (group, source edge) tree edge counts; per (leaf, source
	// edge) subscriber delay vectors.
	treeEdges := make(map[planKey]int)
	type subPlan struct {
		players []int
		delays  []float64
	}
	subPlans := make(map[planKey]*subPlan)

	for _, u := range updates {
		nowMs := float64(u.At) / float64(time.Millisecond)
		src := env.PlayerEdge[u.Player]
		g := groupOfLeaf(u.CD)

		tk := planKey{leaf: fmt.Sprintf("g%d", g), root: src}
		edges, ok := treeEdges[tk]
		if !ok {
			tree := env.Paths.MulticastTree(src, memberEdges[g])
			edges = tree.EdgeCount()
			treeEdges[tk] = edges
		}

		sk := planKey{leaf: u.CD.Key(), root: src}
		sp, ok := subPlans[sk]
		if !ok {
			subs := env.SubscribersOf(u.CD)
			sp = &subPlan{players: subs, delays: make([]float64, len(subs))}
			for i, pi := range subs {
				edge := env.PlayerEdge[pi]
				hops := env.Paths.HopCount(src, edge)
				sp.delays[i] = env.Paths.Delay(src, edge) + float64(hops)*cfg.Costs.HopMs +
					cfg.Costs.EdgeFilterMs + cfg.Costs.HostMs
			}
			subPlans[sk] = sp
		}

		pktBytes := float64(u.Size + cfg.Costs.PacketOverhead)
		// Bytes: publisher host link + the whole group tree (over-delivery
		// included) + host links of the actual subscribers only (the edge
		// routers filter the rest).
		res.Bytes += pktBytes * float64(1+edges+len(sp.players))

		var sum, minL, maxL float64
		n := 0
		for i, sub := range sp.players {
			if sub == u.Player {
				continue
			}
			lat := cfg.Costs.HostMs + sp.delays[i]
			res.addLatency(lat)
			res.Deliveries++
			sum += lat
			if n == 0 || lat < minL {
				minL = lat
			}
			if lat > maxL {
				maxL = lat
			}
			n++
		}
		_ = nowMs
		if n > 0 {
			res.PerUpdateAvg = append(res.PerUpdateAvg, float32(sum/float64(n)))
			res.PerUpdateMin = append(res.PerUpdateMin, float32(minL))
			res.PerUpdateMax = append(res.PerUpdateMax, float32(maxL))
		} else {
			res.PerUpdateAvg = append(res.PerUpdateAvg, 0)
			res.PerUpdateMin = append(res.PerUpdateMin, 0)
			res.PerUpdateMax = append(res.PerUpdateMax, 0)
		}
	}
	res.finishLatency()
	return res, nil
}
