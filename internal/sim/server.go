package sim

import (
	"fmt"
	"time"

	"github.com/icn-gaming/gcopss/internal/stats"
	"github.com/icn-gaming/gcopss/internal/topo"
	"github.com/icn-gaming/gcopss/internal/trace"
)

// ServerConfig parameterizes the IP client/server baseline: players send
// updates to their assigned server; the server resolves recipients (location
// translation, collision detection — the 6 ms base cost) and unicasts a copy
// to each.
type ServerConfig struct {
	Servers []topo.NodeID
	Costs   Costs
}

// Name implements Runner.
func (cfg ServerConfig) Name() string { return "ipserver" }

// Validate implements Runner: the server set must be non-empty and the base
// service time positive (it divides queue-depth math).
func (cfg ServerConfig) Validate() error {
	if len(cfg.Servers) == 0 {
		return fmt.Errorf("no servers configured")
	}
	if cfg.Costs.ServerServiceMs <= 0 {
		return fmt.Errorf("server service time %v ms must be positive", cfg.Costs.ServerServiceMs)
	}
	return nil
}

// Run implements Runner: replay updates through the server baseline.
func (cfg ServerConfig) Run(env *Env, updates []trace.Update) (*Result, error) {
	if err := precheck(env, cfg); err != nil {
		return nil, err
	}
	lastDepart := make([]float64, len(cfg.Servers))
	pl := newPlanner(env, cfg.Costs)
	res := &Result{
		Latency:      stats.NewStream(20000),
		PerUpdateAvg: make([]float32, 0, len(updates)),
		PerUpdateMin: make([]float32, 0, len(updates)),
		PerUpdateMax: make([]float32, 0, len(updates)),
	}

	// Per-(server, leaf) unicast plans: recipient delays from the server
	// node and total unicast hop cost. The planner's multicast plan gives us
	// per-recipient delays; unicast byte cost is recomputed here.
	type uniPlan struct {
		players []int
		delays  []float64
		hops    []int
	}
	plans := make(map[planKey]*uniPlan)
	planFor := func(u trace.Update, node topo.NodeID) *uniPlan {
		key := planKey{leaf: u.CD.Key(), root: node}
		if p, ok := plans[key]; ok {
			return p
		}
		subs := env.SubscribersOf(u.CD)
		p := &uniPlan{players: subs, delays: make([]float64, len(subs)), hops: make([]int, len(subs))}
		for i, pi := range subs {
			edge := env.PlayerEdge[pi]
			h := env.Paths.HopCount(node, edge)
			p.delays[i] = env.Paths.Delay(node, edge) + float64(h)*cfg.Costs.HopMs + cfg.Costs.HostMs
			p.hops[i] = h + 1 // plus the host link
		}
		plans[key] = p
		return p
	}

	for _, u := range updates {
		nowMs := float64(u.At) / float64(time.Millisecond)
		srvIdx := u.Player % len(cfg.Servers)
		node := cfg.Servers[srvIdx]

		upDelay, upHops := pl.upstream(u.Player, node)
		arrive := nowMs + upDelay
		if arrive < lastDepart[srvIdx] {
			if q := int((lastDepart[srvIdx] - arrive) / cfg.Costs.ServerServiceMs); q > res.MaxQueueLen {
				res.MaxQueueLen = q
			}
		}
		plan := planFor(u, node)

		// Service time grows with the recipient fan-out: the server must
		// serialize one unicast copy per recipient.
		service := cfg.Costs.ServerServiceMs + cfg.Costs.ServerPerRecvMs*float64(len(plan.players))
		depart := arrive
		if lastDepart[srvIdx] > depart {
			depart = lastDepart[srvIdx]
		}
		depart += service
		lastDepart[srvIdx] = depart

		pktBytes := float64(u.Size + cfg.Costs.PacketOverhead)
		res.Bytes += pktBytes * float64(upHops)

		var sum, minL, maxL float64
		n := 0
		for i, sub := range plan.players {
			if sub == u.Player {
				continue
			}
			lat := depart + plan.delays[i] - nowMs
			res.addLatency(lat)
			res.Deliveries++
			res.Bytes += pktBytes * float64(plan.hops[i])
			sum += lat
			if n == 0 || lat < minL {
				minL = lat
			}
			if lat > maxL {
				maxL = lat
			}
			n++
		}
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
	res.FinalRPs = len(cfg.Servers)
	res.finishLatency()
	return res, nil
}

// DefaultServerPlacement puts n servers on the first n core routers, the
// same nodes the RPs use, for a like-for-like comparison.
func DefaultServerPlacement(env *Env, n int) []topo.NodeID {
	out := make([]topo.NodeID, n)
	for i := range out {
		out[i] = env.Cores[i%len(env.Cores)]
	}
	return out
}
