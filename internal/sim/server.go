package sim

import (
	"fmt"
	"time"

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
	queues := make([]station, len(cfg.Servers))
	pl := newPlanner(env, cfg.Costs, 0)
	res := newResult(len(updates))
	for _, u := range updates {
		nowMs := float64(u.At) / float64(time.Millisecond)
		srvIdx := u.Player % len(cfg.Servers)
		node := cfg.Servers[srvIdx]

		upDelay, upHops := pl.upstream(u.Player, node)
		plan := pl.plan(u.CD, node)
		// Service time grows with the recipient fan-out: the server must
		// serialize one unicast copy per recipient.
		service := cfg.Costs.ServerServiceMs + cfg.Costs.ServerPerRecvMs*float64(len(plan.players))
		depart, backlog := queues[srvIdx].serve(nowMs+upDelay, service)
		res.MaxQueueLen = max(res.MaxQueueLen, int(backlog/cfg.Costs.ServerServiceMs))

		// Bytes: one unicast copy up and one down to each recipient. Byte
		// counts are whole numbers far below 2^53, so summing the links
		// before multiplying is exact.
		links := res.deliver(plan, u.Player, depart, nowMs)
		res.Bytes += float64(u.Size+cfg.Costs.PacketOverhead) * float64(upHops+links)
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
