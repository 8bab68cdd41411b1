package testbed

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/icn-gaming/gcopss/internal/cd"
	"github.com/icn-gaming/gcopss/internal/copss"
	"github.com/icn-gaming/gcopss/internal/core"
	"github.com/icn-gaming/gcopss/internal/event"
	"github.com/icn-gaming/gcopss/internal/faultnet"
	"github.com/icn-gaming/gcopss/internal/gamemap"
	"github.com/icn-gaming/gcopss/internal/ndn"
	"github.com/icn-gaming/gcopss/internal/topo"
	"github.com/icn-gaming/gcopss/internal/trace"
	"github.com/icn-gaming/gcopss/internal/wire"
)

// BackboneSetup is the backbone-scale scenario: a synthetic Rocketfuel-style
// core+edge graph (topo.Backbone), a streaming multi-thousand-player
// workload (trace.Stream) and optional mid-run RP migration and link faults:
// hundreds of routers, with link delays 10–200× the Fig. 3b lab LAN.
type BackboneSetup struct {
	Topo  topo.BackboneConfig
	World *gamemap.World
	// Stream configures the player workload; each run materializes a fresh
	// trace.Stream from it, so one setup drives any number of runs (the
	// determinism suite reruns a single setup). Player i attaches to edge
	// router i mod len(edges) and publishes as a chain of node events
	// (Testbed.ScheduleNode), one pre-bound callback for every update.
	Stream trace.StreamConfig
	Costs  Costs
	// HostDelay is the client↔edge-router link delay.
	HostDelay time.Duration
	Warmup    time.Duration
	Drain     time.Duration

	// Deprecated: has no effect; bench/sim.go:187 still sets it.
	Workers int
	// Deprecated: has no effect; bench/sim.go:187 still sets it.
	Burst bool

	// Migrate hands every region prefix from the primary RP to the backup
	// RP (shortest-path staged handoff) halfway through the publish phase.
	Migrate bool
	// FaultSpec, when non-empty, installs a faultnet injector (seeded with
	// FaultSeed) on every link once publishing starts.
	FaultSpec string
	FaultSeed int64

	// Profile only makes BackboneResult.Sched non-nil: bench/sim.go:209-215
	// fails a run whose Sched is nil.
	Profile bool
}

// PaperBackboneSetup builds the full-scale scenario: the 79-core Rocketfuel
// 3967 surrogate with ~200 edge routers, and `players` hosts publishing
// every 1–5 s for `duration` over the 5×5 paper world.
func PaperBackboneSetup(players int, duration time.Duration, seed int64) (*BackboneSetup, error) {
	return backboneSetup(topo.PaperBackbone(), players, duration, seed)
}

// SmallBackboneSetup shrinks the backbone to 8 core + 16 edge routers — the
// determinism suite's fast cell.
func SmallBackboneSetup(players int, duration time.Duration, seed int64) (*BackboneSetup, error) {
	cfg := topo.BackboneConfig{
		CoreRouters:  8,
		EdgeRouters:  16,
		EdgeDelayMs:  5,
		MinCoreDelay: 1,
		MaxCoreDelay: 20,
		MeanDegree:   3,
		Seed:         seed,
	}
	return backboneSetup(cfg, players, duration, seed)
}

func backboneSetup(cfg topo.BackboneConfig, players int, duration time.Duration, seed int64) (*BackboneSetup, error) {
	m, err := gamemap.NewGrid(5, 5)
	if err != nil {
		return nil, err
	}
	world := gamemap.NewWorld(m)
	if err := world.PopulateObjects(gamemap.PaperObjectCounts(), 0, rand.New(rand.NewSource(31))); err != nil {
		return nil, err
	}
	return &BackboneSetup{
		Topo:  cfg,
		World: world,
		Stream: trace.StreamConfig{
			Players:           players,
			Duration:          duration,
			MinInterval:       time.Second,
			MaxInterval:       5 * time.Second,
			MinUpdateSize:     50,
			MaxUpdateSize:     350,
			MinPlayersPerArea: 4,
			MaxPlayersPerArea: 20,
			Seed:              seed,
		},
		Costs:     PaperCosts(),
		HostDelay: 100 * time.Microsecond,
		Warmup:    time.Second,
		Drain:     5 * time.Second,
	}, nil
}

// BackboneObservables is the comparable determinism fingerprint of a run:
// per-player accumulators merge in player order and the fault-trace hash is
// commutative, so any two runs of the same setup must produce identical
// values.
type BackboneObservables struct {
	// Published and Deliveries count publish events entering the network
	// and multicast copies received by players.
	Published  int
	Deliveries int
	// DeliveryHash folds every player's delivery sequence — (origin, seq,
	// arrival time) in arrival order — into one word, player by player,
	// one multiply-xorshift round per 64-bit word (mixWord).
	DeliveryHash uint64
	// LatencyMeanBits is math.Float64bits of the mean delivery latency in
	// milliseconds (0 when nothing was delivered). Bit-exact comparison;
	// per-player sums merge in player order so float association is fixed.
	LatencyMeanBits uint64
	// RPDeliveriesOld and RPDeliveriesNew are the decapsulate-and-multicast
	// counts at the primary and backup RP — the migration sequence
	// observable (the backup stays 0 unless the handoff ran and settled).
	RPDeliveriesOld uint64
	RPDeliveriesNew uint64
	// Retransmissions sums router ARQ resends (0 on clean runs).
	Retransmissions uint64
	// TraceHash is the faultnet decision-trace hash (0 without faults).
	TraceHash uint64
	// PacketEvents and Bytes aggregate network activity (Bytes is
	// integer-valued, so summation order cannot matter).
	PacketEvents uint64
	Bytes        float64
}

// BackboneResult is one backbone run's outcome.
type BackboneResult struct {
	Obs BackboneObservables
	// RPName and BackupName are the selected RP routers (centroid and
	// runner-up of the core set).
	RPName     string
	BackupName string
	// Sched is non-nil when Profile was set; see event.SchedProfile.
	Sched *event.SchedProfile
}

// mixWord folds one 64-bit word into a delivery fingerprint with one
// multiply and one xor-shift.
func mixWord(h, v uint64) uint64 {
	h = (h ^ v) * 0x9e3779b97f4a7c15
	return h ^ h>>32
}

// mixString folds s into h: its length, then its bytes eight at a time, the
// last word zero-padded.
func mixString(h uint64, s string) uint64 {
	h = mixWord(h, uint64(len(s)))
	for ; len(s) >= 8; s = s[8:] {
		h = mixWord(h, uint64(s[0])|uint64(s[1])<<8|uint64(s[2])<<16|uint64(s[3])<<24|
			uint64(s[4])<<32|uint64(s[5])<<40|uint64(s[6])<<48|uint64(s[7])<<56)
	}
	var tail uint64
	for i := 0; i < len(s); i++ {
		tail |= uint64(s[i]) << (8 * i)
	}
	return mixWord(h, tail)
}

// avalanche is the 64-bit finalizer of MurmurHash3: every input bit reaches
// every output bit.
func avalanche(h uint64) uint64 {
	h = (h ^ h>>33) * 0xff51afd7ed558ccd
	h = (h ^ h>>33) * 0xc4ceb9fe1a85ec53
	return h ^ h>>33
}

// backboneAcc is one player's run state, touched only by the player's node
// events — merged in player order after the run.
type backboneAcc struct {
	pending    trace.Update
	seq        uint64
	published  int
	deliveries int
	hash       uint64
	latSumMs   float64
}

// RunBackbone wires the graph and the players onto a testbed and executes
// the scenario.
func RunBackbone(s *BackboneSetup) (*BackboneResult, error) {
	g, cores, edges, err := topo.Backbone(s.Topo)
	if err != nil {
		return nil, err
	}
	stream, err := trace.NewStream(s.World, s.Stream)
	if err != nil {
		return nil, err
	}
	tb := New()
	rn, err := buildRouters(tb, g, s.Costs, func(a, b topo.NodeID) time.Duration {
		ms, _ := g.LinkDelay(a, b)
		return time.Duration(ms * float64(time.Millisecond))
	})
	if err != nil {
		return nil, err
	}
	routers := rn.routers

	// RP selection: the core with the smallest eccentricity (max shortest-
	// path delay to any node); the runner-up is the migration target.
	ecc := func(id topo.NodeID) float64 {
		worst := 0.0
		for v := range routers {
			if d := rn.paths.Delay(id, topo.NodeID(v)); d > worst {
				worst = d
			}
		}
		return worst
	}
	rp, backup := cores[0], cores[1]
	if ecc(backup) < ecc(rp) {
		rp, backup = backup, rp
	}
	for _, c := range cores[2:] {
		switch e := ecc(c); {
		case e < ecc(rp):
			rp, backup = c, rp
		case e < ecc(backup):
			backup = c
		}
	}
	res := &BackboneResult{RPName: g.Name(rp), BackupName: g.Name(backup)}
	if s.Profile {
		res.Sched = &event.SchedProfile{}
	}

	// Players: attached round-robin over edge routers, publishing their
	// stream as a node event chain.
	players := stream.Players()
	accs := make([]backboneAcc, len(players))
	names := make([]string, len(players)) // built once: publish runs per update
	for pi := range players {
		edge := edges[pi%len(edges)]
		name := clientName(pi)
		names[pi] = name
		acc := &accs[pi]
		tb.AddHost(name, func(now time.Time, pkt *wire.Packet) {
			if pkt.Type == wire.TypeMulticast && pkt.Origin != name && pkt.Origin != core.FlushOrigin {
				acc.deliveries++
				acc.latSumMs += float64(now.UnixNano()-pkt.SentAt) / 1e6
				acc.hash = mixWord(mixWord(mixString(acc.hash, pkt.Origin), pkt.Seq), uint64(now.UnixNano()))
			}
		}, func(*wire.Packet) time.Duration { return s.Costs.HostProc })
		if _, err := rn.attachClient(rn.names[edge], name, core.FaceClient, s.HostDelay); err != nil {
			return nil, err
		}
	}
	// Queue reserve: PaperBackboneSetup(2000, 5 s) peaks at 33 233–33 384
	// pending events over seeds 1–3, nearly all router copies queued behind
	// the overloaded RP; 18 per player leaves 8 % headroom.
	tb.sched.Preallocate(18 * len(players))

	// RP bootstrap at the centroid.
	t0 := time.Unix(0, 0)
	regions := s.World.Map.RegionNames()
	info := copss.RPInfo{Name: "/rpA", Prefixes: copss.PartitionPrefixes(regions), Seq: 1}
	var ann ndn.SliceSink
	if err := routers[rp].BecomeRPAt(t0, info, &ann); err != nil {
		return nil, err
	}
	tb.Schedule(t0.Add(time.Millisecond), func(now time.Time) {
		tb.Emit(now, res.RPName, ann.Actions)
	})

	// Subscriptions at half warmup (one-time global events).
	subAt := t0.Add(s.Warmup / 2)
	for pi, p := range players {
		pi := pi
		area, ok := s.World.Map.Area(p.Area)
		if !ok {
			return nil, fmt.Errorf("testbed: player %d in unknown area %v", pi, p.Area)
		}
		cds := area.SubscriptionCDs()
		tb.Schedule(subAt, func(now time.Time) {
			tb.Emit(now, names[pi], []ndn.Action{{Face: 0, Packet: &wire.Packet{
				Type: wire.TypeSubscribe,
				CDs:  cds,
			}}})
		})
	}

	// Publish chains: each player's updates run as node events, pulling the
	// next update from the stream (whose per-player PRNG makes the sequence
	// independent of cross-player interleaving).
	start := t0.Add(s.Warmup)
	var publish event.CallHandler
	publish = func(now time.Time, pl event.Payload) {
		pi := int(pl.Int)
		acc := &accs[pi]
		u := acc.pending
		acc.seq++
		acc.published++
		tb.Emit(now, names[pi], []ndn.Action{{Face: 0, Packet: &wire.Packet{
			Type:    wire.TypeMulticast,
			CDs:     []cd.CD{u.CD},
			Origin:  names[pi],
			Seq:     acc.seq,
			Payload: make([]byte, u.Size),
			SentAt:  now.UnixNano(),
		}}})
		next, ok := stream.Next(pi)
		if !ok {
			return
		}
		acc.pending = next
		if err := tb.ScheduleNode(start.Add(next.At), names[pi], publish, pl); err != nil {
			panic(err) // node registered above; unreachable
		}
	}
	for pi := range players {
		u, ok := stream.Next(pi)
		if !ok {
			continue
		}
		accs[pi].pending = u
		if err := tb.ScheduleNode(start.Add(u.At), names[pi], publish, event.Payload{Int: int64(pi)}); err != nil {
			return nil, err
		}
	}

	// Faults switch on when publishing starts: the control-plane bootstrap
	// stays clean, the data phase runs the gauntlet.
	if s.FaultSpec != "" {
		spec, err := faultnet.ParseSpec(s.FaultSpec)
		if err != nil {
			return nil, err
		}
		in := faultnet.New(spec, s.FaultSeed)
		in.SetEpoch(t0)
		tb.Schedule(start, func(time.Time) { tb.SetFaults(in) })
		defer func() { res.Obs.TraceHash = in.TraceHash() }()
	}

	// ARQ ticks keep reliable control traffic (RP announcements, handoff
	// stages) converging under loss; only needed when something can be lost
	// or a migration is staged.
	if s.FaultSpec != "" || s.Migrate {
		tb.Every(t0.Add(10*time.Millisecond), 10*time.Millisecond, func(now time.Time) {
			for id, r := range routers {
				tb.EmitTo(now, rn.names[id], func(sink ndn.ActionSink) { r.TickTo(now, sink) })
			}
		})
	}

	// Optional staged handoff of every region halfway through the publish
	// phase, along the shortest RP→backup path.
	if s.Migrate {
		path := rn.handoffPath(rp, backup)
		if len(path) < 2 {
			return nil, fmt.Errorf("testbed: no path from RP %s to backup %s", res.RPName, res.BackupName)
		}
		move := make([]cd.CD, 0, len(regions))
		for _, r := range regions {
			move = append(move, cd.MustNew(r))
		}
		tb.Schedule(start.Add(s.Stream.Duration/2), func(now time.Time) {
			acts, err := core.PrepareHandoff(now, "/rpA", "/rpB", move, 2, path)
			if err != nil {
				return // surfaces as RPDeliveriesNew == 0
			}
			tb.Emit(now, res.BackupName, acts.FromNew)
			tb.Emit(now, res.RPName, acts.FromOld)
		})
	}

	deadline := start.Add(s.Stream.Duration + s.Drain)
	if err := tb.Run(deadline, 0); err != nil {
		return nil, err
	}

	var latSum float64
	for i := range accs {
		a := &accs[i]
		res.Obs.Published += a.published
		res.Obs.Deliveries += a.deliveries
		res.Obs.DeliveryHash = mixWord(res.Obs.DeliveryHash, a.hash)
		latSum += a.latSumMs
	}
	res.Obs.DeliveryHash = avalanche(res.Obs.DeliveryHash)
	if res.Obs.Deliveries > 0 {
		res.Obs.LatencyMeanBits = math.Float64bits(latSum / float64(res.Obs.Deliveries))
	}
	res.Obs.RPDeliveriesOld = routers[rp].Stats().RPDeliveries
	res.Obs.RPDeliveriesNew = routers[backup].Stats().RPDeliveries
	for _, r := range routers {
		res.Obs.Retransmissions += r.Stats().Retransmissions
	}
	res.Obs.PacketEvents, res.Obs.Bytes = tb.Stats()
	return res, nil
}
