package sim

import (
	"fmt"
	"time"

	"github.com/icn-gaming/gcopss/internal/cd"
	"github.com/icn-gaming/gcopss/internal/gamemap"
	"github.com/icn-gaming/gcopss/internal/stats"
	"github.com/icn-gaming/gcopss/internal/topo"
)

// SnapshotMode selects the snapshot-dissemination strategy of Section IV-A.
type SnapshotMode int

// Snapshot modes. Enum starts at 1 so the zero value is invalid.
const (
	// SnapshotQR is the NDN query-response approach: the mover pipelines
	// Interests for each changed object to the responsible broker.
	SnapshotQR SnapshotMode = iota + 1
	// SnapshotCyclic is the cyclic-multicast approach: the broker multicasts
	// the area snapshot in a loop while at least one mover is subscribed.
	SnapshotCyclic
)

// String implements fmt.Stringer.
func (m SnapshotMode) String() string {
	switch m {
	case SnapshotQR:
		return "query-response"
	case SnapshotCyclic:
		return "cyclic-multicast"
	default:
		return fmt.Sprintf("SnapshotMode(%d)", int(m))
	}
}

// SnapshotConfig parameterizes the movement experiment.
type SnapshotConfig struct {
	Mode SnapshotMode

	// Brokers are the nodes hosting snapshot brokers; leaves are assigned
	// round-robin. The paper uses 3.
	Brokers []topo.NodeID

	// PipelineWindow is the QR in-flight Interest limit (5 or 15 in
	// Table III).
	PipelineWindow int

	// PerObjectServiceMs is the broker's per-object processing cost for QR
	// responses and for each multicast transmission slot.
	PerObjectServiceMs float64

	// TxPerByteMs converts object bytes into serialization time at the
	// broker (it bounds the cyclic-multicast cycle length).
	TxPerByteMs float64

	// InterestBytes is the size of one QR Interest packet.
	InterestBytes int

	Costs Costs
}

// PaperSnapshotConfig returns the Table III parameters with the given mode
// and pipeline window, placing 3 brokers on core routers.
func PaperSnapshotConfig(env *Env, mode SnapshotMode, window int) SnapshotConfig {
	return SnapshotConfig{
		Mode:               mode,
		Brokers:            []topo.NodeID{env.Cores[0], env.Cores[len(env.Cores)/3], env.Cores[2*len(env.Cores)/3]},
		PipelineWindow:     window,
		PerObjectServiceMs: 0.5,
		TxPerByteMs:        0.001,
		InterestBytes:      50,
		Costs:              PaperCosts(),
	}
}

// MovementResult aggregates the Table III experiment.
type MovementResult struct {
	// PerType holds convergence-time samples (ms) per movement category.
	PerType map[gamemap.MoveType]*stats.Sample
	// Total aggregates all movements with a snapshot download.
	Total *stats.Sample
	// Counts tallies movements per category (including zero-download ones).
	Counts map[gamemap.MoveType]int
	// Bytes is the aggregate network traffic of snapshot dissemination.
	Bytes float64
	// ObjectsSent counts objects transmitted by brokers.
	ObjectsSent uint64
}

// RunMovement replays the full trace — updates evolve object versions and
// sizes per Eq. 1, moves trigger snapshot downloads — and measures the
// convergence time of every movement, per category.
func RunMovement(env *Env, cfg SnapshotConfig) (*MovementResult, error) {
	if len(cfg.Brokers) == 0 {
		return nil, fmt.Errorf("sim: no brokers configured")
	}
	if cfg.Mode != SnapshotQR && cfg.Mode != SnapshotCyclic {
		return nil, fmt.Errorf("sim: invalid snapshot mode %v", cfg.Mode)
	}
	if cfg.Mode == SnapshotQR && cfg.PipelineWindow < 1 {
		return nil, fmt.Errorf("sim: QR needs a pipeline window ≥ 1")
	}

	tr := env.Trace
	world := env.Game

	// Broker assignment: leaves round-robin over brokers.
	leaves := world.Map.Leaves()
	brokerOfLeaf := make(map[string]topo.NodeID, len(leaves))
	for i, leaf := range leaves {
		brokerOfLeaf[leaf.Key()] = cfg.Brokers[i%len(cfg.Brokers)]
	}

	// Object index by ID for update application.
	objByID := make(map[string]*gamemap.Object)
	for _, o := range world.Objects() {
		objByID[o.ID] = o
	}

	res := &MovementResult{
		PerType: make(map[gamemap.MoveType]*stats.Sample, 6),
		Total:   &stats.Sample{},
		Counts:  make(map[gamemap.MoveType]int, 6),
	}
	for _, mt := range gamemap.MoveTypes() {
		res.PerType[mt] = &stats.Sample{}
	}

	pl := newPlanner(env, cfg.Costs, 0)
	// Broker queues (QR) / session ends (cyclic), per broker node and leaf.
	queues := make(map[topo.NodeID]*station, len(cfg.Brokers))
	for _, b := range cfg.Brokers {
		queues[b] = &station{}
	}
	sessionEnd := make(map[string]float64, len(leaves))

	// Merge-replay updates and moves in time order.
	ui, mi := 0, 0
	updates, moves := tr.Updates, tr.Moves
	for ui < len(updates) || mi < len(moves) {
		if mi >= len(moves) || (ui < len(updates) && updates[ui].At <= moves[mi].At) {
			u := updates[ui]
			ui++
			if o, ok := objByID[u.Object]; ok {
				o.ApplyUpdate(float64(u.Size))
			}
			continue
		}
		mv := moves[mi]
		mi++
		from, ok := world.Map.Area(mv.From)
		if !ok {
			return nil, fmt.Errorf("sim: move from unknown area %v", mv.From)
		}
		to, ok := world.Map.Area(mv.To)
		if !ok {
			return nil, fmt.Errorf("sim: move to unknown area %v", mv.To)
		}
		mt, err := gamemap.ClassifyMove(from, to)
		if err != nil {
			continue // co-located moves are no-ops
		}
		res.Counts[mt]++
		snaps := gamemap.SnapshotCDs(from, to)
		if len(snaps) == 0 {
			res.PerType[mt].Add(0)
			continue
		}
		nowMs := float64(mv.At) / float64(time.Millisecond)

		// Fetch each leaf's snapshot from its broker; leaves proceed in
		// parallel, the move converges when the slowest finishes.
		var worst float64
		for _, leaf := range snaps {
			broker := brokerOfLeaf[leaf.Key()]
			var objs []*gamemap.Object
			var bytes float64
			for _, o := range world.ObjectsAt(leaf) {
				if o.Version > 0 {
					objs = append(objs, o)
					bytes += o.Size
				}
			}
			oneWay, links := pl.upstream(mv.Player, broker)
			var conv float64
			switch cfg.Mode {
			case SnapshotQR:
				conv = qrConvergence(cfg, nowMs, oneWay, links, queues[broker], objs, res)
			case SnapshotCyclic:
				conv = cyclicConvergence(cfg, nowMs, oneWay, links, leaf, objs, bytes, sessionEnd, res)
			}
			if conv > worst {
				worst = conv
			}
		}
		res.PerType[mt].Add(worst)
		res.Total.Add(worst)
	}
	return res, nil
}

// qrConvergence models the pipelined query-response download of one leaf's
// snapshot by a mover oneWay ms and links links from the broker: completion
// is bounded both by the client's window (one RTT per window of objects)
// and by the broker's FIFO service queue, which is what makes the broker
// "the bottleneck in a QR based solution, as the number of players moving
// increases".
func qrConvergence(cfg SnapshotConfig, nowMs, oneWay float64, links int, broker *station,
	objs []*gamemap.Object, res *MovementResult) float64 {
	rtt := 2 * oneWay
	n := len(objs)
	if n == 0 {
		return rtt // one probe confirms there is nothing to fetch
	}

	// Broker-side FIFO: all n requests queue behind other movers' requests.
	serviceTotal := 0.0
	for _, o := range objs {
		serviceTotal += cfg.PerObjectServiceMs + o.Size*cfg.TxPerByteMs
	}
	depart, _ := broker.serve(nowMs+oneWay, serviceTotal)
	brokerBound := depart + oneWay - nowMs

	// Client-side window: ceil(n/W) round trips.
	rounds := (n + cfg.PipelineWindow - 1) / cfg.PipelineWindow
	windowBound := float64(rounds) * rtt

	// Byte accounting: interests up, objects down, all unicast.
	pathLinks := float64(links)
	res.Bytes += float64(n*cfg.InterestBytes) * pathLinks
	for _, o := range objs {
		res.Bytes += (o.Size + float64(cfg.Costs.PacketOverhead)) * pathLinks
	}
	res.ObjectsSent += uint64(n)

	if brokerBound > windowBound {
		return brokerBound
	}
	return windowBound
}

// cyclicConvergence models the cyclic-multicast download: the mover joins
// the leaf's multicast session (starting it if idle) and needs one full
// cycle to collect every changed object. Sessions are shared: simultaneous
// movers ride the same cycle, so the broker never becomes a per-player
// bottleneck — at the cost of transmissions wasted between the last useful
// packet and the unsubscribe taking effect.
func cyclicConvergence(cfg SnapshotConfig, nowMs, oneWay float64, links int, leaf cd.CD,
	objs []*gamemap.Object, totalBytes float64, sessionEnd map[string]float64, res *MovementResult) float64 {
	n := len(objs)
	if n == 0 {
		return 2 * oneWay // the first cycle marker confirms emptiness
	}
	cycle := 0.0
	for _, o := range objs {
		cycle += cfg.PerObjectServiceMs + (o.Size+float64(cfg.Costs.PacketOverhead))*cfg.TxPerByteMs
	}
	// Subscribe reaches the broker after oneWay; the mover then collects one
	// full cycle regardless of join phase; the last object takes oneWay to
	// arrive.
	conv := oneWay + cycle + oneWay

	// Byte accounting: the broker multicasts for the union of the session
	// window. A join extends the session to now+oneWay+cycle; only the
	// extension produces new transmissions (concurrent movers share them),
	// plus the half-RTT of wasted packets after the last unsubscribe.
	key := leaf.Key()
	start := nowMs + oneWay
	end := start + cycle + oneWay/2 // wasted tail until Unsubscribe lands
	prevEnd := sessionEnd[key]
	if start < prevEnd {
		start = prevEnd
	}
	if end > prevEnd {
		sessionEnd[key] = end
	}
	if end > start {
		fraction := (end - start) / cycle
		// The multicast travels one path from broker to this mover's edge;
		// concurrent subscribers share most of it, so the tree reduces to a
		// path per distinct edge — we charge this mover's path once.
		res.Bytes += fraction * (totalBytes + float64(n*cfg.Costs.PacketOverhead)) * float64(links)
		res.ObjectsSent += uint64(float64(n) * fraction)
	}
	return conv
}
