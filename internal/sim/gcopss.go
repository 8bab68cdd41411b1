package sim

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/icn-gaming/gcopss/internal/cd"
	"github.com/icn-gaming/gcopss/internal/copss"
	"github.com/icn-gaming/gcopss/internal/obs"
	"github.com/icn-gaming/gcopss/internal/topo"
	"github.com/icn-gaming/gcopss/internal/trace"
)

// RPPlacement assigns one RP a node and a served prefix set.
type RPPlacement struct {
	Node     topo.NodeID
	Prefixes []cd.CD
}

// AutoBalance configures the automatic RP splitting of Section IV-B.
type AutoBalance struct {
	// QueueThreshold is the RP queue length (packets) that triggers a split.
	QueueThreshold int
	// Window is the sliding-window length for per-CD load attribution.
	Window int
	// MaxRPs bounds the RP population.
	MaxRPs int
	// CandidateNodes are where new RPs may be instantiated, used in order.
	CandidateNodes []topo.NodeID
	// MigrationMs is the control-plane delay before a split takes effect
	// (stage A+B of the handoff protocol).
	MigrationMs float64
	// Seed drives the random tie-breaking of the CD selection function.
	Seed int64
}

// GCOPSSConfig parameterizes a G-COPSS run.
type GCOPSSConfig struct {
	RPs     []RPPlacement
	Costs   Costs
	Balance *AutoBalance // nil disables auto-balancing
}

// SplitEvent records one automatic RP split (Fig. 5c annotations).
type SplitEvent struct {
	AtMs        float64
	PacketIndex int
	NewRPNode   topo.NodeID
	Moved       []cd.CD
	RPCount     int
}

// Result aggregates one simulation run.
type Result struct {
	// LatencyMeanMs is the mean per-delivery latency in ms (publisher
	// excluded): the latencies summed in delivery order over Deliveries. 0
	// when the run had no deliveries.
	LatencyMeanMs float64
	// PerUpdateAvg/Min/Max are per-update latency aggregates in packet
	// order — the Fig. 5 series.
	PerUpdateAvg []float32
	PerUpdateMin []float32
	PerUpdateMax []float32
	// Bytes is the aggregate network load (packet bytes × links traversed).
	Bytes float64
	// Deliveries counts (update, receiver) pairs.
	Deliveries uint64
	// Splits records auto-balancing events.
	Splits []SplitEvent
	// MaxQueueLen is the largest queue (in packets) seen at any RP/server.
	MaxQueueLen int
	// FinalRPs is the RP count at the end of the run.
	FinalRPs int
	// RPQueues summarizes each RP's FIFO queue over the run, in RP order
	// (RPs created by auto-balancing splits appear after the initial set).
	RPQueues []RPQueueStat
	// LatencyP50Ms and LatencyP99Ms are delivery-latency quantiles
	// estimated from a log-bucket histogram fed every delivery. NaN when the
	// run had no deliveries.
	LatencyP50Ms float64
	LatencyP99Ms float64

	// latSum is LatencyMeanMs's numerator. latCounts feeds the quantiles:
	// per-bucket delivery counts over latBounds (last slot is overflow).
	// Plain integers, not an obs.Histogram — the engines are
	// single-threaded and call addLatency once per delivery, where the
	// histogram's three atomics would cost more than the rest of the
	// per-delivery arithmetic combined.
	latSum    float64
	latCounts []uint64
}

// newResult returns an empty Result with room for the per-update series of
// an n-update replay.
func newResult(n int) *Result {
	return &Result{
		PerUpdateAvg: make([]float32, 0, n),
		PerUpdateMin: make([]float32, 0, n),
		PerUpdateMax: make([]float32, 0, n),
		latCounts:    make([]uint64, len(latBounds)+1),
	}
}

// latBounds is the shared bucket layout of the delivery-latency quantile
// accumulators, fixed at package init so latIndex works over an immutable
// slice.
var latBounds = obs.LatencyBucketsMs()

// latIndex returns the quantile bucket for lat: the index of the first
// bound >= lat, or len(latBounds) for overflow. The bounds double from
// latBounds[0], so the index is read off the binary exponent of
// lat/latBounds[0] instead of binary-searched — a search's comparisons are
// data-dependent and mispredict on real latency streams, which at one call
// per delivery (~10M per Fig. 5 run) is the dominant cost of quantile
// accounting. The one-step fix-up absorbs division rounding at bucket
// boundaries, keeping the result identical to the search.
func latIndex(lat float64) int {
	n := len(latBounds)
	if lat <= latBounds[0] {
		return 0
	}
	if lat > latBounds[n-1] {
		return n
	}
	bits := math.Float64bits(lat / latBounds[0])
	i := int(bits>>52&0x7ff) - 1023
	if bits&(1<<52-1) != 0 {
		i++
	}
	if i < 1 {
		i = 1
	} else if i >= n {
		i = n - 1
	}
	if lat > latBounds[i] {
		i++
	} else if lat <= latBounds[i-1] {
		i--
	}
	return i
}

// deliver is the simulator's one per-update accounting rule. Every planned
// recipient except the publisher receives the update base + delays[i] - sub
// ms after it was sent: depart + delay - now behind an RP or a server, and
// HostMs + delay - 0 (exact) in hybrid. Each latency is recorded, and the
// update's avg/min/max are appended to the Fig. 5 series (zeros when nobody
// else subscribes). It returns the recipients' total link count — what a
// server pays to reach them with one unicast copy each.
func (r *Result) deliver(plan *deliveryPlan, publisher int, base, sub float64) (links int) {
	var sum, minL, maxL float64
	n := 0
	for i, p := range plan.players {
		if p == publisher {
			continue
		}
		lat := base + plan.delays[i] - sub
		r.addLatency(lat)
		links += plan.hops[i]
		sum += lat
		if n == 0 || lat < minL {
			minL = lat
		}
		if lat > maxL {
			maxL = lat
		}
		n++
	}
	var avg float32
	if n > 0 {
		avg = float32(sum / float64(n))
	}
	r.PerUpdateAvg = append(r.PerUpdateAvg, avg)
	r.PerUpdateMin = append(r.PerUpdateMin, float32(minL))
	r.PerUpdateMax = append(r.PerUpdateMax, float32(maxL))
	return links
}

// addLatency records one delivery: its count, its share of the mean and its
// quantile bucket.
func (r *Result) addLatency(lat float64) {
	r.Deliveries++
	r.latSum += lat
	r.latCounts[latIndex(lat)]++
}

// finishLatency resolves the mean and quantile fields; engines call it once
// before returning their Result. The local bucket counts are replayed into
// an obs.Histogram (one ObserveN per occupied bucket, each fed a value
// inside that bucket's bounds) so the quantile math lives in exactly one
// place.
func (r *Result) finishLatency() {
	if r.Deliveries == 0 {
		r.LatencyP50Ms = math.NaN()
		r.LatencyP99Ms = math.NaN()
		return
	}
	r.LatencyMeanMs = r.latSum / float64(r.Deliveries)
	h := obs.NewHistogram(nil)
	for i, c := range r.latCounts {
		if c == 0 {
			continue
		}
		v := latBounds[len(latBounds)-1] * 2 // overflow bucket
		if i < len(latBounds) {
			v = latBounds[i]
			if i > 0 {
				v = (latBounds[i-1] + latBounds[i]) / 2
			}
		}
		h.ObserveN(v, c)
	}
	r.LatencyP50Ms = h.Quantile(0.5)
	r.LatencyP99Ms = h.Quantile(0.99)
}

// RPQueueStat is the per-RP queue summary of one run.
type RPQueueStat struct {
	// Name is the RP's name (/rp1, /rp2, ...).
	Name string
	// Node is the topology node hosting the RP.
	Node topo.NodeID
	// MaxDepth is the largest FIFO depth (packets) observed at this RP.
	MaxDepth int
	// MeanDepth is the mean FIFO depth over the updates this RP served.
	MeanDepth float64
	// Updates counts the updates routed through this RP.
	Updates uint64
}

// rpState is one simulated RP.
type rpState struct {
	station
	node     topo.NodeID
	prefixes []cd.CD
	monitor  *LoadMonitor
	name     string

	maxDepth int
	depthSum float64
	updates  uint64
}

// Name implements Runner.
func (cfg GCOPSSConfig) Name() string { return "gcopss" }

// Validate implements Runner: the RP set must be non-empty, every RP must
// serve at least one prefix, the union of serving sets must be prefix-free,
// and the RP service time must be positive (it divides queue-depth math).
func (cfg GCOPSSConfig) Validate() error {
	if len(cfg.RPs) == 0 {
		return fmt.Errorf("no RPs configured")
	}
	var all []cd.CD
	for i, p := range cfg.RPs {
		if len(p.Prefixes) == 0 {
			return fmt.Errorf("RP %d serves no prefixes", i)
		}
		all = append(all, p.Prefixes...)
	}
	if err := cd.PrefixFree(all); err != nil {
		return fmt.Errorf("RP serving sets: %w", err)
	}
	if cfg.Costs.RPServiceMs <= 0 {
		return fmt.Errorf("RP service time %v ms must be positive", cfg.Costs.RPServiceMs)
	}
	return nil
}

// Run implements Runner: replay updates through the G-COPSS data path —
// publisher → edge → covering RP (FIFO queue, 3.3 ms service) → core-based
// multicast tree → subscribers.
func (cfg GCOPSSConfig) Run(env *Env, updates []trace.Update) (*Result, error) {
	if err := precheck(env, cfg); err != nil {
		return nil, err
	}
	rps := make([]*rpState, len(cfg.RPs))
	window := DefaultLoadWindow
	if cfg.Balance != nil && cfg.Balance.Window > 0 {
		window = cfg.Balance.Window
	}
	for i, p := range cfg.RPs {
		rps[i] = &rpState{
			node:     p.Node,
			prefixes: append([]cd.CD(nil), p.Prefixes...),
			monitor:  NewLoadMonitor(window),
			name:     fmt.Sprintf("/rp%d", i+1),
		}
	}

	var rnd *rand.Rand
	var candidates []topo.NodeID
	if cfg.Balance != nil {
		rnd = rand.New(rand.NewSource(cfg.Balance.Seed))
		candidates = append(candidates, cfg.Balance.CandidateNodes...)
	}

	pl := newPlanner(env, cfg.Costs, 0)
	res := newResult(len(updates))

	type pendingSplit struct {
		atMs   float64
		source int
		node   topo.NodeID
		moved  []cd.CD
	}
	var pending *pendingSplit

	cover := func(c cd.CD) *rpState {
		for _, rp := range rps {
			if _, ok := cd.Cover(rp.prefixes, c); ok {
				return rp
			}
		}
		return nil
	}

	for idx, u := range updates {
		nowMs := float64(u.At) / float64(time.Millisecond)

		// Apply a matured split before routing this update.
		if pending != nil && nowMs >= pending.atMs {
			src := rps[pending.source]
			src.prefixes = subtract(src.prefixes, pending.moved)
			rps = append(rps, &rpState{
				node:     pending.node,
				prefixes: pending.moved,
				monitor:  NewLoadMonitor(window),
				name:     fmt.Sprintf("/rp%d", len(rps)+1),
			})
			pl.invalidateLeavesUnder(pending.moved)
			res.Splits = append(res.Splits, SplitEvent{
				AtMs:        pending.atMs,
				PacketIndex: idx,
				NewRPNode:   pending.node,
				Moved:       pending.moved,
				RPCount:     len(rps),
			})
			pending = nil
		}

		rp := cover(u.CD)
		if rp == nil {
			continue // unserved CD: dropped, as a real router would
		}
		upDelay, upHops := pl.upstream(u.Player, rp.node)
		arrive := nowMs + upDelay
		depart, backlog := rp.serve(arrive, cfg.Costs.RPServiceMs)
		qlen := int(backlog / cfg.Costs.RPServiceMs)
		res.MaxQueueLen = max(res.MaxQueueLen, qlen)
		// Auto-balance: queue above threshold triggers a split.
		if cfg.Balance != nil && pending == nil && qlen > cfg.Balance.QueueThreshold &&
			len(rps) < cfg.Balance.MaxRPs && len(rp.prefixes) > 1 && len(candidates) > 0 {
			_, moved := rp.monitor.SplitByLoad(rp.prefixes, rnd)
			if len(moved) > 0 {
				node := candidates[0]
				candidates = candidates[1:]
				srcIdx := 0
				for i := range rps {
					if rps[i] == rp {
						srcIdx = i
					}
				}
				pending = &pendingSplit{
					atMs:   arrive + cfg.Balance.MigrationMs,
					source: srcIdx,
					node:   node,
					moved:  moved,
				}
			}
		}
		rp.maxDepth = max(rp.maxDepth, qlen)
		rp.depthSum += float64(qlen)
		rp.updates++
		rp.monitor.Record(u.CD)

		plan := pl.plan(u.CD, rp.node)
		pktBytes := float64(u.Size + cfg.Costs.PacketOverhead)
		res.Bytes += pktBytes * float64(upHops+pl.multicastLinks(plan, rp.node))
		res.deliver(plan, u.Player, depart, nowMs)
	}
	res.FinalRPs = len(rps)
	for _, rp := range rps {
		st := RPQueueStat{Name: rp.name, Node: rp.node, MaxDepth: rp.maxDepth, Updates: rp.updates}
		if rp.updates > 0 {
			st.MeanDepth = rp.depthSum / float64(rp.updates)
		}
		res.RPQueues = append(res.RPQueues, st)
	}
	res.finishLatency()
	return res, nil
}

// subtract removes the moved prefixes from a serving set.
func subtract(set, moved []cd.CD) []cd.CD {
	rm := cd.NewSet(moved...)
	var out []cd.CD
	for _, p := range set {
		if !rm.Contains(p) {
			out = append(out, p)
		}
	}
	return out
}

// DefaultRPPlacement spreads the world partition of the game map (the world
// airspace leaf plus one prefix per region) over n RPs hosted on the first n
// core routers (round-robin prefix assignment), the initial configuration of
// Table I.
func DefaultRPPlacement(env *Env, n int) []RPPlacement {
	prefixes := copss.PartitionPrefixes(env.Game.Map.RegionNames())
	out := make([]RPPlacement, n)
	for i := range out {
		out[i].Node = env.Cores[i%len(env.Cores)]
	}
	for i, p := range prefixes {
		out[i%n].Prefixes = append(out[i%n].Prefixes, p)
	}
	return out
}
