package faultnet

import (
	"hash/fnv"
	"math/rand"
	"sync"
	"time"

	"github.com/icn-gaming/gcopss/internal/obs"
	"github.com/icn-gaming/gcopss/internal/wire"
)

// Verdict is the injector's decision for one packet on one link.
type Verdict struct {
	// Drop discards the packet; Reason says why ("loss" or "partition").
	Drop   bool
	Reason string
	// Dup delivers the packet twice.
	Dup bool
	// Delay is extra latency to add before delivery (fixed + jitter +
	// reorder hold-back).
	Delay time.Duration
}

// Stats is a snapshot of the injector's decision counts.
type Stats struct {
	Decided   uint64 // packets inspected
	Dropped   uint64 // loss + partition drops
	Dupped    uint64 // packets delivered twice
	Delayed   uint64 // packets given nonzero extra delay
	Reordered uint64 // packets held back to force reordering
}

// Injector applies a fault Spec to packets crossing links. It is safe for
// concurrent use (the TCP daemon calls it from its event loop and timers,
// and the sharded testbed from its worker shards); determinism across runs
// comes from per-link rand streams, so decisions on one link do not depend
// on traffic interleaving across links.
type Injector struct {
	mu   sync.Mutex
	spec *Spec // immutable after New
	seed int64 // immutable after New
	// epoch anchors the partition schedule.
	//
	//gcopss:guardedby mu
	epoch time.Time
	// links holds the per-link decision streams.
	//
	//gcopss:guardedby mu
	links map[string]*linkState

	// stats accumulates decision counts.
	//
	//gcopss:guardedby mu
	stats Stats

	dropped, dupped, delayed, reordered *obs.Counter
}

// linkState carries one directed link's independent decision stream: its
// seeded rand source and a running FNV-1a digest of its verdicts. Keeping
// the digest per link (combined commutatively in TraceHash) makes the trace
// hash a function of each link's own decision sequence, not of the global
// interleaving of calls across links — so a sharded run that decides links
// in a different cross-link order still hashes identically.
type linkState struct {
	rnd  *rand.Rand
	hash uint64
}

// New creates an injector for the spec. The same (spec, seed) pair always
// produces the same per-link decision streams.
func New(spec *Spec, seed int64) *Injector {
	if spec == nil {
		spec = &Spec{}
	}
	in := &Injector{
		spec:  spec,
		seed:  seed,
		links: make(map[string]*linkState),
	}
	// Counters are always live; Instrument rebinds them to a host registry.
	in.Instrument(obs.NewRegistry())
	return in
}

// SetEpoch anchors the partition schedule: window offsets are measured from
// t. Hosts call it once when their clock starts (t=0 in the testbed, process
// start in the daemon).
func (in *Injector) SetEpoch(t time.Time) {
	in.mu.Lock()
	in.epoch = t
	in.mu.Unlock()
}

// Instrument registers the injector's counters on reg.
func (in *Injector) Instrument(reg *obs.Registry) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.dropped = reg.Counter("faultnet_dropped_total")
	in.dupped = reg.Counter("faultnet_dup_total")
	in.delayed = reg.Counter("faultnet_delayed_total")
	in.reordered = reg.Counter("faultnet_reordered_total")
}

// Stats returns a snapshot of the decision counts.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// TraceHash digests every (link, packet type, verdict) decision made so far;
// two runs with the same seed and workload must produce equal hashes — the
// chaos suite's "same seed, same packet trace" check. Per-link digests are
// combined with XOR, which is commutative: the hash depends only on each
// link's own decision sequence, never on the order links were touched
// relative to each other, so sequential and sharded executions of the same
// workload agree.
func (in *Injector) TraceHash() uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for _, s := range in.links {
		h ^= s.hash
	}
	return h
}

// link returns the (locked) per-link state. Seeding each link's rand from
// seed^hash(link) keeps one link's stream independent of every other link's
// traffic volume; the same name hash salts the link's trace digest so two
// links with identical verdict sequences contribute distinct digests.
//
//gcopss:locked mu
func (in *Injector) link(name string) *linkState {
	if s, ok := in.links[name]; ok {
		return s
	}
	h := fnv.New64a()
	h.Write([]byte(name)) //nolint:errcheck // fnv never fails
	lh := h.Sum64()
	s := &linkState{
		rnd:  rand.New(rand.NewSource(in.seed ^ int64(lh))),
		hash: 14695981039346656037 ^ lh,
	}
	in.links[name] = s
	return s
}

// Decide inspects one packet about to cross the directed link and returns
// the fault verdict. now is the host's injected clock.
func (in *Injector) Decide(now time.Time, link string, pkt *wire.Packet) Verdict {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.stats.Decided++
	var rule *Rule
	for i := range in.spec.Rules {
		r := &in.spec.Rules[i]
		if r.matchesLink(link) && r.Class.Matches(pkt.Type) {
			rule = r
			break
		}
	}
	if rule == nil {
		in.mix(link, pkt.Type, Verdict{})
		return Verdict{}
	}
	var v Verdict
	elapsed := now.Sub(in.epoch)
	for _, w := range rule.Partitions {
		if elapsed >= w.From && elapsed < w.To {
			v = Verdict{Drop: true, Reason: "partition"}
			in.stats.Dropped++
			in.dropped.Inc()
			in.mix(link, pkt.Type, v)
			return v
		}
	}
	r := in.link(link).rnd
	if rule.Loss > 0 && r.Float64() < rule.Loss {
		v = Verdict{Drop: true, Reason: "loss"}
		in.stats.Dropped++
		in.dropped.Inc()
		in.mix(link, pkt.Type, v)
		return v
	}
	if rule.Dup > 0 && r.Float64() < rule.Dup {
		v.Dup = true
		in.stats.Dupped++
		in.dupped.Inc()
	}
	v.Delay = rule.Delay
	if rule.Jitter > 0 {
		v.Delay += time.Duration(r.Int63n(int64(rule.Jitter)))
	}
	if rule.Reorder > 0 && r.Float64() < rule.Reorder {
		quantum := rule.Delay
		if quantum <= 0 {
			quantum = time.Millisecond
		}
		v.Delay += time.Duration(1+r.Intn(4)) * quantum
		in.stats.Reordered++
		in.reordered.Inc()
	}
	if v.Delay > 0 {
		in.stats.Delayed++
		in.delayed.Inc()
	}
	in.mix(link, pkt.Type, v)
	return v
}

// mix folds one decision into the link's own trace digest. Caller holds the
// lock. The link name itself is baked into the digest's initial value (see
// link), so only the per-decision fields are folded here.
//
//gcopss:locked mu
func (in *Injector) mix(link string, t wire.Type, v Verdict) {
	const prime = 1099511628211
	s := in.link(link)
	h := s.hash
	h = (h ^ uint64(t)) * prime
	var bits uint64
	if v.Drop {
		bits |= 1
	}
	if v.Dup {
		bits |= 2
	}
	h = (h ^ bits) * prime
	h = (h ^ uint64(v.Delay)) * prime
	s.hash = h
}
