// Package trace is the causal packet-tracing layer (DESIGN.md §14): a
// deterministic 1-in-N sampler stamps a trace context onto wire packets at
// their first hop, and every router on the path appends fixed-size hop
// records to a per-router ring. The contract that makes it safe to leave
// compiled into the data plane:
//
//   - Zero-alloc always: SampleID and Ring.Append are //gcopss:hotpath and
//     allocation-free whether or not the packet is sampled; the rings are
//     preallocated at Tracer construction.
//   - Deterministic under seed: whether a publication (origin, seq) is
//     sampled — and the trace ID it receives — is a pure function of
//     (origin, seq, every, seed). Two replays with the same seed trace the
//     same packets, so traces can be diffed across runs.
//   - Invisible when off: a nil *Tracer samples nothing, packets keep
//     TraceID == 0, and wire encodings are byte-identical to an untraced
//     build (wire omits the zero field).
//
// Rings use one uncontended mutex each rather than atomics: within a
// deterministic scheduler shard there is a single writer per ring, and the
// mutex only serializes Snapshot against that writer, so the race detector
// can certify reads-during-writes (see TestRingSnapshotRace).
package trace

import (
	"sort"
	"sync"
)

// HopEvent classifies what happened to a traced packet at a hop. The values
// mirror the flight-recorder event kinds on the same code paths.
type HopEvent uint8

const (
	// HopEncapsulate: a first-hop router wrapped the publication in an
	// Interest toward the RP.
	HopEncapsulate HopEvent = iota
	// HopRPDeliver: the RP decapsulated (or directly accepted) the
	// publication and matched it against the subscription table.
	HopRPDeliver
	// HopFanOut: the packet was forwarded out one face during multicast
	// distribution (one record per face).
	HopFanOut
	// HopRedirect: a migrated RP redirected the publication toward the
	// current RP.
	HopRedirect
	// HopDrop: the packet was dropped (no route, decode failure, ARQ
	// abandonment).
	HopDrop
	// HopRetransmit: the hop-by-hop ARQ retransmitted a control packet.
	HopRetransmit
)

// String returns the stable lower-case name used in trace exports.
func (e HopEvent) String() string {
	switch e {
	case HopEncapsulate:
		return "encapsulate"
	case HopRPDeliver:
		return "rp-deliver"
	case HopFanOut:
		return "fan-out"
	case HopRedirect:
		return "redirect"
	case HopDrop:
		return "drop"
	case HopRetransmit:
		return "retransmit"
	}
	return "unknown"
}

// Hop is one fixed-size record on a traced packet's path. Records are
// value types so ring appends never allocate.
type Hop struct {
	// TraceID is the sampled trace context the record belongs to.
	TraceID uint64
	// At is the sim-clock timestamp (UnixNano) the hop was processed at.
	At int64
	// Face is the router face involved (out-face for fan-out, in-face or
	// -1 where no face applies).
	Face int64
	// Seq is the publication sequence number, kept so exports can label
	// spans without chasing the origin packet.
	Seq uint64
	// Event says what happened at this hop.
	Event HopEvent
}

// Ring is a bounded per-router hop-record buffer. One goroutine appends
// (the router's scheduler shard); Snapshot may be called concurrently from
// a debug endpoint or exporter. The mutex is uncontended in steady state.
type Ring struct {
	name string

	mu   sync.Mutex
	buf  []Hop // fixed capacity, preallocated
	next uint64
}

// Name returns the router name the ring was registered under.
func (r *Ring) Name() string { return r.name }

// Append records one hop. It is allocation-free: the record is copied into
// the preallocated buffer, overwriting the oldest entry when full.
//
//gcopss:hotpath
func (r *Ring) Append(h Hop) {
	r.mu.Lock()
	r.buf[r.next%uint64(len(r.buf))] = h
	r.next++
	r.mu.Unlock()
}

// Recorded returns the total number of hops appended, including those
// already overwritten.
func (r *Ring) Recorded() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next
}

// Snapshot returns the retained hop records oldest-first. Safe to call
// while the owning shard is appending.
func (r *Ring) Snapshot() []Hop {
	r.mu.Lock()
	defer r.mu.Unlock()
	size := uint64(len(r.buf))
	n := r.next
	if n > size {
		out := make([]Hop, size)
		start := n % size
		copy(out, r.buf[start:])
		copy(out[size-start:], r.buf[:start])
		return out
	}
	return append([]Hop(nil), r.buf[:n]...)
}

// Tracer owns the sampling decision and the per-router rings. A nil Tracer
// is valid and samples nothing, so callers thread it unconditionally.
type Tracer struct {
	every   uint64
	seed    uint64
	ringCap int

	mu    sync.Mutex
	rings map[string]*Ring
}

// NewTracer builds a tracer sampling one in every `every` publications
// (every <= 0 disables sampling entirely; every == 1 traces everything).
// seed perturbs which publications are picked without changing the rate.
// ringCap bounds each router's hop ring (minimum 1).
func NewTracer(every int, seed int64, ringCap int) *Tracer {
	if ringCap < 1 {
		ringCap = 1
	}
	e := uint64(0)
	if every > 0 {
		e = uint64(every)
	}
	return &Tracer{
		every:   e,
		seed:    uint64(seed),
		ringCap: ringCap,
		rings:   make(map[string]*Ring),
	}
}

// Ring returns the hop ring registered for name, creating it on first use.
// Registration happens at router construction, never on the hot path.
func (t *Tracer) Ring(name string) *Ring {
	t.mu.Lock()
	defer t.mu.Unlock()
	if r, ok := t.rings[name]; ok {
		return r
	}
	r := &Ring{name: name, buf: make([]Hop, t.ringCap)}
	t.rings[name] = r
	return r
}

// Rings returns every registered ring sorted by router name, so exports
// and tests iterate deterministically.
func (t *Tracer) Rings() []*Ring {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Ring, 0, len(t.rings))
	for _, r := range t.rings {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// fnvOffset/fnvPrime are the 64-bit FNV-1a parameters; splitmix finalizes
// so the modulo sees well-mixed high and low bits.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func splitmix(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// SampleID decides whether the publication (origin, seq) is traced and, if
// so, returns its nonzero trace ID; otherwise it returns 0. The decision is
// a pure function of (origin, seq, every, seed) — deterministic replays
// sample the same packets. Safe on a nil receiver (always 0).
//
//gcopss:hotpath
func (t *Tracer) SampleID(origin string, seq uint64) uint64 {
	if t == nil || t.every == 0 {
		return 0
	}
	h := uint64(fnvOffset)
	for i := 0; i < len(origin); i++ {
		h ^= uint64(origin[i])
		h *= fnvPrime
	}
	h ^= seq
	h *= fnvPrime
	h ^= t.seed
	h = splitmix(h)
	if h%t.every != 0 {
		return 0
	}
	if h == 0 {
		h = 1 // trace IDs are nonzero by contract; 0 means untraced
	}
	return h
}
