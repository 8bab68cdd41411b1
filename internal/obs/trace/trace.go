// Package trace is the router's packet-path recorder (DESIGN.md §14): every
// router appends one fixed-size record per packet-path step — arrival,
// encapsulation, RP delivery, fan-out, redirect, drop, migration stage,
// retransmission — to its own ring, and a deterministic 1-in-N sampler
// stamps a trace context onto wire packets at their first hop so the
// records of one packet can be joined across routers. The contract that
// makes it safe to leave compiled into the data plane:
//
//   - Zero-alloc always: SampleID and Ring.Append are allocation-free
//     whether or not the packet is sampled; the rings are
//     preallocated at Tracer construction and records alias their strings.
//   - Deterministic under seed: whether a publication (origin, seq) is
//     sampled — and the trace ID it receives — is a pure function of
//     (origin, seq, every, seed). Two replays with the same seed trace the
//     same packets, so traces can be diffed across runs.
//   - The wire is untouched when sampling is off: a nil *Tracer or
//     every == 0 samples nothing, packets keep TraceID == 0, and wire
//     encodings are byte-identical to an untraced build (wire omits the
//     zero field).
//
// The sampling rate also decides which records a ring keeps: with
// every == 0 it keeps every step of every packet (a flight recorder); with
// every > 0 it keeps only the steps of packets carrying a TraceID.
//
// Rings use one uncontended mutex each rather than atomics: within a
// deterministic scheduler shard there is a single writer per ring, and the
// mutex only serializes Snapshot against that writer, so the race detector
// can certify reads-during-writes (see TestRingSnapshotRace).
package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"sync"
)

// HopEvent classifies one packet-path step. Arrival kinds mirror the wire
// packet types; the rest mark the router-internal transitions that make a
// path readable.
type HopEvent uint8

// Hop events. The zero value is invalid.
const (
	// HopInterest through HopPrune record packet arrivals by wire type.
	HopInterest HopEvent = iota + 1
	HopData
	HopSubscribe
	HopUnsubscribe
	HopMulticast
	HopAnnounce
	HopJoin
	HopConfirm
	HopLeave
	HopHandoff
	HopPrune
	// HopEncapsulate: a first-hop router wrapped the publication in an
	// Interest toward the RP.
	HopEncapsulate
	// HopRPDeliver: the RP decapsulated (or directly accepted) the
	// publication and matched it against the subscription table.
	HopRPDeliver
	// HopFanOut: the packet was forwarded out one face during multicast
	// distribution (one record per face).
	HopFanOut
	// HopRedirect: a migrated RP redirected the publication toward the
	// current RP.
	HopRedirect
	// HopDrop: the packet was dropped; Note carries the reason.
	HopDrop
	// HopMigration: a migration-protocol state transition; Note names it.
	HopMigration
	// HopRetransmit: the hop-by-hop ARQ retransmitted a control packet.
	HopRetransmit
)

// String returns the stable lower-case name used in dumps and exports.
func (e HopEvent) String() string {
	switch e {
	case HopInterest:
		return "interest"
	case HopData:
		return "data"
	case HopSubscribe:
		return "subscribe"
	case HopUnsubscribe:
		return "unsubscribe"
	case HopMulticast:
		return "multicast"
	case HopAnnounce:
		return "announce"
	case HopJoin:
		return "join"
	case HopConfirm:
		return "confirm"
	case HopLeave:
		return "leave"
	case HopHandoff:
		return "handoff"
	case HopPrune:
		return "prune"
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
	case HopMigration:
		return "migration"
	case HopRetransmit:
		return "retransmit"
	}
	return "unknown"
}

// Hop is one fixed-size packet-path record. Records are value types and
// their strings alias the packet's (no copies are made), so ring appends
// never allocate.
type Hop struct {
	// TraceID is the sampled trace context the record belongs to (0 for an
	// untraced packet).
	TraceID uint64
	// At is the host-clock timestamp (UnixNano) the step happened at: wall
	// time in the daemon, virtual time in simulation hosts.
	At int64
	// Face is the router face involved (out-face for fan-out, in-face or
	// -1 where no face applies).
	Face int64
	// Seq is the publication sequence number, kept so exports can label
	// spans without chasing the origin packet.
	Seq uint64
	// Event says what happened at this step.
	Event HopEvent
	// CD is the packet's first content descriptor, when it carries one.
	CD string
	// Name is the content or RP name, when present.
	Name string
	// Origin is the publishing player or node, when present.
	Origin string
	// Note is free-form detail: drop reason, migration stage, target RP.
	Note string
}

// Ring is a bounded per-router record buffer. One goroutine appends (the
// router's scheduler shard or the daemon's event loop); Snapshot and Dump
// may be called concurrently from a debug endpoint or exporter. The mutex
// is uncontended in steady state.
type Ring struct {
	name string
	// all keeps untraced records too: the tracer's sampling is off.
	all bool

	mu sync.Mutex
	// buf is the ring storage. Its length is immutable after construction;
	// element writes happen under mu. Deliberately not lock-annotated for
	// that reason.
	buf []Hop
	// next is the total number of records appended since creation.
	//
	//gcopss:guardedby mu
	next uint64
}

// Name returns the router name the ring was registered under.
func (r *Ring) Name() string { return r.name }

// Append records one step. With sampling on, a record without a TraceID is
// discarded. It is allocation-free (TestSampleAndAppendAllocFree): the
// record is copied into the preallocated buffer, overwriting the oldest
// entry when full.
func (r *Ring) Append(h Hop) {
	if h.TraceID == 0 && !r.all {
		return
	}
	r.mu.Lock()
	r.buf[r.next%uint64(len(r.buf))] = h
	r.next++
	r.mu.Unlock()
}

// Recorded returns the total number of records appended, including those
// already overwritten.
func (r *Ring) Recorded() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next
}

// Snapshot returns the retained records oldest-first. Safe to call while
// the owning shard is appending.
func (r *Ring) Snapshot() []Hop {
	hops, _ := r.snapshot()
	return hops
}

// snapshot returns the retained records oldest-first together with the
// total appended, read under one lock so the two agree.
func (r *Ring) snapshot() ([]Hop, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	size := uint64(len(r.buf))
	n := r.next
	if n > size {
		out := make([]Hop, size)
		start := n % size
		copy(out, r.buf[start:])
		copy(out[size-start:], r.buf[:start])
		return out, n
	}
	return append([]Hop(nil), r.buf[:n]...), n
}

// Dump writes the last n retained records (n <= 0: all) one per line,
// oldest first, after a header line. #k is the record's append ordinal.
func (r *Ring) Dump(w io.Writer, n int) error {
	hops, total := r.snapshot()
	if n > 0 && n < len(hops) {
		hops = hops[len(hops)-n:]
	}
	first := total - uint64(len(hops))
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# flight recorder: %d events retained, %d recorded\n", len(hops), total)
	for i := range hops {
		h := &hops[i]
		fmt.Fprintf(bw, "#%d t=%dns %s face=%d", first+uint64(i), h.At, h.Event, h.Face)
		if h.CD != "" {
			fmt.Fprintf(bw, " cd=%s", h.CD)
		}
		if h.Name != "" {
			fmt.Fprintf(bw, " name=%s", h.Name)
		}
		if h.Origin != "" {
			fmt.Fprintf(bw, " origin=%s", h.Origin)
		}
		if h.Note != "" {
			fmt.Fprintf(bw, " note=%q", h.Note)
		}
		if h.TraceID != 0 {
			fmt.Fprintf(bw, " trace=%016x", h.TraceID)
		}
		bw.WriteByte('\n') //nolint:errcheck // flushed below
	}
	return bw.Flush()
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
// (every <= 0 disables sampling and makes every ring keep every record;
// every == 1 traces everything). seed perturbs which publications are
// picked without changing the rate. ringCap bounds each router's ring
// (minimum 1).
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

// Ring returns the ring registered for name, creating it on first use.
// Registration happens at router construction, never on the hot path.
func (t *Tracer) Ring(name string) *Ring {
	t.mu.Lock()
	defer t.mu.Unlock()
	if r, ok := t.rings[name]; ok {
		return r
	}
	r := &Ring{name: name, all: t.every == 0, buf: make([]Hop, t.ringCap)}
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
// sample the same packets. Safe on a nil receiver (always 0). It allocates
// nothing (TestSampleAndAppendAllocFree).
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
