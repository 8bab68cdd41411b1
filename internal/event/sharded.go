package event

import (
	"fmt"
	"sync"
	"time"
)

// ShardedScheduler is a conservative discrete-event executor in the classic
// lookahead style. Hosts partition their stations (testbed nodes) across
// shards, and one loop (runWindowed) alternates between
//
//   - global phases — ordinary Handler events (timers, injections, recurring
//     ticks) run single-threaded, exactly like the plain Scheduler, and
//   - node windows — every shard i executes its queued node events with
//     at < end_i, where end_i is the earliest timestamp any event still
//     queued elsewhere could cause to land in shard i.
//
// The coordinator is worker 0: it executes shard 0's window itself and only
// shards 1…n−1 get goroutines, so one shard runs the same loop inline with
// no goroutine and no channel operation.
//
// SetLatencyMatrix is the one window rule. It installs the minimum
// event-chain latency between every pair of shards (the testbed derives it
// from link delays and the node→shard assignment), and each window computes
//
//	end_i = min(tg, deadline,
//	            min over shards j≠i of floor_j + C[j][i],
//	            floor_i + ret[i])
//
// where floor_j is the earliest event queued on shard j, tg the next global
// event, C the all-pairs shortest-path closure of the matrix, and ret[i] =
// min over j≠i of C[i][j] + C[j][i] the cheapest chain that leaves shard i
// and returns (a shard's own events bound its window too: their descendants
// can re-enter through another shard, riding mailboxes the next barrier's
// floors cannot see). A shard whose only inbound chains are slow therefore
// runs far ahead of the global floor, and a single shard — which has no
// inbound chains at all — runs to min(tg, deadline).
//
// The lookahead invariant makes windows safe: an event executing at time t
// on shard j may cause an arrival on shard i (j ≠ i, possibly via other
// shards) only at t + C[j][i] or later, and an arrival back on its own
// shard only at t + ret[j] or later, so nothing executed during a window
// can land inside any shard's window, and the set of events a window
// executes is fixed at its barrier. Cross-shard posts are staged in
// per-(src,dst) mailboxes owned by the posting shard (no locks) and drained
// at the next barrier. Posts within a shard go straight into its heap and
// are picked up in (at, key) order by the same window — which is why the
// closure treats intra-shard chaining as free. A fresh scheduler's closure
// declares no route between any two shards; a cross-shard post during a
// window over a pair the closure marks unreachable is a host bug (its
// windows were computed as if the post could not happen) and panics.
//
// Determinism does not depend on the worker count: node events are totally
// ordered by (at, key) with caller-chosen canonical keys (the testbed uses
// linkID<<32|perLinkSeq), every event of one station lives on one shard and
// executes in that order, and at a timestamp tie between a global event and
// a node event the global event runs first. Window boundaries do depend on
// the partition, but boundaries only decide when work happens on the wall
// clock, never which events execute at which virtual time, so workers ∈
// {1,2,...} produce identical traces.
type ShardedScheduler struct {
	global  *Scheduler
	shards  []*shard
	closure [][]time.Duration // shortest-path latency closure of the installed matrix
	ret     []time.Duration   // min round-trip leaving shard i and returning
	now     time.Time

	parallel bool // true only while a node window is executing

	// Worker plumbing of runWindowed, kept here so a call allocates nothing
	// of its own: starts[i] hands shard i ≥ 1 its window end (starts[0]
	// stays nil — shard 0 is the coordinator's), done carries each worker's
	// event count back, one slot per worker so a send never blocks.
	starts []chan time.Time
	done   chan int
	wg     sync.WaitGroup

	nodeProcessed uint64
	windows       uint64
	windowStalls  uint64

	// Window scratch, coordinator-only (reused across windows so the inner
	// loop allocates nothing).
	floors   []time.Time
	hasFloor []bool
	ends     []time.Time
	preLens  []int

	// prof, when non-nil, accumulates wall-clock attribution (see
	// profile.go). internal/event is exempt from the clockfree rule: the
	// profiler measures real execution cost, not virtual time.
	prof *schedProf
}

// NoRoute marks a shard pair with no event path in a latency matrix handed
// to SetLatencyMatrix: no event chain starting on the source shard can ever
// produce an event on the destination shard.
const NoRoute = time.Duration(-1)

// undeclaredRoute is PostNode's panic message for a cross-shard post over a
// pair the latency closure marks unreachable; a constant, so the hot path
// formats nothing.
const undeclaredRoute = "event: cross-shard PostNode during a window over a shard pair the latency matrix declares unreachable"

// infDur is the internal "unreachable" distance. Small enough that one
// Floyd–Warshall addition cannot overflow, large enough that no real
// latency sum reaches it.
const infDur = time.Duration(1) << 61

// shard is one worker's event queue plus its outbound mailboxes.
type shard struct {
	q    eventHeap // ordered by (at, key)
	mail [][]nodeEvent

	processed  uint64
	crossPosts uint64
	// maxDepth is the deepest the queue got: the maximum, over time, of the
	// heap depth plus the events resident in other shards' mailboxes for this
	// one. drainMail measures the mailbox term at each barrier as (heap length
	// at window start + inbound mail), so events executed and replaced by
	// cross-shard arrivals within one window still register as pressure.
	maxDepth int
}

// nodeEvent is one station-local event as it waits in a mailbox. key is a
// caller-chosen canonical tie-breaker: it must be unique per (at, key) pair
// and must not depend on the worker count (the testbed derives it from
// per-link sequence numbers).
type nodeEvent struct {
	at   time.Time
	key  uint64
	call CallHandler
	pl   Payload
}

// NewSharded creates a sharded scheduler with the given worker (= shard)
// count, starting virtual time at origin. workers < 1 is clamped to 1.
func NewSharded(origin time.Time, workers int) *ShardedScheduler {
	if workers < 1 {
		workers = 1
	}
	s := &ShardedScheduler{
		global:   NewScheduler(origin),
		shards:   make([]*shard, workers),
		now:      origin,
		starts:   make([]chan time.Time, workers),
		done:     make(chan int, workers-1),
		floors:   make([]time.Time, workers),
		hasFloor: make([]bool, workers),
		ends:     make([]time.Time, workers),
		preLens:  make([]int, workers),
	}
	// Until SetLatencyMatrix says otherwise no event chain links two shards.
	s.closure = make([][]time.Duration, workers)
	for i := range s.shards {
		s.shards[i] = &shard{mail: make([][]nodeEvent, workers)}
		s.closure[i] = make([]time.Duration, workers)
		for j := range s.closure[i] {
			if j != i {
				s.closure[i][j] = infDur
			}
		}
	}
	s.ret = returnBounds(s.closure)
	return s
}

// SetLatencyMatrix installs per-shard-pair lookahead: m[src][dst] is the
// minimum latency of any single event hop from a station on shard src to a
// station on shard dst (the testbed uses the minimum link delay between the
// shards' node sets). Entries must be positive or NoRoute; a zero entry —
// including a zero self-loop m[i][i] — is rejected, because it means a
// zero-delay hop leaked into the matrix builder and no finite window could
// ever be safe against it.
//
// The scheduler stores the all-pairs shortest-path closure of m with free
// intra-shard chaining (diagonal 0): an event chain from shard j to shard i
// may route through intermediate shards, and hops within a shard are
// ordered by the shard's own heap rather than by windows, so they bound no
// window. Self-loop entries therefore only validate the builder; they never
// widen or narrow a window.
func (s *ShardedScheduler) SetLatencyMatrix(m [][]time.Duration) error {
	k := len(s.shards)
	if len(m) != k {
		return fmt.Errorf("event: latency matrix is %d×?, want %d×%d", len(m), k, k)
	}
	d := make([][]time.Duration, k)
	for i := range m {
		if len(m[i]) != k {
			return fmt.Errorf("event: latency matrix row %d has %d entries, want %d", i, len(m[i]), k)
		}
		d[i] = make([]time.Duration, k)
		for j, v := range m[i] {
			switch {
			case v == NoRoute:
				d[i][j] = infDur
			case v <= 0:
				return fmt.Errorf("event: non-positive latency %v from shard %d to shard %d", v, i, j)
			default:
				d[i][j] = v
			}
		}
		d[i][i] = 0 // intra-shard chaining is ordered by the heap, not windows
	}
	// Floyd–Warshall closure: chains may cross intermediate shards, and the
	// triangle inequality C[j][i] <= C[j][k] + C[k][i] is exactly what makes
	// mailbox events safe to defer to the next barrier.
	for via := 0; via < k; via++ {
		for i := 0; i < k; i++ {
			dvia := d[i][via]
			if dvia >= infDur {
				continue
			}
			for j := 0; j < k; j++ {
				if alt := dvia + d[via][j]; alt < d[i][j] {
					d[i][j] = alt
				}
			}
		}
	}
	s.closure = d
	s.ret = returnBounds(d)
	return nil
}

// returnBounds computes, per shard, the cheapest event chain that leaves the
// shard and comes back: ret[i] = min over j≠i of C[i][j] + C[j][i]. A shard's
// own queued events bound its window through this term — an event executing
// at floor_i can hop to another shard and produce an arrival back home at
// floor_i + ret[i], and that arrival rides mailboxes invisible to the next
// barrier's floors. Chains through several shards are covered because the
// closure obeys the triangle inequality. The trivial stay-home path (C[i][i]
// = 0) is deliberately excluded: intra-shard posts land in the shard's own
// heap mid-window and execute in (at, key) order, so they need no window
// bound.
func returnBounds(d [][]time.Duration) []time.Duration {
	ret := make([]time.Duration, len(d))
	for i := range d {
		best := infDur
		for j := range d {
			if j == i || d[i][j] >= infDur || d[j][i] >= infDur {
				continue
			}
			if rt := d[i][j] + d[j][i]; rt < best {
				best = rt
			}
		}
		ret[i] = best
	}
	return ret
}

// Preallocate grows every shard's queue and mailbox backing arrays to hold
// perShard events without reallocation, so the hot PostNode path performs
// no slice growth during the run. Call before Run; growing later is only a
// performance loss, never an error.
func (s *ShardedScheduler) Preallocate(perShard int) {
	if perShard <= 0 {
		return
	}
	mailEach := perShard / len(s.shards)
	if mailEach < 16 {
		mailEach = 16
	}
	for _, sh := range s.shards {
		sh.q.grow(perShard)
		for d, box := range sh.mail {
			if cap(box) < mailEach {
				grownBox := make([]nodeEvent, len(box), mailEach)
				copy(grownBox, box)
				sh.mail[d] = grownBox
			}
		}
	}
}

// Workers returns the shard count.
func (s *ShardedScheduler) Workers() int { return len(s.shards) }

// Now returns the current virtual time.
func (s *ShardedScheduler) Now() time.Time {
	if g := s.global.Now(); g.After(s.now) {
		return g
	}
	return s.now
}

// Pending returns the number of queued events across the global queue, the
// shard heaps and the cross-shard mailboxes. Mailbox-resident events count:
// between a window's posts and the barrier drain they are scheduled work
// exactly like heap entries, merely staged on the posting shard.
func (s *ShardedScheduler) Pending() int {
	n := s.global.Pending()
	for _, sh := range s.shards {
		n += sh.q.len()
		for _, box := range sh.mail {
			n += len(box)
		}
	}
	return n
}

// Processed returns the number of events executed so far.
func (s *ShardedScheduler) Processed() uint64 {
	return s.global.Processed() + s.nodeProcessed
}

// At schedules a global event. Global events run single-threaded between
// node windows; they must only be scheduled before Run or from other global
// events, never from node events executing inside a window.
func (s *ShardedScheduler) At(at time.Time, fn Handler) { s.global.At(at, fn) }

// PostNode schedules a node event on shard dst with canonical tie-break key.
// src is the posting shard (the shard whose event is executing); use src ==
// dst or any value outside a window. During a window a cross-shard post is
// staged in the src shard's mailbox and becomes visible at the next barrier —
// the lookahead invariant guarantees it cannot be due before then. The window
// ends were computed from the latency closure, so such a post over a pair the
// closure marks unreachable means the host never declared the route (forgot
// SetLatencyMatrix, or left the pair out of it): it panics rather than let a
// window that assumed the post impossible run past it.
//
// at must be a virtual instant (see Scheduler.At): the queues order events by
// (at.UnixNano(), key), taking the nanoseconds after the clamp to the current
// time, and that is the (time.Time, key) order only for such instants.
//
//gcopss:hotpath
func (s *ShardedScheduler) PostNode(src, dst int, at time.Time, key uint64, call CallHandler, pl Payload) {
	if s.parallel {
		if src != dst {
			if s.closure[src][dst] >= infDur {
				panic(undeclaredRoute)
			}
			sh := s.shards[src]
			sh.mail[dst] = append(sh.mail[dst], nodeEvent{at: at, key: key, call: call, pl: pl})
			sh.crossPosts++
			return
		}
		// Same-shard posts during a window skip the global-clock clamp:
		// s.now is barrier state and the executing event's own time is the
		// only valid floor (the heap keeps order).
	} else if at.Before(s.now) {
		at = s.now
	}
	s.shards[dst].push(at, key, call, pl)
}

// push queues one event on the shard and tracks the queue's high-water mark.
//
//gcopss:hotpath
func (sh *shard) push(at time.Time, key uint64, call CallHandler, pl Payload) {
	sh.q.push(at, key, call, pl)
	if sh.q.len() > sh.maxDepth {
		sh.maxDepth = sh.q.len()
	}
}

// runShard executes shard i's events with at < end, in (at, key) order.
// Events the shard posts to itself inside the window are picked up by the
// same loop; cross-shard posts go to mailboxes.
//
//gcopss:hotpath
func (s *ShardedScheduler) runShard(i int, end time.Time) int {
	sh := s.shards[i]
	n := 0
	for endNs := end.UnixNano(); sh.q.len() > 0 && sh.q.minNs() < endNs; n++ {
		ev := sh.q.pop()
		ev.call(ev.at, ev.pl)
	}
	sh.processed += uint64(n)
	return n
}

// drainMail moves every staged cross-shard event into its destination heap
// and folds mailbox residency into the destinations' queue high-water marks.
// Called at barriers only (single-threaded).
func (s *ShardedScheduler) drainMail() {
	p := s.prof
	for si, sh := range s.shards {
		for d, box := range sh.mail {
			if len(box) == 0 {
				continue
			}
			if p != nil {
				p.noteMailDepth(si, len(box))
			}
			s.preLens[d] += len(box)
			for _, ev := range box {
				s.shards[d].push(ev.at, ev.key, ev.call, ev.pl)
			}
			sh.mail[d] = box[:0]
		}
	}
	for d, depth := range s.preLens {
		if depth > s.shards[d].maxDepth {
			s.shards[d].maxDepth = depth
		}
		s.preLens[d] = 0
	}
}

// computeFloors records every shard's earliest queued event and returns the
// global minimum. Mailboxes are empty whenever this runs (post-barrier).
func (s *ShardedScheduler) computeFloors() (time.Time, bool) {
	var best time.Time
	ok := false
	for i, sh := range s.shards {
		if sh.q.len() == 0 {
			s.hasFloor[i] = false
			continue
		}
		s.hasFloor[i] = true
		s.floors[i] = sh.q.minAt()
		if !ok || s.floors[i].Before(best) {
			best = s.floors[i]
			ok = true
		}
	}
	return best, ok
}

// computeEnds fills s.ends with each working shard's adaptive window end:
// the earliest instant any event still queued on another shard could cause
// an arrival here, capped by the next global event and the deadline. Shards
// without work get their floor-relative cap too so the dispatch loop can
// hand every worker a bound. Returns the latest end (the furthest any shard
// may run ahead), for the width metric.
func (s *ShardedScheduler) computeEnds(tg time.Time, okg bool, deadline time.Time) time.Time {
	dl := deadline.Add(time.Nanosecond)
	var widest time.Time
	for i := range s.shards {
		end := dl
		if okg && tg.Before(end) {
			end = tg
		}
		row := s.closure
		for j := range s.shards {
			if j == i || !s.hasFloor[j] {
				continue
			}
			c := row[j][i]
			if c >= infDur {
				continue
			}
			if t := s.floors[j].Add(c); t.Before(end) {
				end = t
			}
		}
		// The shard's own queue bounds it too: an event at floor_i can leave
		// the shard and return at floor_i + ret[i], still invisible at the
		// next barrier (mailboxes hold it for one window per inter-shard hop).
		if s.hasFloor[i] && s.ret[i] < infDur {
			if t := s.floors[i].Add(s.ret[i]); t.Before(end) {
				end = t
			}
		}
		s.ends[i] = end
		if s.hasFloor[i] && end.After(widest) {
			widest = end
		}
	}
	return widest
}

// RunUntil executes events with time ≤ deadline, in the canonical (time,
// global-first, key) order; later events stay queued. It returns the number
// executed.
func (s *ShardedScheduler) RunUntil(deadline time.Time) uint64 {
	var t0 time.Time
	if s.prof != nil {
		t0 = time.Now()
	}
	n := s.runWindowed(deadline)
	if s.now.Before(deadline) {
		s.now = deadline
	}
	if s.prof != nil {
		s.prof.wallNs += int64(time.Since(t0))
	}
	return n
}

// runWindowed is the scheduler's one loop. The coordinator is worker 0: it
// computes every shard's window end, hands shards 1…n−1 theirs over a start
// channel, executes shard 0's window itself and then collects the others'
// done values. With one shard the starts[1:] loops are empty — no goroutine,
// no channel operation, and end_0 = min(next global, deadline). Workers are
// spawned per call and torn down on return.
func (s *ShardedScheduler) runWindowed(deadline time.Time) uint64 {
	for i := 1; i < len(s.starts); i++ {
		c := make(chan time.Time)
		s.starts[i] = c
		s.wg.Add(1)
		go func(i int) {
			defer s.wg.Done()
			// prof is fixed before RunUntil; the coordinator reads
			// curExec/curEvents only after receiving this shard's done
			// value, so the channel is the happens-before edge.
			p := s.prof
			for end := range c {
				if p != nil {
					t0 := time.Now()
					k := s.runShard(i, end)
					p.curExec[i] = int64(time.Since(t0))
					p.curEvents[i] = k
					s.done <- k
				} else {
					s.done <- s.runShard(i, end)
				}
			}
		}(i)
	}
	defer func() {
		for _, c := range s.starts[1:] {
			close(c)
		}
		s.wg.Wait()
	}()
	var n uint64
	for {
		tg, okg := s.global.NextAt()
		tn, okn := s.computeFloors()
		// Global events run first at ties, single-threaded.
		if okg && (!okn || !tg.After(tn)) {
			if tg.After(deadline) {
				return n
			}
			if p := s.prof; p != nil {
				t0 := time.Now()
				n += s.global.RunUntil(tg)
				p.globalNs += int64(time.Since(t0))
			} else {
				n += s.global.RunUntil(tg)
			}
			if g := s.global.Now(); g.After(s.now) {
				s.now = g
			}
			continue
		}
		if !okn || tn.After(deadline) {
			return n
		}
		// The per-shard end computation is part of the window's cost; start
		// the window clock before it so the profiler attributes it.
		p := s.prof
		var wStart time.Time
		if p != nil {
			wStart = time.Now()
		}
		widest := s.computeEnds(tg, okg, deadline)
		s.windows++
		minEnd := time.Time{}
		for i, sh := range s.shards {
			s.preLens[i] = sh.q.len()
			if s.hasFloor[i] && (minEnd.IsZero() || s.ends[i].Before(minEnd)) {
				minEnd = s.ends[i]
			}
		}
		s.parallel = true
		for i, c := range s.starts[1:] {
			c <- s.ends[i+1]
		}
		k := s.runShard(0, s.ends[0])
		stalled := k == 0
		// The window's wall time runs to the last shard's finish. Shard 0's
		// execution is everything the coordinator did up to its own finish
		// (end computation and dispatch included — worker 0's work), so with
		// one shard wall == exec exactly and no barrier wait is invented.
		var wall int64
		if p != nil {
			wall = int64(time.Since(wStart))
			p.curExec[0], p.curEvents[0] = wall, k
		}
		for range s.starts[1:] {
			ki := <-s.done
			if p != nil {
				wall = int64(time.Since(wStart))
			}
			if ki == 0 {
				stalled = true
			}
			k += ki
		}
		s.parallel = false
		s.nodeProcessed += uint64(k)
		n += uint64(k)
		if stalled {
			s.windowStalls++
		}
		// The mailbox drain is serial barrier work, timed on its own.
		var dStart time.Time
		if p != nil {
			p.recordWindow(s.windows-1, wall, tn, widest, s.ends)
			dStart = time.Now()
		}
		s.drainMail()
		if p != nil {
			p.drainNs += int64(time.Since(dStart))
		}
		// The global clock advances to the narrowest window end: everything
		// strictly before it has executed; wider shards merely ran ahead.
		if minEnd.After(s.now) {
			s.now = minEnd
		}
		if s.now.After(deadline) {
			s.now = deadline
		}
	}
}
