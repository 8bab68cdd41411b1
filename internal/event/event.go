// Package event provides the packet-level testbed's discrete-event
// scheduler: one monotone radix queue with a deterministic tie-break.
package event

import (
	"time"
)

// Handler is an event callback; it runs at its scheduled virtual time and
// may schedule further events.
type Handler func(now time.Time)

// Payload is a pre-bound argument for AtCall and PostNode events. It exists so
// that hot schedulers (the testbed transmits one event per packet copy) can
// enqueue a delivery without allocating a fresh closure per event: an
// integer (the testbed packs node index and face into it) and a pointer
// cover a (node, face, packet)-shaped argument, and storing a pointer in Ptr
// does not allocate.
type Payload struct {
	Int int64
	Ptr any
}

// CallHandler is an event callback taking its pre-bound Payload.
type CallHandler func(now time.Time, pl Payload)

// runHandler is the CallHandler behind At: the Handler rides in Payload.Ptr
// (a func value is pointer-shaped, so boxing it does not allocate) and every
// queued event has the one AtCall shape.
func runHandler(now time.Time, pl Payload) { pl.Ptr.(Handler)(now) }

// keyedBit marks a keyed event's heap key. Global events take their
// insertion sequence as key, which never reaches this bit, so at equal times
// every global event sorts before every keyed one whatever the counters
// hold.
const keyedBit = 1 << 63

// Scheduler is a virtual-time discrete-event loop. The zero value is not
// usable; create with NewScheduler.
//
// Every event waits in one eventQueue ordered by (time, key). Global events
// (At, AtCall) are keyed by insertion sequence and keyed events (PostNode) by
// keyedBit | the caller's key, so execution follows the canonical
// (time, global-first, key) order: global events FIFO among themselves, then
// keyed events by key. Pushing an event costs no allocation beyond amortized
// growth of the queue.
type Scheduler struct {
	now       time.Time
	seq       uint64
	q         eventQueue
	processed uint64
}

// NewScheduler starts virtual time at the given origin.
func NewScheduler(origin time.Time) *Scheduler {
	return &Scheduler{now: origin}
}

// Now returns the current virtual time: inside a callback, the time of the
// event being run.
func (s *Scheduler) Now() time.Time { return s.now }

// Pending returns the number of queued events.
func (s *Scheduler) Pending() int { return s.q.len() }

// Processed returns the number of events executed so far.
func (s *Scheduler) Processed() uint64 { return s.processed }

// Preallocate grows the queue to hold n pending events without reallocation,
// so the hot push path performs no growth during a run.
func (s *Scheduler) Preallocate(n int) { s.q.grow(n) }

// At schedules fn at an absolute virtual time. Times in the past run at the
// current time (immediately on the next step), preserving causality. at must
// be a virtual instant — built from time.Unix and Add, never time.Now — so
// that the queue's integer (UnixNano, key) order is the time.Time order and
// the time the callback sees, time.Unix(0, ns), equals at; see eventQueue.
func (s *Scheduler) At(at time.Time, fn Handler) {
	s.AtCall(at, runHandler, Payload{Ptr: fn})
}

// AtCall schedules fn(now, pl) as a global event at an absolute virtual
// time, under At's contract on at. Unlike At it needs no closure: callers
// bind the argument through pl, so the hot path performs zero allocations
// per event.
func (s *Scheduler) AtCall(at time.Time, fn CallHandler, pl Payload) {
	if at.Before(s.now) {
		at = s.now
	}
	s.seq++
	s.q.push(at, s.seq, fn, pl)
}

// PostNode schedules fn(now, pl) as a keyed event at an absolute virtual time,
// under At's contract on at. Keyed events at one instant run after every
// global event there, in ascending key order. key is the caller's canonical
// tie-breaker (the testbed uses linkID<<32|seq): it must be unique among
// keyed events at one instant, and its top bit is reserved. It allocates
// nothing once the queue has grown (TestPostNodeSteadyStateAllocFree).
func (s *Scheduler) PostNode(at time.Time, key uint64, fn CallHandler, pl Payload) {
	if at.Before(s.now) {
		at = s.now
	}
	s.q.push(at, keyedBit|key, fn, pl)
}

// After schedules fn after a delay from the current virtual time.
func (s *Scheduler) After(d time.Duration, fn Handler) {
	s.At(s.now.Add(d), fn)
}

// Step executes the next event; it reports whether one was available. It
// allocates nothing (TestPostNodeSteadyStateAllocFree).
func (s *Scheduler) Step() bool {
	if s.q.len() == 0 {
		return false
	}
	ev := s.q.pop()
	s.now = ev.at
	s.processed++
	ev.call(ev.at, ev.pl)
	return true
}

// StepUntil executes the next event if its time is ≤ deadline and reports
// whether it ran one: the peek and the step of a deadline-bounded loop in
// one call. It leaves the clock alone when nothing is due.
func (s *Scheduler) StepUntil(deadline time.Time) bool {
	if s.q.len() == 0 || s.q.minNs() > deadline.UnixNano() {
		return false
	}
	return s.Step()
}

// Run executes events until the queue drains or maxEvents is reached
// (maxEvents <= 0 means unbounded). It returns the number executed.
func (s *Scheduler) Run(maxEvents uint64) uint64 {
	var n uint64
	for (maxEvents <= 0 || n < maxEvents) && s.Step() {
		n++
	}
	return n
}

// RunUntil executes events with time ≤ deadline; later events stay queued.
// The clock then reads the deadline if it was behind it.
func (s *Scheduler) RunUntil(deadline time.Time) uint64 {
	var n uint64
	for s.StepUntil(deadline) {
		n++
	}
	if s.now.Before(deadline) {
		s.now = deadline
	}
	return n
}

// SchedProfile carries the three scheduler figures the frozen repository
// benchmark (bench/sim.go:209-215) reads off testbed.BackboneResult.Sched.
// They are what one event loop is: no barrier wait, no imbalance, a critical
// path equal to the work. It goes once the benchmark stops reading them.
type SchedProfile struct{}

// BarrierWaitFrac is 0: one loop never waits at a barrier.
func (*SchedProfile) BarrierWaitFrac() float64 { return 0 }

// LoadImbalanceFrac is 0: one loop does all the work.
func (*SchedProfile) LoadImbalanceFrac() float64 { return 0 }

// CritPathSpeedup is 1: the critical path is the whole run.
func (*SchedProfile) CritPathSpeedup() float64 { return 1 }
