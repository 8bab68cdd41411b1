// Package event provides the discrete-event scheduler shared by the
// packet-level testbed and the trace-driven simulator: a time-ordered event
// heap with deterministic FIFO tie-breaking.
package event

import (
	"time"
)

// Handler is an event callback; it runs at its scheduled virtual time and
// may schedule further events.
type Handler func(now time.Time)

// Payload is a pre-bound argument for AtCall events. It exists so that hot
// schedulers (the testbed transmits one event per packet copy) can enqueue
// a delivery without allocating a fresh closure per event: an integer (the
// testbed packs node index and face into it) and a pointer cover a
// (node, face, packet)-shaped argument, and storing a pointer in Ptr does not
// allocate.
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

// Scheduler is a virtual-time discrete-event loop. The zero value is not
// usable; create with NewScheduler. Events wait in an eventHeap keyed by
// (time, insertion sequence): pushing one costs no allocation beyond
// amortized slice growth.
type Scheduler struct {
	now       time.Time
	seq       uint64
	q         eventHeap
	processed uint64
}

// NewScheduler starts virtual time at the given origin.
func NewScheduler(origin time.Time) *Scheduler {
	return &Scheduler{now: origin}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Time { return s.now }

// Pending returns the number of queued events.
func (s *Scheduler) Pending() int { return s.q.len() }

// NextAt peeks at the earliest queued event time; ok is false when the queue
// is empty.
func (s *Scheduler) NextAt() (at time.Time, ok bool) {
	if s.q.len() == 0 {
		return time.Time{}, false
	}
	return s.q.minAt(), true
}

// Processed returns the number of events executed so far.
func (s *Scheduler) Processed() uint64 { return s.processed }

// At schedules fn at an absolute virtual time. Times in the past run at the
// current time (immediately on the next step), preserving causality. at must
// be a virtual instant — built from time.Unix and Add, never time.Now — so
// that the queue's integer (UnixNano, sequence) order is the time.Time order;
// see eventHeap.
func (s *Scheduler) At(at time.Time, fn Handler) {
	s.AtCall(at, runHandler, Payload{Ptr: fn})
}

// AtCall schedules fn(now, pl) at an absolute virtual time, under At's
// contract on at. Unlike At it needs no closure: callers bind the argument
// through pl, so the hot path performs zero allocations per event.
func (s *Scheduler) AtCall(at time.Time, fn CallHandler, pl Payload) {
	if at.Before(s.now) {
		at = s.now
	}
	s.seq++
	s.q.push(at, s.seq, fn, pl)
}

// After schedules fn after a delay from the current virtual time.
func (s *Scheduler) After(d time.Duration, fn Handler) {
	s.At(s.now.Add(d), fn)
}

// Step executes the next event; it reports whether one was available.
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
func (s *Scheduler) RunUntil(deadline time.Time) uint64 {
	var n uint64
	for dl := deadline.UnixNano(); s.q.len() > 0 && s.q.minNs() <= dl; n++ {
		s.Step()
	}
	if s.now.Before(deadline) {
		s.now = deadline
	}
	return n
}
