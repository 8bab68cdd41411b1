package event

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"
)

var epoch = time.Unix(0, 0)

func noopCall(time.Time, Payload) {}

// ms builds a duration in milliseconds.
func ms(n int64) time.Duration { return time.Duration(n) * time.Millisecond }

// refEvent is one event of the reference workload. Keyed events carry a
// canonical key; global events order by insertion sequence.
type refEvent struct {
	at     time.Time
	global bool
	key    uint64 // keyed: the event's id; global: insertion sequence
	id     uint64
}

const refMaxID = 1 << 28 // ids grow two bits per generation from 1<<20: four generations

// refChildren is the workload's causal structure: an event's children are a
// pure function of (seed, parent id), so two executors generate the same
// events whatever order they run them in. A keyed event posts one keyed
// child and sometimes a second, keyed or global; a global event posts one
// keyed child. Delays are whole milliseconds, often zero, so timestamp ties —
// between keys, and between global and keyed events — are common.
func refChildren(seed int64, ev refEvent) []refEvent {
	if ev.id >= refMaxID {
		return nil
	}
	r := rand.New(rand.NewSource(seed ^ int64(ev.id)))
	child := func(c uint64, global bool, delay time.Duration) refEvent {
		id := ev.id<<2 | c
		return refEvent{at: ev.at.Add(delay), global: global, key: id, id: id}
	}
	if ev.global {
		return []refEvent{child(1, false, ms(int64(r.Intn(3))))}
	}
	out := []refEvent{child(1, false, ms(int64(r.Intn(4))))}
	switch r.Intn(4) {
	case 0:
		out = append(out, child(2, true, ms(int64(r.Intn(3)))))
	case 1, 2:
		out = append(out, child(2, false, ms(int64(r.Intn(6)))))
	}
	return out
}

func refRoots(seed int64) []refEvent {
	r := rand.New(rand.NewSource(seed))
	var out []refEvent
	for i := uint64(0); i < 40; i++ {
		id := 1<<20 + i
		out = append(out, refEvent{at: epoch.Add(ms(int64(r.Intn(20)))), global: i%4 == 0, key: id, id: id})
	}
	return out
}

func refRecord(log []string, ev refEvent, now time.Time) []string {
	kind := "k"
	if ev.global {
		kind = "g"
	}
	return append(log, fmt.Sprintf("%s%d@%d ran@%d", kind, ev.id, ev.at.UnixNano(), now.UnixNano()))
}

// strictMerge is the reference executor: one pending list, always running
// the minimum under (time, global-first, key).
func strictMerge(seed int64) []string {
	var log []string
	var seq uint64
	var pending []refEvent
	add := func(evs []refEvent) {
		for _, ev := range evs {
			if ev.global {
				seq++
				ev.key = seq
			}
			pending = append(pending, ev)
		}
	}
	add(refRoots(seed))
	for len(pending) > 0 {
		sort.Slice(pending, func(i, j int) bool {
			a, b := pending[i], pending[j]
			if !a.at.Equal(b.at) {
				return a.at.Before(b.at)
			}
			if a.global != b.global {
				return a.global
			}
			return a.key < b.key
		})
		ev := pending[0]
		pending = pending[1:]
		log = refRecord(log, ev, ev.at)
		add(refChildren(seed, ev))
	}
	return log
}

// runScheduler executes the same workload on a Scheduler: global events
// through At, keyed ones through PostNode.
func runScheduler(t *testing.T, seed int64) []string {
	s := NewScheduler(epoch)
	var log []string
	var post func(ev refEvent)
	run := func(ev refEvent, now time.Time) {
		log = refRecord(log, ev, now)
		for _, c := range refChildren(seed, ev) {
			post(c)
		}
	}
	post = func(ev refEvent) {
		if ev.global {
			s.At(ev.at, func(now time.Time) { run(ev, now) })
			return
		}
		s.PostNode(ev.at, ev.key, func(now time.Time, _ Payload) { run(ev, now) }, Payload{})
	}
	for _, ev := range refRoots(seed) {
		post(ev)
	}
	s.RunUntil(epoch.Add(time.Hour))
	if s.Pending() != 0 {
		t.Fatalf("%d events still pending", s.Pending())
	}
	return log
}

// TestSchedulerMatchesStrictMerge: the scheduler executes a seeded random
// event set — global events, keyed events, events posting further events at
// their own instant and later — in exactly the order of a strict merge by
// (time, global-first, key), each at its scheduled time.
func TestSchedulerMatchesStrictMerge(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		want, got := strictMerge(seed), runScheduler(t, seed)
		globals := 0
		for _, e := range want {
			if e[0] == 'g' {
				globals++
			}
		}
		if len(want) < 100 || globals < 10 {
			t.Fatalf("workload too small to mean anything: %d events, %d global", len(want), globals)
		}
		if len(got) != len(want) {
			t.Fatalf("seed=%d: ran %d events, want %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed=%d: event %d is %s, want %s", seed, i, got[i], want[i])
			}
		}
	}
}

// TestGlobalAndKeyedShareOneNanosecond: at one instant every global event
// runs before every keyed one, whatever order they were posted in and however
// small the keys are against the global sequence, and a global event posted
// by a keyed event at that instant still runs before the remaining keyed
// ones.
func TestGlobalAndKeyedShareOneNanosecond(t *testing.T) {
	s := NewScheduler(epoch)
	at := epoch.Add(ms(1) + 1) // off the millisecond grid
	var order []string
	global := func(tag string) Handler {
		return func(time.Time) { order = append(order, tag) }
	}
	keyed := func(tag string) CallHandler {
		return func(time.Time, Payload) { order = append(order, tag) }
	}
	for i := 0; i < 3; i++ {
		s.At(epoch, func(time.Time) {}) // push the global sequence past the keys below
	}
	s.Run(0)
	s.PostNode(at, 5, keyed("k5"), Payload{})
	s.PostNode(at, 0, func(time.Time, Payload) {
		order = append(order, "k0")
		s.At(at, global("g3"))
	}, Payload{})
	s.At(at, global("g1"))
	s.PostNode(at, 1, keyed("k1"), Payload{})
	s.At(at, global("g2"))
	s.PostNode(at.Add(-1), 9, keyed("early"), Payload{})
	s.At(at.Add(1), global("late"))
	s.RunUntil(at.Add(time.Second))
	want := "[early g1 g2 k0 g3 k1 k5 late]"
	if got := fmt.Sprint(order); got != want {
		t.Errorf("order = %v, want %v", got, want)
	}
}
