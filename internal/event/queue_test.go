package event

import (
	"cmp"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"
)

// checkHeapOps replays an op stream on an eventQueue and on a sorted-slice
// model. Each op is two bytes: the first picks pop (1 in 4) or push, the
// second, on a push, picks one of eight times (so ties are common) and an
// arbitrary key. It checks that pops come out in sort.Slice-by-(ns, key)
// order with the record that was pushed under that pair, and that slab slots
// are recycled: the slab never outgrows the largest pending count.
func checkHeapOps(t testing.TB, ops []byte) {
	type ref struct {
		ns  int64
		key uint64
		id  int64
	}
	var (
		h         eventQueue
		pending   []ref
		highWater int
		nextID    int64
	)
	pop := func() {
		sort.Slice(pending, func(i, j int) bool {
			if pending[i].ns != pending[j].ns {
				return pending[i].ns < pending[j].ns
			}
			return pending[i].key < pending[j].key
		})
		want := pending[0]
		pending = pending[1:]
		if h.minNs() != want.ns || h.minAt().UnixNano() != want.ns {
			t.Fatalf("min is ns=%d at=%d, want %d", h.minNs(), h.minAt().UnixNano(), want.ns)
		}
		got := h.pop()
		// Equal (ns, key) pairs may pop in either order; the record must
		// still be one pushed under exactly this pair.
		pushed := got.pl.Ptr.(*ref)
		if got.at.UnixNano() != want.ns || pushed.ns != want.ns || pushed.key != want.key || pushed.id != got.pl.Int {
			t.Fatalf("popped record %+v (at %d), want (ns, key) = (%d, %d)", *pushed, got.at.UnixNano(), want.ns, want.key)
		}
	}
	for i := 0; i+1 < len(ops); i += 2 {
		if ops[i]%4 == 0 {
			if len(pending) > 0 {
				pop()
			}
		} else {
			r := &ref{ns: int64(ops[i+1] % 8), key: uint64(ops[i+1]>>3) ^ uint64(ops[i])<<8, id: nextID}
			nextID++
			pending = append(pending, *r)
			h.push(time.Unix(0, r.ns), r.key, noopCall, Payload{Int: r.id, Ptr: r})
		}
		if len(pending) > highWater {
			highWater = len(pending)
		}
		if h.len() != len(pending) {
			t.Fatalf("len = %d, want %d", h.len(), len(pending))
		}
		if len(h.slab) > highWater || len(h.slab) != h.len()+len(h.free) {
			t.Fatalf("slab holds %d slots for %d queued + %d free, high water %d",
				len(h.slab), h.len(), len(h.free), highWater)
		}
	}
	for len(pending) > 0 {
		pop()
	}
	if h.len() != 0 {
		t.Fatalf("%d events left after the model drained", h.len())
	}
}

func TestHeapPopsInSortedOrder(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		ops := make([]byte, 2*(1+r.Intn(400)))
		r.Read(ops)
		checkHeapOps(t, ops)
	}
}

func FuzzEventHeap(f *testing.F) {
	f.Add([]byte{1, 0, 1, 0, 0, 0, 0, 0})             // equal (ns, key) twice, then drained
	f.Add([]byte{1, 7, 1, 6, 1, 5, 0, 0, 1, 4, 0, 0}) // descending times around pops
	f.Add([]byte{0, 0, 2, 255, 3, 255, 0, 0})         // pop on empty, same time different keys
	f.Fuzz(func(t *testing.T, ops []byte) { checkHeapOps(t, ops) })
}

// TestClampedPostOrdersByClampedTime: a post into the past is clamped to the
// current time, and it must queue under that time, not under the one asked
// for — otherwise it would overtake an event posted earlier for "now".
func TestClampedPostOrdersByClampedTime(t *testing.T) {
	now := epoch.Add(ms(10))
	var order []int64
	var sawAt []time.Time
	record := func(at time.Time, pl Payload) {
		order = append(order, pl.Int)
		sawAt = append(sawAt, at)
	}

	s := NewScheduler(epoch)
	s.RunUntil(now)
	s.PostNode(now, 1, record, Payload{Int: 1})
	s.PostNode(now.Add(-ms(5)), 2, record, Payload{Int: 2}) // clamped: ties on time, loses on key
	s.RunUntil(now.Add(ms(1)))

	g := NewScheduler(epoch)
	g.RunUntil(now)
	g.AtCall(now, record, Payload{Int: 3})
	g.AtCall(now.Add(-time.Hour), record, Payload{Int: 4}) // clamped: ties on time, loses on sequence
	g.Run(0)

	if want := []int64{1, 2, 3, 4}; len(order) != 4 || order[0] != 1 || order[1] != 2 || order[2] != 3 || order[3] != 4 {
		t.Fatalf("execution order %v, want %v", order, want)
	}
	for i, at := range sawAt {
		if !at.Equal(now) {
			t.Errorf("event %d ran at %v, want the clamped time %v", order[i], at, now)
		}
	}
}

// TestPostNodeSteadyStateAllocFree: once the queue has grown, posting a keyed
// event and running it allocates nothing and recycles one slab slot; nor do
// At + Step (At carries its Handler in Payload.Ptr, which must not box) or a
// whole RunUntil over a global and a keyed event.
func TestPostNodeSteadyStateAllocFree(t *testing.T) {
	s := NewScheduler(epoch)
	s.Preallocate(1024)
	at := epoch.Add(ms(1))
	allocs := testing.AllocsPerRun(1000, func() {
		s.PostNode(at, 7, noopCall, Payload{})
		s.Step()
	})
	if allocs != 0 {
		t.Errorf("PostNode + Step allocated %.1f per op in steady state, want 0", allocs)
	}
	if n := len(s.q.slab); n != 1 {
		t.Errorf("slab grew to %d slots with one event pending at a time: slots are not recycled", n)
	}
	tick := Handler(func(time.Time) {})
	allocs = testing.AllocsPerRun(1000, func() {
		s.At(at, tick)
		s.Step()
	})
	if allocs != 0 {
		t.Errorf("At + Step allocated %.1f per op in steady state, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(1000, func() {
		now := s.Now()
		s.At(now.Add(ms(1)), tick)
		s.PostNode(now.Add(ms(1)), 7, noopCall, Payload{})
		if n := s.RunUntil(now.Add(ms(2))); n != 2 {
			t.Fatalf("RunUntil ran %d events, want 2", n)
		}
	})
	if allocs != 0 {
		t.Errorf("RunUntil allocated %.1f per call, want 0", allocs)
	}
}

// TestQueueWideTimes checks the queue against a sorted model on times spread
// over 2^40 ns, so keys use every bucket up to 40, chains span several
// blocks, and pops interleave with pushes both above the current minimum
// (the scheduler's monotone case) and below it (a re-base).
func TestQueueWideTimes(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for round := 0; round < 20; round++ {
		var q eventQueue
		var model []qkey
		var floor int64 // last popped time; monotone pushes stay at or above it
		for op := 0; op < 6000; op++ {
			if r.Intn(3) == 0 && len(model) > 0 {
				slices.SortFunc(model, func(a, b qkey) int {
					if c := cmp.Compare(a.ns, b.ns); c != 0 {
						return c
					}
					return byKey(a, b)
				})
				want := model[0]
				model = model[1:]
				got := q.pop()
				if ns := got.at.UnixNano(); ord(ns) != want.ns || uint64(got.pl.Int) != want.key {
					t.Fatalf("round %d op %d: popped (%d, %d), want (%d, %d)",
						round, op, ns, got.pl.Int, int64(want.ns^1<<63), want.key)
				}
				floor = got.at.UnixNano()
				continue
			}
			ns := floor + r.Int63n(1<<40)
			if r.Intn(8) == 0 {
				ns = r.Int63n(1 << 40) // may lie below the queue's minimum
			}
			if r.Intn(4) == 0 {
				ns = floor // a tie with the instant just popped
			}
			key := uint64(op)<<8 | uint64(r.Intn(256))
			model = append(model, qkey{ns: ord(ns), key: key})
			q.push(time.Unix(0, ns), key, noopCall, Payload{Int: int64(key)})
		}
		if q.len() != len(model) {
			t.Fatalf("len = %d, want %d", q.len(), len(model))
		}
	}
}

// TestRunUntilShortThenEarlierPush: RunUntil peeks at the next event, which
// moves the queue's base up to it, then stops the clock short of it. An
// event posted between the deadline and that event lies below the base and
// must still run first, and in steady state posting it allocates nothing.
func TestRunUntilShortThenEarlierPush(t *testing.T) {
	s := NewScheduler(epoch)
	s.Preallocate(64)
	var order []int64
	rec := func(_ time.Time, pl Payload) { order = append(order, pl.Int) }
	late := epoch.Add(ms(10))
	s.PostNode(late, 1, rec, Payload{Int: 2})
	s.RunUntil(epoch.Add(ms(5)))
	s.AtCall(epoch.Add(ms(7)), rec, Payload{Int: 1})
	s.RunUntil(epoch.Add(ms(20)))
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("execution order %v, want [1 2]", order)
	}
	allocs := testing.AllocsPerRun(100, func() {
		now := s.Now()
		for i := int64(0); i < 3; i++ {
			s.PostNode(now.Add(ms(10+i)), uint64(i), noopCall, Payload{})
		}
		s.RunUntil(now.Add(ms(5)))
		s.AtCall(now.Add(ms(7)), noopCall, Payload{})
		if n := s.RunUntil(now.Add(ms(20))); n != 4 {
			t.Fatalf("RunUntil ran %d events, want 4", n)
		}
	})
	if allocs != 0 {
		t.Errorf("a re-basing push allocated %.1f per round, want 0", allocs)
	}
}

// BenchmarkEventQueue drives the scheduler with a backbone-shaped load: a
// backlog of about 25 000 keyed events, every eighth of which fans out into
// eight deliveries at one instant (the ties a router's fan-out makes), each
// posted a link delay of 0.1 to 5 ms ahead of the clock. One op is one
// event run.
func BenchmarkEventQueue(b *testing.B) {
	const backlog = 25_000
	s := NewScheduler(epoch)
	s.Preallocate(backlog + 64)
	var seq uint64
	var fan CallHandler
	fan = func(now time.Time, pl Payload) {
		if pl.Int%8 != 0 {
			return
		}
		at := now.Add(time.Duration(100+(pl.Int*2654435761)%4900)*time.Microsecond + time.Duration(pl.Int%977))
		for i := 0; i < 8; i++ {
			seq++
			s.PostNode(at, uint64(i)<<32|seq, fan, Payload{Int: int64(seq)})
		}
	}
	for i := 0; i < backlog; i++ {
		seq++
		s.PostNode(epoch.Add(time.Duration(i)*200*time.Nanosecond), seq, fan, Payload{Int: int64(seq)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if n := s.Run(uint64(b.N)); n != uint64(b.N) {
		b.Fatalf("ran %d events, want %d", n, b.N)
	}
}
