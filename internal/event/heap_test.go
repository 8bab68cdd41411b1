package event

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// checkHeapOps replays an op stream on an eventHeap and on a sorted-slice
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
		h         eventHeap
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
		if len(h.slab) > highWater || len(h.slab) != len(h.keys)+len(h.free) {
			t.Fatalf("slab holds %d slots for %d queued + %d free, high water %d",
				len(h.slab), len(h.keys), len(h.free), highWater)
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
	now := laOrigin.Add(ms(10))
	var order []int64
	var sawAt []time.Time
	record := func(at time.Time, pl Payload) {
		order = append(order, pl.Int)
		sawAt = append(sawAt, at)
	}

	s := NewSharded(laOrigin, 1)
	s.RunUntil(now)
	s.PostNode(0, 0, now, 1, record, Payload{Int: 1})
	s.PostNode(0, 0, now.Add(-ms(5)), 2, record, Payload{Int: 2}) // clamped: ties on time, loses on key
	s.RunUntil(now.Add(ms(1)))

	g := NewScheduler(laOrigin)
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
