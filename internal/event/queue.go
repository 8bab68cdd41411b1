package event

import (
	"cmp"
	"math/bits"
	"slices"
	"time"
)

// qkey is one queued event's place in the execution order: its time (ord),
// its tie-break key (see Scheduler for the layout) and the slab slot holding
// the event itself. Buckets move only these 24 bytes.
type qkey struct {
	ns   uint64
	key  uint64
	slot int32
}

func byKey(a, b qkey) int { return cmp.Compare(a.key, b.key) }

// ord maps Unix nanoseconds onto uint64 in the same order.
func ord(ns int64) uint64 { return uint64(ns) ^ 1<<63 }

// pending is a queued event's callback and argument, in the slab until pop.
type pending struct {
	call CallHandler
	pl   Payload
}

// record is a popped event.
type record struct {
	at   time.Time
	call CallHandler
	pl   Payload
}

const blockLen = 128

// block is one link of a bucket's chain, recycled through the queue's spare
// list: per-bucket slices raised the backbone run's allocated bytes by 46 %.
type block struct {
	next *block
	n    int
	keys [blockLen]qkey
}

// chain is one bucket: blocks appended at the tail, in no order.
type chain struct{ head, tail *block }

// eventQueue is the Scheduler's queue: a monotone radix queue of qkeys over a
// slab of pending events whose slots are recycled through a free list, so
// the slab never grows beyond the largest number of events pending at once.
//
// Every queued key has ns ≥ base. Keys with ns == base wait in cur, sorted by
// key; a key with ns > base waits in bucket bits.Len64(ns^base)-1, below
// every key of the buckets above. When cur runs dry, refill makes the lowest
// bucket's minimum the new base and hands each of its keys to cur or a lower
// bucket, so a key moves a few times, at most 64. The scheduler clamps pushes
// to its clock, so one lands below base only after a peek has refilled and
// RunUntil stopped the clock short of it; it re-bases the queue.
//
// (ns, key) is the (time.Time, key) order for the instants the scheduler
// accepts — built from time.Unix and Add, so without a monotonic reading and
// within UnixNano's range (years 1678 to 2262) — and time.Unix(0, ns) gives
// a popped event's time back.
type eventQueue struct {
	base     uint64
	cur      []qkey // cur[head:] is pending
	head     int
	buckets  [64]chain
	nonEmpty uint64 // bit i set when buckets[i] holds keys
	spare    *block
	n        int
	slab     []pending
	free     []int32
}

func (q *eventQueue) len() int { return q.n }

// minNs and minAt peek at the earliest event; the queue must not be empty.
func (q *eventQueue) minNs() int64 {
	if q.head == len(q.cur) {
		q.refill()
	}
	return int64(q.base ^ 1<<63)
}

func (q *eventQueue) minAt() time.Time { return time.Unix(0, q.minNs()) }

// grow reserves room for n pending events so that push neither grows the
// slab nor allocates a block.
func (q *eventQueue) grow(n int) {
	if cap(q.slab) >= n {
		return
	}
	q.slab = append(make([]pending, 0, n), q.slab...)
	q.free = append(make([]int32, 0, n), q.free...)
	blocks := make([]block, n/blockLen+len(q.buckets))
	for i := range blocks {
		q.release(&blocks[i])
	}
}

// push queues one event. Part of the scheduler inner loop: no closures, no
// boxing, and no allocation once the slab, cur and the spare blocks have
// grown to the largest backlog (TestPostNodeSteadyStateAllocFree).
func (q *eventQueue) push(at time.Time, key uint64, call CallHandler, pl Payload) {
	var slot int32
	if n := len(q.free); n > 0 {
		slot = q.free[n-1]
		q.free = q.free[:n-1]
	} else {
		slot = int32(len(q.slab))
		q.slab = append(q.slab, pending{})
	}
	q.slab[slot] = pending{call: call, pl: pl}
	k := qkey{ns: ord(at.UnixNano()), key: key, slot: slot}
	if q.n == 0 {
		q.cur, q.head, q.base = q.cur[:0], 0, k.ns
	}
	q.n++
	switch {
	case k.ns > q.base:
		q.add(k)
	case k.ns < q.base:
		q.rebase(k.ns)
		q.cur = append(q.cur, k)
	case q.head == len(q.cur) || q.cur[len(q.cur)-1].key <= k.key:
		q.cur = append(q.cur, k)
	default:
		i, _ := slices.BinarySearchFunc(q.cur[q.head:], k, byKey)
		q.cur = slices.Insert(q.cur, q.head+i, k)
	}
}

// pop removes and returns the earliest event. Same inner-loop discipline as
// push.
func (q *eventQueue) pop() record {
	if q.head == len(q.cur) {
		q.refill()
	}
	k := q.cur[q.head]
	q.head++
	q.n--
	p := q.slab[k.slot]
	q.slab[k.slot] = pending{} // release the callback and payload for GC
	q.free = append(q.free, k.slot)
	return record{at: time.Unix(0, int64(k.ns^1<<63)), call: p.call, pl: p.pl}
}

// add files a key with ns > base into its bucket.
func (q *eventQueue) add(k qkey) {
	i := bits.Len64(k.ns^q.base) - 1
	c := &q.buckets[i]
	b := c.tail
	if b == nil || b.n == blockLen {
		nb := q.spare
		if nb == nil {
			nb = new(block)
		} else {
			q.spare, nb.next = nb.next, nil
		}
		if b == nil {
			c.head = nb
			q.nonEmpty |= 1 << i
		} else {
			b.next = nb
		}
		c.tail, b = nb, nb
	}
	b.keys[b.n] = k
	b.n++
}

func (q *eventQueue) release(b *block) {
	b.n, b.next, q.spare = 0, q.spare, b
}

// refill moves the earliest time's keys into cur, which must be drained, and
// the rest of their bucket into lower buckets. The queue must not be empty.
func (q *eventQueue) refill() {
	q.cur, q.head = q.cur[:0], 0
	i := bits.TrailingZeros64(q.nonEmpty)
	c := q.buckets[i]
	q.buckets[i], q.nonEmpty = chain{}, q.nonEmpty&^(1<<i)
	q.base = ^uint64(0)
	for b := c.head; b != nil; b = b.next {
		for _, k := range b.keys[:b.n] {
			q.base = min(q.base, k.ns)
		}
	}
	q.refile(c)
	// A fan-out's copies travel together, so cur is usually in key order.
	for j := 1; j < len(q.cur); j++ {
		if q.cur[j].key < q.cur[j-1].key {
			slices.SortFunc(q.cur, byKey)
			break
		}
	}
}

// refile hands every key of chain c to cur (ns == base) or to its bucket,
// and returns c's blocks to the spare list as they are read out.
func (q *eventQueue) refile(c chain) {
	for b := c.head; b != nil; {
		for _, k := range b.keys[:b.n] {
			if k.ns == q.base {
				q.cur = append(q.cur, k)
			} else {
				q.add(k)
			}
		}
		next := b.next
		q.release(b)
		b = next
	}
}

// rebase lowers base to ns, below every queued key, by filing every key
// again. It is rare (see eventQueue) and allocates nothing in a warm queue.
func (q *eventQueue) rebase(ns uint64) {
	old := q.buckets
	q.buckets, q.nonEmpty, q.base = [64]chain{}, 0, ns
	for _, k := range q.cur[q.head:] {
		q.add(k)
	}
	q.cur, q.head = q.cur[:0], 0
	for _, c := range old {
		q.refile(c)
	}
}
