package event

import "time"

// heapKey is one queued event's place in the execution order: its time in
// Unix nanoseconds, its tie-break key (see Scheduler for the layout), and the
// slab slot holding the event itself. Sifting moves only these 24 bytes and
// compares two integers.
type heapKey struct {
	ns   int64
	key  uint64
	slot int32
}

func (a heapKey) before(b heapKey) bool {
	if a.ns != b.ns {
		return a.ns < b.ns
	}
	return a.key < b.key
}

// record is a queued event's callback, argument and scheduled time. It sits
// in the slab from push to pop and never moves in between.
type record struct {
	at   time.Time
	call CallHandler
	pl   Payload
}

// eventHeap is the Scheduler's queue: a binary min-heap of heapKeys ordered
// by (ns, key) over a slab of records whose slots are recycled through a free
// list, so the slab never grows beyond the largest number of events pending
// at once.
//
// (ns, key) is the same total order as (time.Time, key) for the times the
// scheduler accepts: virtual instants built from time.Unix and Add, which
// carry no monotonic reading (so Before/Equal compare exactly the instant
// UnixNano returns) and lie within UnixNano's range, years 1678 to 2262.
type eventHeap struct {
	keys []heapKey
	slab []record
	free []int32
}

func (h *eventHeap) len() int { return len(h.keys) }

// minNs and minAt peek at the earliest event; the heap must not be empty.
func (h *eventHeap) minNs() int64     { return h.keys[0].ns }
func (h *eventHeap) minAt() time.Time { return h.slab[h.keys[0].slot].at }

// grow reserves room for n pending events so that push does not reallocate.
func (h *eventHeap) grow(n int) {
	if cap(h.keys) >= n {
		return
	}
	h.keys = append(make([]heapKey, 0, n), h.keys...)
	h.slab = append(make([]record, 0, n), h.slab...)
	h.free = append(make([]int32, 0, n), h.free...)
}

// push queues one event. Part of the scheduler inner loop: no closures, no
// boxing, and no allocation beyond amortized slice growth.
//
//gcopss:hotpath
func (h *eventHeap) push(at time.Time, key uint64, call CallHandler, pl Payload) {
	var slot int32
	if n := len(h.free); n > 0 {
		slot = h.free[n-1]
		h.free = h.free[:n-1]
	} else {
		slot = int32(len(h.slab))
		h.slab = append(h.slab, record{})
	}
	h.slab[slot] = record{at: at, call: call, pl: pl}
	k := heapKey{ns: at.UnixNano(), key: key, slot: slot}
	h.keys = append(h.keys, k)
	ks := h.keys
	i := len(ks) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !k.before(ks[parent]) {
			break
		}
		ks[i] = ks[parent]
		i = parent
	}
	ks[i] = k
}

// pop removes and returns the earliest event. Same inner-loop discipline as
// push.
//
//gcopss:hotpath
func (h *eventHeap) pop() record {
	ks := h.keys
	slot := ks[0].slot
	// Read the record before sifting: its slot is anywhere in the slab, and
	// the load can then miss the cache while the sift below does its own.
	rec := h.slab[slot]
	n := len(ks) - 1
	k := ks[n]
	ks = ks[:n]
	h.keys = ks
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && ks[r].before(ks[c]) {
			c = r
		}
		if !ks[c].before(k) {
			break
		}
		ks[i] = ks[c]
		i = c
	}
	if n > 0 {
		ks[i] = k
	}
	h.slab[slot] = record{} // release the callback and payload for GC
	h.free = append(h.free, slot)
	return rec
}
