package ndn

import "time"

// ContentStore is the router's buffer memory that caches Data packets, with
// LRU replacement and optional freshness-based expiry. Gaming traffic ages
// out of caches quickly (the paper notes "the cache ages out quickly in a
// gaming scenario"), which the MaxAge knob models.
//
// Entries are value slots in a slab, linked into the LRU list by index (slot
// 0 is the sentinel: next = most recently used, prev = least); expired slots
// are chained through next on a free list, and eviction reuses its victim's.
// A slot keeps its payload array across entries until a Get lends it out.
type ContentStore struct {
	capacity int
	maxAge   time.Duration // 0 means no age limit
	index    map[string]int32
	slots    []csSlot
	free     int32 // first free slot, 0 when none

	hits   uint64
	misses uint64
}

type csSlot struct {
	name       string
	payload    []byte
	inserted   time.Time
	prev, next int32
	lent       bool // a Get has returned payload, so its array is never written again
}

// NewContentStore creates a store holding at most capacity Data packets.
// capacity <= 0 disables caching entirely (every Get misses). maxAge <= 0
// disables freshness expiry.
func NewContentStore(capacity int, maxAge time.Duration) *ContentStore {
	return &ContentStore{
		capacity: capacity,
		maxAge:   maxAge,
		index:    make(map[string]int32),
		slots:    make([]csSlot, 1),
	}
}

// Put caches a copy of payload under name, evicting the least recently used
// entry if the store is full. The store is the one place that retains payload
// bytes, so it always copies: a cached object never pins the frame it arrived
// in. The copy goes into the array the replaced or evicted slot already owns
// when no Get has returned that array and it is big enough; an array a Get
// handed out is never written again (an emitted Data packet may still carry
// it; DESIGN.md §11 rule 1). So a full store's Put allocates only when its
// victim was lent or too small (TestEngineSteadyStateAllocs).
func (c *ContentStore) Put(name string, payload []byte, now time.Time) {
	if c.capacity <= 0 {
		return
	}
	n := canonicalPrefix(name)
	i, ok := c.index[n]
	switch {
	case ok:
		c.unlink(i)
	case len(c.index) >= c.capacity:
		i = c.slots[0].prev
		c.unlink(i)
		delete(c.index, c.slots[i].name)
	case c.free != 0:
		i = c.free
		c.free = c.slots[i].next
	default:
		i = int32(len(c.slots))
		c.slots = append(c.slots, csSlot{})
	}
	s := &c.slots[i]
	var cp []byte
	if !s.lent && cap(s.payload) >= len(payload) {
		cp = s.payload[:len(payload)]
		copy(cp, payload)
	} else {
		cp = append([]byte(nil), payload...)
	}
	*s = csSlot{name: n, payload: cp, inserted: now}
	c.pushFront(i)
	c.index[n] = i
}

// Get returns the cached payload for name if present and fresh, clipped to
// its length so a caller's append cannot reach the store's spare capacity.
func (c *ContentStore) Get(name string, now time.Time) ([]byte, bool) {
	n := canonicalPrefix(name)
	i, ok := c.index[n]
	if !ok {
		c.misses++
		return nil, false
	}
	c.unlink(i)
	if c.maxAge > 0 && now.Sub(c.slots[i].inserted) > c.maxAge {
		delete(c.index, n)
		s := &c.slots[i]
		*s = csSlot{payload: s.payload, lent: s.lent, next: c.free}
		c.free = i
		c.misses++
		return nil, false
	}
	c.pushFront(i)
	c.hits++
	s := &c.slots[i]
	s.lent = true
	return s.payload[:len(s.payload):len(s.payload)], true
}

func (c *ContentStore) unlink(i int32) {
	s := &c.slots[i]
	c.slots[s.prev].next = s.next
	c.slots[s.next].prev = s.prev
}

func (c *ContentStore) pushFront(i int32) {
	first := c.slots[0].next
	c.slots[i].prev, c.slots[i].next = 0, first
	c.slots[first].prev = i
	c.slots[0].next = i
}

// Len returns the number of cached entries.
func (c *ContentStore) Len() int { return len(c.index) }

// Stats returns cumulative hit and miss counts.
func (c *ContentStore) Stats() (hits, misses uint64) { return c.hits, c.misses }
