package ndn

import (
	"container/list"
	"time"
)

// ContentStore is the router's buffer memory that caches Data packets, with
// LRU replacement and optional freshness-based expiry. Gaming traffic ages
// out of caches quickly (the paper notes "the cache ages out quickly in a
// gaming scenario"), which the MaxAge knob models.
type ContentStore struct {
	capacity int
	maxAge   time.Duration // 0 means no age limit
	items    map[string]*list.Element
	order    *list.List // front = most recently used

	hits   uint64
	misses uint64
}

type csItem struct {
	name     string
	payload  []byte
	inserted time.Time
}

// NewContentStore creates a store holding at most capacity Data packets.
// capacity <= 0 disables caching entirely (every Get misses). maxAge <= 0
// disables freshness expiry.
func NewContentStore(capacity int, maxAge time.Duration) *ContentStore {
	return &ContentStore{
		capacity: capacity,
		maxAge:   maxAge,
		items:    make(map[string]*list.Element),
		order:    list.New(),
	}
}

// Put caches a copy of payload under name, evicting the least recently used
// entry if the store is full. The store is the one place that retains payload
// bytes, so it always copies: a cached object never pins the frame it arrived
// in, and replacing an entry never writes the array an earlier Get handed out
// (an emitted Data packet may still carry it; DESIGN.md §11 rule 1).
func (c *ContentStore) Put(name string, payload []byte, now time.Time) {
	if c.capacity <= 0 {
		return
	}
	n := canonicalPrefix(name)
	if el, ok := c.items[n]; ok {
		item := el.Value.(*csItem)
		item.payload = append([]byte(nil), payload...)
		item.inserted = now
		c.order.MoveToFront(el)
		return
	}
	for len(c.items) >= c.capacity {
		oldest := c.order.Back()
		if oldest == nil {
			break
		}
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*csItem).name)
	}
	el := c.order.PushFront(&csItem{name: n, payload: append([]byte(nil), payload...), inserted: now})
	c.items[n] = el
}

// Get returns the cached payload for name if present and fresh.
func (c *ContentStore) Get(name string, now time.Time) ([]byte, bool) {
	n := canonicalPrefix(name)
	el, ok := c.items[n]
	if !ok {
		c.misses++
		return nil, false
	}
	item := el.Value.(*csItem)
	if c.maxAge > 0 && now.Sub(item.inserted) > c.maxAge {
		c.order.Remove(el)
		delete(c.items, n)
		c.misses++
		return nil, false
	}
	c.order.MoveToFront(el)
	c.hits++
	return item.payload, true
}

// Len returns the number of cached entries.
func (c *ContentStore) Len() int { return len(c.items) }

// Stats returns cumulative hit and miss counts.
func (c *ContentStore) Stats() (hits, misses uint64) { return c.hits, c.misses }
