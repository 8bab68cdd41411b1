package ndn

import (
	"bytes"
	"container/list"
	"testing"
	"time"
)

// refStore is the container/list Content Store the slab LRU replaced, kept
// as the reference model for FuzzContentStoreLRU.
type refStore struct {
	capacity     int
	maxAge       time.Duration
	items        map[string]*list.Element
	order        *list.List // front = most recently used
	hits, misses uint64
}

type refItem struct {
	name     string
	payload  []byte
	inserted time.Time
}

func (c *refStore) put(name string, payload []byte, now time.Time) {
	if c.capacity <= 0 {
		return
	}
	n := canonicalPrefix(name)
	if el, ok := c.items[n]; ok {
		item := el.Value.(*refItem)
		item.payload = append([]byte(nil), payload...)
		item.inserted = now
		c.order.MoveToFront(el)
		return
	}
	for len(c.items) >= c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*refItem).name)
	}
	c.items[n] = c.order.PushFront(&refItem{name: n, payload: append([]byte(nil), payload...), inserted: now})
}

func (c *refStore) get(name string, now time.Time) ([]byte, bool) {
	n := canonicalPrefix(name)
	el, ok := c.items[n]
	if !ok {
		c.misses++
		return nil, false
	}
	item := el.Value.(*refItem)
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

// FuzzContentStoreLRU drives the store and the reference model with the same
// Put/Get/clock sequence and requires the same hit or miss, payload, Len and
// counters after every step. The first byte picks the capacity (0–4), the
// second the freshness limit (none or 1–7 ticks); each further byte is one
// operation on one of six names, two of them non-canonical spellings, and a
// Put's payload length (0–7) comes from its top bits, so a slot's array is
// both reused and outgrown. It also checks ownership: every slice a Get
// returned is kept with a copy of its bytes and must still equal it after
// every later step, and must have no capacity past its length.
func FuzzContentStoreLRU(f *testing.F) {
	f.Add([]byte{2, 0, 0x00, 0x04, 0x01, 0x08, 0x05, 0x02})
	f.Add([]byte{3, 3, 0x00, 0x06, 0x0c, 0x10, 0x1d, 0x01, 0x0d, 0x09, 0x11})
	f.Add([]byte{1, 1, 0x00, 0x01, 0x1e, 0x01, 0x04, 0x05})
	f.Add([]byte{1, 0, 0x60, 0x01, 0x48, 0x01}) // Put /a (3 B), Get, Put /a (2 B): lent, so not reused
	names := []string{"/a", "a", "/b", "/b/", "/c", "/d/e"}
	type lent struct{ got, want []byte }
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) < 2 {
			return
		}
		capacity, maxAge := int(ops[0]%5), time.Duration(ops[1]%8)*time.Millisecond
		cs := NewContentStore(capacity, maxAge)
		ref := &refStore{capacity: capacity, maxAge: maxAge, items: map[string]*list.Element{}, order: list.New()}
		now := time.Unix(0, 0)
		var kept []lent
		for step, op := range ops[2:] {
			name := names[int(op>>2)%len(names)]
			switch op & 3 {
			case 0, 3:
				payload := make([]byte, op>>5)
				for j := range payload {
					payload[j] = op + byte(step) + byte(j)
				}
				cs.Put(name, payload, now)
				ref.put(name, payload, now)
				for j := range payload {
					payload[j] = ^payload[j] // the store kept a copy
				}
			case 1:
				got, ok := cs.Get(name, now)
				want, wantOK := ref.get(name, now)
				if ok != wantOK || !bytes.Equal(got, want) {
					t.Fatalf("step %d: Get(%q) = %v %v, model %v %v", step, name, got, ok, want, wantOK)
				}
				if cap(got) != len(got) {
					t.Fatalf("step %d: Get(%q) has capacity %d past its length %d", step, name, cap(got), len(got))
				}
				if ok {
					kept = append(kept, lent{got, append([]byte(nil), got...)})
				}
			case 2:
				now = now.Add(time.Duration(op>>2) * time.Millisecond / 4)
			}
			for _, k := range kept {
				if !bytes.Equal(k.got, k.want) {
					t.Fatalf("step %d: a payload Get returned was rewritten: %v, was %v", step, k.got, k.want)
				}
			}
			hits, misses := cs.Stats()
			if cs.Len() != len(ref.items) || hits != ref.hits || misses != ref.misses {
				t.Fatalf("step %d: Len %d hits %d misses %d, model %d %d %d",
					step, cs.Len(), hits, misses, len(ref.items), ref.hits, ref.misses)
			}
		}
	})
}
