package ndn

import (
	"slices"
	"sort"
	"time"
)

// PIT is the Pending Interest Table. It records, per content name, the faces
// an Interest arrived from ("bread crumbs") so Data can retrace the reverse
// path, and aggregates duplicate Interests for the same name. The zero value
// is ready to use. Consumed and expired entries are recycled with their faces
// capacity through a bounded spare list, so steady-state Insert + Consume
// allocates nothing (TestEngineSteadyStateAllocs).
type PIT struct {
	entries map[string]*pitEntry
	spare   []*pitEntry // at most maxSparePIT; the GC takes the rest
}

const maxSparePIT = 256

type pitEntry struct {
	faces   []FaceID // FaceID-sorted
	expires time.Time
}

// DefaultInterestLifetime is the PIT entry lifetime used when the host does
// not specify one; it matches CCNx's 4-second default.
const DefaultInterestLifetime = 4 * time.Second

// Insert records an Interest for name from the given face. It returns true
// if this created a new entry (the Interest should be forwarded) and false
// if it was aggregated onto an existing one (forwarding suppressed).
func (p *PIT) Insert(name string, face FaceID, now time.Time, lifetime time.Duration) bool {
	if p.entries == nil {
		p.entries = make(map[string]*pitEntry)
	}
	if lifetime <= 0 {
		lifetime = DefaultInterestLifetime
	}
	n := canonicalPrefix(name)
	e, ok := p.entries[n]
	if ok && now.Before(e.expires) {
		if i, found := slices.BinarySearch(e.faces, face); !found {
			e.faces = slices.Insert(e.faces, i, face)
		}
		if exp := now.Add(lifetime); exp.After(e.expires) {
			e.expires = exp
		}
		return false
	}
	if !ok { // otherwise the expired entry under n is reused in place
		if k := len(p.spare); k > 0 {
			e, p.spare = p.spare[k-1], p.spare[:k-1]
		} else {
			e = new(pitEntry)
		}
		p.entries[n] = e
	}
	e.faces = append(e.faces[:0], face)
	e.expires = now.Add(lifetime)
	return true
}

// Consume removes the entry for name and appends the faces waiting for it to
// dst in FaceID order, returning the extended slice; nothing is appended when
// there is no entry or it has expired. Data packets call this to learn where
// to go; per NDN semantics one Data consumes the pending Interests.
func (p *PIT) Consume(dst []FaceID, name string, now time.Time) []FaceID {
	n := canonicalPrefix(name)
	e, ok := p.entries[n]
	if !ok {
		return dst
	}
	delete(p.entries, n)
	if !now.After(e.expires) {
		dst = append(dst, e.faces...)
	}
	p.recycle(e)
	return dst
}

func (p *PIT) recycle(e *pitEntry) {
	if len(p.spare) < maxSparePIT {
		e.faces = e.faces[:0]
		p.spare = append(p.spare, e)
	}
}

// Expire drops all entries whose lifetime has passed and returns how many
// were dropped.
func (p *PIT) Expire(now time.Time) int {
	dropped := 0
	for n, e := range p.entries {
		if now.After(e.expires) {
			delete(p.entries, n)
			p.recycle(e)
			dropped++
		}
	}
	return dropped
}

// Len returns the number of pending names.
func (p *PIT) Len() int { return len(p.entries) }

// Names returns the pending names in sorted order, for tests.
func (p *PIT) Names() []string {
	out := make([]string, 0, len(p.entries))
	for n := range p.entries {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
