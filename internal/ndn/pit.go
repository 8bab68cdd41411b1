package ndn

import (
	"sort"
	"time"
)

// PIT is the Pending Interest Table. It records, per content name, the faces
// an Interest arrived from ("bread crumbs") so Data can retrace the reverse
// path, and aggregates duplicate Interests for the same name. The zero value
// is ready to use.
type PIT struct {
	entries map[string]*pitEntry
}

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
		e.faces = withFace(e.faces, face)
		if exp := now.Add(lifetime); exp.After(e.expires) {
			e.expires = exp
		}
		return false
	}
	p.entries[n] = &pitEntry{
		faces:   []FaceID{face},
		expires: now.Add(lifetime),
	}
	return true
}

// Consume removes the entry for name and returns the faces waiting for it in
// FaceID order; the slice is the entry's own, handed over with the entry gone.
// Data packets call this to learn where to go; per NDN semantics one Data
// consumes the pending Interests.
func (p *PIT) Consume(name string, now time.Time) []FaceID {
	n := canonicalPrefix(name)
	e, ok := p.entries[n]
	if !ok {
		return nil
	}
	delete(p.entries, n)
	if now.After(e.expires) {
		return nil
	}
	return e.faces
}

// Expire drops all entries whose lifetime has passed and returns how many
// were dropped.
func (p *PIT) Expire(now time.Time) int {
	dropped := 0
	for n, e := range p.entries {
		if now.After(e.expires) {
			delete(p.entries, n)
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
