// Package ndn implements the base NDN/CCN forwarding engine that G-COPSS
// builds on: a FIB with longest-prefix matching, a Pending Interest Table
// with reverse-path "bread crumbs", and an LRU Content Store. The engine is
// pure: handlers take the current time and a packet and return forwarding
// actions, leaving all I/O to the host (testbed router, TCP daemon or
// simulator).
package ndn

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// FaceID identifies a face (interface) of a router. Faces are small dense
// integers assigned by the host.
type FaceID int

// FIB is the Forwarding Information Base: name prefixes mapped to the set of
// faces that lead toward potential sources of matching Data, each set kept
// as a FaceID-sorted slice. The zero value is ready to use.
type FIB struct {
	entries map[string][]FaceID
}

// Add registers face as a next hop for the given name prefix. Prefixes use
// the textual form "/a/b"; the root prefix is "/". Add and Remove are
// copy-on-write: they store a new slice and never write one Lookup has
// handed out.
func (f *FIB) Add(prefix string, face FaceID) {
	if f.entries == nil {
		f.entries = make(map[string][]FaceID)
	}
	p := canonicalPrefix(prefix)
	f.entries[p] = withFace(f.entries[p], face)
}

// Remove unregisters face from the prefix; it reports whether the entry
// existed. Removing the last face of a prefix removes the prefix.
func (f *FIB) Remove(prefix string, face FaceID) bool {
	p := canonicalPrefix(prefix)
	old := f.entries[p]
	i, ok := slices.BinarySearch(old, face)
	if !ok {
		return false
	}
	if len(old) == 1 {
		delete(f.entries, p)
		return true
	}
	f.entries[p] = append(slices.Clone(old[:i]), old[i+1:]...)
	return true
}

// RemovePrefix drops an entire prefix regardless of faces.
func (f *FIB) RemovePrefix(prefix string) bool {
	p := canonicalPrefix(prefix)
	if _, ok := f.entries[p]; !ok {
		return false
	}
	delete(f.entries, p)
	return true
}

// Lookup returns the faces of the longest registered prefix matching name,
// in FaceID order, and the matched prefix. Match is component-wise: prefix
// "/a" matches "/a/b" but not "/ab". The slice is the stored one, not a copy:
// the caller must not write it, and the FIB never writes it again either
// (Add and Remove are copy-on-write), so it stays valid across later updates.
func (f *FIB) Lookup(name string) ([]FaceID, string, bool) {
	n := canonicalPrefix(name)
	for p := n; ; {
		if faces := f.entries[p]; len(faces) > 0 {
			return faces, p, true
		}
		if p == "/" {
			return nil, "", false
		}
		i := strings.LastIndex(p, "/")
		if i <= 0 {
			p = "/"
		} else {
			p = p[:i]
		}
	}
}

// NextHops returns the faces for an exact prefix, mostly for tests and
// introspection. Like Lookup it returns the stored, read-only slice.
func (f *FIB) NextHops(prefix string) []FaceID {
	return f.entries[canonicalPrefix(prefix)]
}

// Prefixes returns all registered prefixes in sorted order.
func (f *FIB) Prefixes() []string {
	out := make([]string, 0, len(f.entries))
	for p := range f.entries {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of registered prefixes.
func (f *FIB) Len() int { return len(f.entries) }

// withFace returns faces with face in it, FaceID-sorted: faces itself when
// face is already there, otherwise a fresh slice (clipped to its length,
// faces has no room to insert into). It never writes faces.
func withFace(faces []FaceID, face FaceID) []FaceID {
	i, ok := slices.BinarySearch(faces, face)
	if ok {
		return faces
	}
	return slices.Insert(slices.Clip(faces), i, face)
}

// canonicalPrefix normalizes a name: ensures a leading '/', strips a single
// trailing '/' (except for the root), and treats "" as the root.
func canonicalPrefix(p string) string {
	if p == "" || p == "/" {
		return "/"
	}
	if !strings.HasPrefix(p, "/") {
		p = "/" + p
	}
	if strings.HasSuffix(p, "/") {
		p = p[:len(p)-1]
	}
	return p
}

// String renders the FIB for debugging.
func (f *FIB) String() string {
	var b strings.Builder
	for _, p := range f.Prefixes() {
		fmt.Fprintf(&b, "%s -> %v\n", p, f.NextHops(p))
	}
	return b.String()
}
