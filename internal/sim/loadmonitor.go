package sim

import (
	"math/rand"
	"sort"

	"github.com/icn-gaming/gcopss/internal/cd"
)

// DefaultLoadWindow is the sliding-window length (packets) over which an RP
// attributes recent load to CDs, per Section IV-B ("the router monitors the
// traffic for each CD in a sliding window fashion of the recent N packets").
const DefaultLoadWindow = 1000

// LoadMonitor attributes the most recent N publications handled by an RP to
// the CD prefixes they belong to.
type LoadMonitor struct {
	window []cd.CD
	next   int
	filled bool
}

// NewLoadMonitor creates a monitor over a window of n packets.
func NewLoadMonitor(n int) *LoadMonitor {
	if n < 1 {
		n = 1
	}
	return &LoadMonitor{window: make([]cd.CD, n)}
}

// Record notes one publication to CD c.
func (m *LoadMonitor) Record(c cd.CD) {
	m.window[m.next] = c
	m.next++
	if m.next == len(m.window) {
		m.next = 0
		m.filled = true
	}
}

// Counts returns, for each served prefix, how many packets in the window
// were covered by it.
func (m *LoadMonitor) Counts(served []cd.CD) map[cd.CD]int {
	out := make(map[cd.CD]int, len(served))
	n := m.next
	if m.filled {
		n = len(m.window)
	}
	for i := 0; i < n; i++ {
		if p, ok := cd.Cover(served, m.window[i]); ok {
			out[p]++
		}
	}
	return out
}

// Total returns the number of recorded packets currently in the window.
func (m *LoadMonitor) Total() int {
	if m.filled {
		return len(m.window)
	}
	return m.next
}

// SplitByLoad partitions the served prefixes into a kept half and a moved
// half of approximately equal recent load, using a greedy assignment of
// prefixes in decreasing load order ("the CD selection function divides the
// CDs into 2 groups based on the capabilities of both the RPs"). When rnd is
// non-nil, ties are broken randomly, matching the paper's random selection.
// The kept half always retains at least one prefix, as does the moved half
// when len(served) > 1.
func (m *LoadMonitor) SplitByLoad(served []cd.CD, rnd *rand.Rand) (keep, move []cd.CD) {
	if len(served) < 2 {
		return append([]cd.CD(nil), served...), nil
	}
	counts := m.Counts(served)
	order := append([]cd.CD(nil), served...)
	sort.Slice(order, func(i, j int) bool {
		ci, cj := counts[order[i]], counts[order[j]]
		if ci != cj {
			return ci > cj
		}
		return order[i].Compare(order[j]) < 0
	})
	var keepLoad, moveLoad int
	for _, p := range order {
		toKeep := keepLoad < moveLoad
		if keepLoad == moveLoad {
			if rnd != nil {
				toKeep = rnd.Intn(2) == 0
			} else {
				toKeep = len(keep) <= len(move)
			}
		}
		if toKeep {
			keep = append(keep, p)
			keepLoad += counts[p]
		} else {
			move = append(move, p)
			moveLoad += counts[p]
		}
	}
	if len(keep) == 0 {
		keep, move = move[:1], move[1:]
	}
	if len(move) == 0 && len(keep) > 1 {
		move = keep[len(keep)-1:]
		keep = keep[:len(keep)-1]
	}
	return keep, move
}
