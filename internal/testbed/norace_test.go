//go:build !race

package testbed

// raceEnabled reports whether the race detector is compiled in; it changes
// allocation counts, so allocation budgets skip under it.
const raceEnabled = false
