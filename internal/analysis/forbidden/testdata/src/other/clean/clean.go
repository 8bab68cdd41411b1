package clean

import "time"

// Outside the deterministic core, wall-clock reads are fine.
func stamp() time.Time { return time.Now() }
