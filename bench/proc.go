package main

import (
	"runtime"
	"syscall"
	"time"
)

// processStart approximates when the process began: package initialization
// runs before main, a few hundred microseconds after exec.
var processStart = time.Now()

// procSnap is a point-in-time reading of the process-wide counters the
// per-delivery costs are differences of.
type procSnap struct {
	cpu time.Duration // user + system
	mem runtime.MemStats
}

func snapProcess() procSnap {
	var s procSnap
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	runtime.ReadMemStats(&s.mem)
	return s
}
