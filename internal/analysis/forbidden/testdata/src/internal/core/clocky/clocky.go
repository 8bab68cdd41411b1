package clocky

import "time"

func bad() time.Duration {
	start := time.Now()      // want "time.Now is forbidden"
	return time.Since(start) // want "time.Since is forbidden"
}

func smuggled() func() time.Time {
	return time.Now // want "time.Now is forbidden"
}

func allowed() time.Time {
	//lint:allow clockfree process start-up stamp, never read by the core
	return time.Now()
}

func good(now time.Time, deadline time.Time) bool {
	return now.After(deadline)
}
