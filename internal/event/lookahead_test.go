package event

import (
	"testing"
	"time"
)

var laOrigin = time.Unix(0, 0)

func noopCall(time.Time, Payload) {}

// ms builds a duration in milliseconds — matrix entries read better.
func ms(n int64) time.Duration { return time.Duration(n) * time.Millisecond }

// setUniformLatency declares every shard pair reachable in w: the matrix of a
// host whose only lookahead knowledge is one minimum hop latency.
func setUniformLatency(t testing.TB, s *ShardedScheduler, w time.Duration) {
	t.Helper()
	m := make([][]time.Duration, s.Workers())
	for i := range m {
		m[i] = make([]time.Duration, len(m))
		for j := range m[i] {
			m[i][j] = w
		}
	}
	if err := s.SetLatencyMatrix(m); err != nil {
		t.Fatalf("SetLatencyMatrix: %v", err)
	}
}

func TestLatencyMatrixValidation(t *testing.T) {
	cases := []struct {
		name    string
		workers int
		m       [][]time.Duration
		wantErr bool
	}{
		{"ok uniform", 2, [][]time.Duration{{ms(1), ms(5)}, {ms(5), ms(1)}}, false},
		{"ok no-route", 2, [][]time.Duration{{NoRoute, ms(5)}, {NoRoute, ms(1)}}, false},
		{"wrong row count", 2, [][]time.Duration{{ms(1), ms(1)}}, true},
		{"wrong col count", 2, [][]time.Duration{{ms(1)}, {ms(1), ms(1)}}, true},
		{"zero cross entry", 2, [][]time.Duration{{ms(1), 0}, {ms(1), ms(1)}}, true},
		// A zero self-loop means a zero-delay hop reached the matrix
		// builder: no finite window is safe against it, so it is rejected
		// even though the closure would overwrite the diagonal anyway.
		{"zero self-loop", 2, [][]time.Duration{{0, ms(1)}, {ms(1), ms(1)}}, true},
		{"negative entry", 2, [][]time.Duration{{ms(1), -ms(2)}, {ms(1), ms(1)}}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSharded(laOrigin, tc.workers)
			err := s.SetLatencyMatrix(tc.m)
			if (err != nil) != tc.wantErr {
				t.Fatalf("SetLatencyMatrix err = %v, wantErr = %v", err, tc.wantErr)
			}
		})
	}
}

func TestLatencyClosureShortensPaths(t *testing.T) {
	// Direct 0→2 costs 50ms but routing through shard 1 costs 10+10; the
	// closure must take the cheaper chain, and unreachable pairs must stay
	// unreachable.
	s := NewSharded(laOrigin, 4)
	err := s.SetLatencyMatrix([][]time.Duration{
		{ms(1), ms(10), ms(50), NoRoute},
		{ms(10), ms(1), ms(10), NoRoute},
		{ms(50), ms(10), ms(1), NoRoute},
		{ms(5), NoRoute, NoRoute, ms(1)},
	})
	if err != nil {
		t.Fatalf("SetLatencyMatrix: %v", err)
	}
	c := s.closure
	if got, want := c[0][2], ms(20); got != want {
		t.Errorf("closure[0][2] = %v, want %v (via shard 1)", got, want)
	}
	if got := c[0][3]; got < infDur {
		t.Errorf("closure[0][3] = %v, want unreachable", got)
	}
	// Shard 3 reaches everything through shard 0.
	if got, want := c[3][2], ms(5)+ms(20); got != want {
		t.Errorf("closure[3][2] = %v, want %v", got, want)
	}
	for i := range c {
		if c[i][i] != 0 {
			t.Errorf("closure[%d][%d] = %v, want 0 (intra-shard chaining is heap-ordered)", i, i, c[i][i])
		}
	}
}

// windowEnds runs the coordinator's floor/end computation directly on a
// hand-built queue state — the white-box core of the lookahead math suite.
func windowEnds(s *ShardedScheduler, tg time.Time, okg bool, deadline time.Time) []time.Time {
	s.computeFloors()
	s.computeEnds(tg, okg, deadline)
	return s.ends
}

func TestWindowEndTable(t *testing.T) {
	deadline := laOrigin.Add(ms(1000))
	type post struct {
		shard int
		at    time.Duration
	}
	cases := []struct {
		name  string
		m     [][]time.Duration
		posts []post
		tg    time.Duration // -1: no global event pending
		want  []time.Duration
	}{
		{
			// No inbound routes at all: both shards run straight to the
			// deadline in a single window.
			name: "isolated shards run to deadline",
			m: [][]time.Duration{
				{ms(1), NoRoute},
				{NoRoute, ms(1)},
			},
			posts: []post{{0, ms(10)}, {1, ms(10)}},
			tg:    -1,
			want:  []time.Duration{ms(1000) + time.Nanosecond, ms(1000) + time.Nanosecond},
		},
		{
			// Shard 1's only inbound link is slow (200ms): it may run 200ms
			// past shard 0's floor while shard 0 stays on the tight 5ms
			// window imposed by shard 1's fast outbound link.
			name: "slow inbound widens the window",
			m: [][]time.Duration{
				{ms(1), ms(200)},
				{ms(5), ms(1)},
			},
			posts: []post{{0, ms(10)}, {1, ms(10)}},
			tg:    -1,
			want:  []time.Duration{ms(10) + ms(5), ms(10) + ms(200)},
		},
		{
			// An empty shard imposes no floor: shard 0 has nothing queued, so
			// the only bound on shard 1 is its own return path — its queued
			// event could hop to shard 0 and send something back at
			// floor + 5 + 5. Without routes that bound vanishes too (see the
			// isolated case, where ends hit the deadline).
			name: "empty shard imposes no bound",
			m: [][]time.Duration{
				{ms(1), ms(5)},
				{ms(5), ms(1)},
			},
			posts: []post{{1, ms(10)}},
			tg:    -1,
			want:  []time.Duration{ms(10) + ms(5), ms(10) + ms(5) + ms(5)},
		},
		{
			// A pending global event caps every shard regardless of routes.
			name: "global event caps all windows",
			m: [][]time.Duration{
				{ms(1), NoRoute},
				{NoRoute, ms(1)},
			},
			posts: []post{{0, ms(10)}, {1, ms(10)}},
			tg:    ms(50),
			want:  []time.Duration{ms(50), ms(50)},
		},
		{
			// Asymmetric floors: shard 1 is bounded by shard 0's earlier
			// floor plus the route; shard 0's binding constraint is its own
			// return path (10 + 5 + 5), which is tighter than shard 1's
			// distant floor plus the route (100 + 5).
			name: "bound uses the sender's floor",
			m: [][]time.Duration{
				{ms(1), ms(5)},
				{ms(5), ms(1)},
			},
			posts: []post{{0, ms(10)}, {1, ms(100)}},
			tg:    -1,
			want:  []time.Duration{ms(10) + ms(5) + ms(5), ms(10) + ms(5)},
		},
		{
			// The return-path bound: a shard's own queued event can leave and
			// re-enter via another shard, landing in mailboxes the next
			// barrier's floors cannot see. With an asymmetric detour (1ms out,
			// 50ms back) shard 0 may only run to floor + 51ms even though no
			// other shard holds anything earlier than 300ms.
			name: "own events bound the window through the return path",
			m: [][]time.Duration{
				{ms(1), ms(1)},
				{ms(50), ms(1)},
			},
			posts: []post{{0, ms(10)}, {1, ms(300)}},
			tg:    -1,
			want:  []time.Duration{ms(10) + ms(1) + ms(50), ms(10) + ms(1)},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSharded(laOrigin, len(tc.m))
			if err := s.SetLatencyMatrix(tc.m); err != nil {
				t.Fatalf("SetLatencyMatrix: %v", err)
			}
			var key uint64
			for _, p := range tc.posts {
				s.PostNode(p.shard, p.shard, laOrigin.Add(p.at), key, noopCall, Payload{})
				key++
			}
			tg, okg := time.Time{}, false
			if tc.tg >= 0 {
				tg, okg = laOrigin.Add(tc.tg), true
			}
			ends := windowEnds(s, tg, okg, deadline)
			for i, w := range tc.want {
				if want := laOrigin.Add(w); !ends[i].Equal(want) {
					t.Errorf("shard %d end = %v, want %v",
						i, ends[i].Sub(laOrigin), want.Sub(laOrigin))
				}
			}
		})
	}
}

// TestAdaptiveNeverNarrowerThanUniform pins the invariant that per-shard
// adaptive ends are always ≥ the old conservative global window
// min(tn + W, tg) whenever every matrix entry is ≥ W — the uniform
// configuration is the worst case of the adaptive one.
func TestAdaptiveNeverNarrowerThanUniform(t *testing.T) {
	const W = 5 * time.Millisecond
	deadline := laOrigin.Add(ms(1000))
	m := [][]time.Duration{
		{ms(5), ms(7), ms(20)},
		{ms(9), ms(5), ms(5)},
		{ms(30), ms(6), ms(5)},
	}
	s := NewSharded(laOrigin, 3)
	if err := s.SetLatencyMatrix(m); err != nil {
		t.Fatalf("SetLatencyMatrix: %v", err)
	}
	floors := []time.Duration{ms(10), ms(12), ms(17)}
	var key uint64
	for sh, f := range floors {
		s.PostNode(sh, sh, laOrigin.Add(f), key, noopCall, Payload{})
		key++
	}
	for _, tgd := range []time.Duration{-1, ms(11), ms(500)} {
		tg, okg := time.Time{}, false
		if tgd >= 0 {
			tg, okg = laOrigin.Add(tgd), true
		}
		ends := windowEnds(s, tg, okg, deadline)
		oldEnd := laOrigin.Add(floors[0] + W) // tn = min floor = floors[0]
		if okg && tg.Before(oldEnd) {
			oldEnd = tg
		}
		for i, end := range ends {
			if end.Before(oldEnd) {
				t.Errorf("tg=%v: shard %d adaptive end %v narrower than uniform window %v",
					tgd, i, end.Sub(laOrigin), oldEnd.Sub(laOrigin))
			}
		}
	}
}

func TestIsolatedShardsFinishInOneWindow(t *testing.T) {
	s := NewSharded(laOrigin, 2)
	if err := s.SetLatencyMatrix([][]time.Duration{
		{ms(1), NoRoute},
		{NoRoute, ms(1)},
	}); err != nil {
		t.Fatalf("SetLatencyMatrix: %v", err)
	}
	// Each shard runs a 100-step self-chain at 1ms intervals; with no
	// inbound routes the adaptive ends hit the deadline immediately, so the
	// whole run is one window. A 1ms route between them would need ~100.
	var counts [2]int
	var chain func(shard int) CallHandler
	chain = func(shard int) CallHandler {
		return func(now time.Time, pl Payload) {
			counts[shard]++
			if pl.Int > 0 {
				s.PostNode(shard, shard, now.Add(ms(1)), uint64(pl.Int), chain(shard), Payload{Int: pl.Int - 1})
			}
		}
	}
	s.PostNode(0, 0, laOrigin.Add(ms(1)), 0, chain(0), Payload{Int: 99})
	s.PostNode(1, 1, laOrigin.Add(ms(1)), 1<<32, chain(1), Payload{Int: 99})
	n := s.RunUntil(laOrigin.Add(ms(500)))
	if n != 200 || counts[0] != 100 || counts[1] != 100 {
		t.Fatalf("ran %d events (shard counts %v), want 200", n, counts)
	}
	if s.windows != 1 {
		t.Errorf("took %d windows, want 1 (no inbound routes)", s.windows)
	}
}

func TestPendingCountsMailboxResidents(t *testing.T) {
	s := NewSharded(laOrigin, 2)
	setUniformLatency(t, s, ms(5))
	// Simulate mid-window state: a cross-shard post staged in shard 0's
	// mailbox for shard 1 must count as pending before the barrier drain.
	s.parallel = true
	s.PostNode(0, 1, laOrigin.Add(ms(10)), 1, noopCall, Payload{})
	s.parallel = false
	if got := s.Pending(); got != 1 {
		t.Fatalf("Pending = %d with one mailbox-resident event, want 1", got)
	}
	s.drainMail()
	if got := s.Pending(); got != 1 {
		t.Fatalf("Pending = %d after drain, want 1", got)
	}
}

func TestQueueHighWaterCountsMailboxResidents(t *testing.T) {
	const fanout = 5
	s := NewSharded(laOrigin, 2)
	if err := s.SetLatencyMatrix([][]time.Duration{
		{ms(1), ms(5)},
		{ms(5), ms(1)},
	}); err != nil {
		t.Fatalf("SetLatencyMatrix: %v", err)
	}
	// Window 1: shard 1 executes its single resident event (heap drops to
	// 0) while shard 0's event posts fanout events into shard 1's inbound
	// mail. The bare heap never holds resident + inbound at once — it
	// executes 1, then receives fanout at the drain — but the shard's real
	// peak pressure during the window was 1 + fanout.
	s.PostNode(0, 0, laOrigin.Add(ms(1)), 0, func(now time.Time, pl Payload) {
		for i := 0; i < fanout; i++ {
			s.PostNode(0, 1, now.Add(ms(5)), uint64(2+i), noopCall, Payload{})
		}
	}, Payload{})
	s.PostNode(1, 1, laOrigin.Add(ms(1)), 1, noopCall, Payload{})
	s.RunUntil(laOrigin.Add(ms(100)))
	if got, want := s.shards[1].maxDepth, 1+fanout; got != want {
		t.Errorf("shard 1 maxDepth = %d, want %d (1 resident + %d mailbox arrivals)", got, want, fanout)
	}
}

func TestPostNodeSteadyStateAllocFree(t *testing.T) {
	s := NewSharded(laOrigin, 2)
	setUniformLatency(t, s, ms(1))
	s.Preallocate(1024)
	at := laOrigin.Add(ms(1))
	allocs := testing.AllocsPerRun(1000, func() {
		s.PostNode(0, 0, at, 7, noopCall, Payload{})
		s.shards[0].q.pop()
	})
	if allocs != 0 {
		t.Errorf("PostNode allocated %.1f per op in steady state, want 0", allocs)
	}
	if n := len(s.shards[0].q.slab); n != 1 {
		t.Errorf("slab grew to %d slots with one event pending at a time: slots are not recycled", n)
	}
	// The global queue shares the heap; At carries its Handler in Payload.Ptr,
	// which must not box.
	g := NewScheduler(laOrigin)
	g.q.grow(16)
	tick := Handler(func(time.Time) {})
	allocs = testing.AllocsPerRun(1000, func() {
		g.At(at, tick)
		g.Step()
	})
	if allocs != 0 {
		t.Errorf("Scheduler.At + Step allocated %.1f per op in steady state, want 0", allocs)
	}
	// Cross-shard staging path: mailbox append + drain, still allocation
	// free once preallocated.
	s.parallel = true
	allocs = testing.AllocsPerRun(1000, func() {
		s.PostNode(0, 1, at, 9, noopCall, Payload{})
		s.parallel = false
		s.drainMail()
		s.shards[1].q.pop()
		s.parallel = true
	})
	s.parallel = false
	if allocs != 0 {
		t.Errorf("cross-shard PostNode allocated %.1f per op in steady state, want 0", allocs)
	}
	// One shard runs the loop inline: no goroutine, no channel, so a whole
	// RunUntil — global phase, window, barrier — allocates nothing either.
	one := NewSharded(laOrigin, 1)
	one.Preallocate(16)
	one.global.q.grow(16)
	allocs = testing.AllocsPerRun(1000, func() {
		now := one.Now()
		one.At(now.Add(ms(1)), tick)
		one.PostNode(0, 0, now.Add(ms(1)), 7, noopCall, Payload{})
		if n := one.RunUntil(now.Add(ms(2))); n != 2 {
			t.Fatalf("RunUntil ran %d events, want 2", n)
		}
	})
	if allocs != 0 {
		t.Errorf("one-shard RunUntil allocated %.1f per call, want 0", allocs)
	}
}
