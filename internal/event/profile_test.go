package event

import (
	"sync/atomic"
	"testing"
	"time"
)

// profWorkload drives a sharded scheduler through a mixed global + windowed
// load: every node event reposts a successor one lookahead later on the
// next shard (cross-shard traffic through the mailboxes).
func profWorkload(t testing.TB, s *ShardedScheduler, origin time.Time, rounds int) *atomic.Uint64 {
	const la = time.Millisecond
	setUniformLatency(t, s, la)
	w := s.Workers()
	var executed atomic.Uint64
	var relay CallHandler
	relay = func(now time.Time, pl Payload) {
		executed.Add(1)
		src := int(pl.Int)
		dst := (src + 1) % w
		np := pl
		np.Int = int64(dst)
		s.PostNode(src, dst, now.Add(la), uint64(now.UnixNano())<<8|uint64(dst), relay, np)
	}
	for i := 0; i < w; i++ {
		s.PostNode(i, i, origin.Add(la), uint64(i), relay, Payload{Int: int64(i)})
	}
	s.At(origin.Add(la/2), func(time.Time) {}) // one global event
	s.RunUntil(origin.Add(time.Duration(rounds) * la))
	return &executed
}

// TestProfileDisabledNil: no EnableProfiling, no profile, no overhead path.
func TestProfileDisabledNil(t *testing.T) {
	s := NewSharded(time.Unix(0, 0), 4)
	if s.prof != nil {
		t.Error("profiling enabled by default")
	}
	if s.Profile() != nil {
		t.Error("Profile() non-nil without EnableProfiling")
	}
}

// TestProfileAttributionAlgebra pins the bucket arithmetic: per shard,
// ExecNs + BarrierWaitNs must sum to exactly the total windowed wall time
// (every window partitions into execute + wait per shard), and the window/
// global/drain buckets must not exceed total wall.
func TestProfileAttributionAlgebra(t *testing.T) {
	origin := time.Unix(0, 0)
	s := NewSharded(origin, 4)
	s.EnableProfiling(1024)
	profWorkload(t, s, origin, 50)
	p := s.Profile()
	if p == nil {
		t.Fatal("Profile() nil after EnableProfiling")
	}
	if p.Workers != 4 || len(p.Shards) != 4 {
		t.Fatalf("Workers=%d len(Shards)=%d, want 4", p.Workers, len(p.Shards))
	}
	if p.Windows == 0 {
		t.Fatal("no windows executed")
	}
	for i, sh := range p.Shards {
		if got := sh.ExecNs + sh.BarrierWaitNs; got != p.WindowNs {
			t.Errorf("shard %d: ExecNs+BarrierWaitNs = %d, want WindowNs = %d", i, got, p.WindowNs)
		}
	}
	if sum := p.WindowNs + p.GlobalNs + p.DrainNs; sum > p.WallNs {
		t.Errorf("attributed %d ns > wall %d ns", sum, p.WallNs)
	}
	if f := p.AttributedFrac(); f <= 0 || f > 1 {
		t.Errorf("AttributedFrac = %v, want (0, 1]", f)
	}
	if f := p.BarrierWaitFrac(); f < 0 || f > 1 {
		t.Errorf("BarrierWaitFrac = %v, want [0, 1]", f)
	}
	var events uint64
	for _, sh := range p.Shards {
		events += sh.Events
	}
	if events == 0 {
		t.Error("no per-shard events recorded")
	}
	if p.MeanWindowWidth() <= 0 {
		t.Errorf("MeanWindowWidth = %v, want > 0", p.MeanWindowWidth())
	}
}

// TestProfileTimeline: records are (window, shard)-dense, oldest first,
// bounded by the cap, with consistent virtual bounds.
func TestProfileTimeline(t *testing.T) {
	origin := time.Unix(0, 0)
	s := NewSharded(origin, 2)
	s.EnableProfiling(6) // 3 windows' worth for 2 shards
	profWorkload(t, s, origin, 50)
	p := s.Profile()
	if len(p.Timeline) != 6 {
		t.Fatalf("timeline len = %d, want cap 6", len(p.Timeline))
	}
	for i, r := range p.Timeline {
		if want := uint64(i / 2); r.Window != want {
			t.Errorf("timeline[%d].Window = %d, want %d", i, r.Window, want)
		}
		if want := i % 2; r.Shard != want {
			t.Errorf("timeline[%d].Shard = %d, want %d", i, r.Shard, want)
		}
		if r.VirtEnd <= r.VirtStart {
			t.Errorf("timeline[%d]: VirtEnd %d <= VirtStart %d", i, r.VirtEnd, r.VirtStart)
		}
		if r.ExecNs < 0 || r.WaitNs < 0 {
			t.Errorf("timeline[%d]: negative span (%d, %d)", i, r.ExecNs, r.WaitNs)
		}
	}
}

// TestProfileOneShard: one shard runs the same windowed loop with the
// coordinator as its only worker, so the profile must say what that is — no
// barrier wait, no imbalance, a critical path equal to the work — and obey
// the same per-shard algebra as four shards.
func TestProfileOneShard(t *testing.T) {
	origin := time.Unix(0, 0)
	s := NewSharded(origin, 1)
	s.EnableProfiling(0)
	profWorkload(t, s, origin, 20)
	p := s.Profile()
	if p.Windows == 0 {
		t.Error("one shard executed no windows")
	}
	if p.Shards[0].Events == 0 || p.GlobalNs <= 0 {
		t.Errorf("Events = %d, GlobalNs = %d: want node and global work recorded", p.Shards[0].Events, p.GlobalNs)
	}
	if got := p.CritPathSpeedup(); got != 1 {
		t.Errorf("CritPathSpeedup = %v, want exactly 1 (CritNs %d, ExecNs %d)", got, p.CritNs, p.Shards[0].ExecNs)
	}
	if got := p.LoadImbalanceFrac(); got != 0 {
		t.Errorf("LoadImbalanceFrac = %v, want 0", got)
	}
	if got := p.Shards[0].BarrierWaitNs; got != 0 {
		t.Errorf("BarrierWaitNs = %d, want 0: a lone shard waits for nobody", got)
	}
	if got := p.Shards[0].ExecNs + p.Shards[0].BarrierWaitNs; got != p.WindowNs || got <= 0 {
		t.Errorf("ExecNs+BarrierWaitNs = %d, want WindowNs = %d > 0", got, p.WindowNs)
	}
	if p.WallNs < p.WindowNs+p.GlobalNs+p.DrainNs {
		t.Errorf("wall %d < attributed %d", p.WallNs, p.WindowNs+p.GlobalNs+p.DrainNs)
	}
	if len(p.Timeline) != 0 {
		t.Errorf("timeline cap 0 retained %d records", len(p.Timeline))
	}
}

// TestProfileDoesNotChangeExecution: the profiled run must execute exactly
// the same number of events as an unprofiled one — instrumentation must
// never perturb the deterministic schedule.
func TestProfileDoesNotChangeExecution(t *testing.T) {
	origin := time.Unix(0, 0)
	plain := NewSharded(origin, 4)
	got := profWorkload(t, plain, origin, 40).Load()
	profiled := NewSharded(origin, 4)
	profiled.EnableProfiling(128)
	got2 := profWorkload(t, profiled, origin, 40).Load()
	if got != got2 {
		t.Errorf("profiled run executed %d events, unprofiled %d", got2, got)
	}
	if plain.windows != profiled.windows {
		t.Errorf("windows diverged: %d vs %d", plain.windows, profiled.windows)
	}
}
