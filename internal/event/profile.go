package event

import "time"

// ShardProfile is one shard's accumulated execution accounting.
type ShardProfile struct {
	// ExecNs is wall time the shard spent executing events. The coordinator
	// is worker 0, so shard 0's figure also carries each window's end
	// computation and dispatch.
	ExecNs int64
	// BarrierWaitNs is wall time the shard sat idle at window barriers
	// waiting for the slowest shard: per window, windowWall − exec. Summed
	// with ExecNs it equals the total windowed wall time exactly, so the
	// two buckets partition every window (attribution algebra the traced
	// benchmark asserts on). A single shard never waits: it reads 0.
	BarrierWaitNs int64
	// Events is the number of node events the shard executed.
	Events uint64
	// CrossPosts is the number of events this shard staged for others.
	CrossPosts uint64
	// MailDepthMax is the deepest any single outbound mailbox of this
	// shard got before a barrier drain.
	MailDepthMax int
	// QueueHighWater is the deepest the shard's event heap got.
	QueueHighWater int
}

// WindowRecord is one shard's slice of one lookahead window — the timeline
// rows the Chrome trace export turns into execute/barrier-wait spans.
type WindowRecord struct {
	// Window is the window's ordinal (0-based).
	Window uint64
	// Shard is the shard index.
	Shard int
	// StartNs is the window's wall-clock start, ns since the profiler was
	// enabled.
	StartNs int64
	// ExecNs and WaitNs partition the window's wall time for this shard.
	ExecNs int64
	WaitNs int64
	// Events is how many node events the shard executed in the window.
	Events int
	// VirtStart and VirtEnd bound the window in virtual time (UnixNano):
	// [earliest pending node event, this shard's adaptive window end).
	// Ends differ per shard under a latency matrix; VirtEnd − VirtStart is
	// the lookahead-window width this shard actually achieved.
	VirtStart int64
	VirtEnd   int64
}

// SchedProfile is a point-in-time snapshot of the scheduler profiler.
type SchedProfile struct {
	// Workers is the shard count.
	Workers int
	// Windows is the number of node windows executed while profiling.
	Windows uint64
	// WindowStalls counts windows where at least one shard had no work.
	WindowStalls uint64
	// WallNs is total wall time inside RunUntil.
	WallNs int64
	// WindowNs is wall time inside node windows: from the start of the end
	// computation to the last shard's finish.
	WindowNs int64
	// GlobalNs is wall time running single-threaded global events.
	GlobalNs int64
	// DrainNs is wall time of the serial barrier work after each window:
	// the cross-shard mailbox drain.
	DrainNs int64
	// WidthSumNs sums the virtual width of every window — the widest
	// working shard's end minus the window floor; divide by Windows for
	// the mean achieved lookahead window.
	WidthSumNs int64
	// CritNs sums each window's slowest shard execution time — the
	// window-structure critical path. With unlimited cores the windowed
	// phase can never finish faster than this.
	CritNs int64
	// Shards holds per-shard accounting, index = shard.
	Shards []ShardProfile
	// Timeline holds up to the configured cap of per-(window, shard)
	// records, oldest first.
	Timeline []WindowRecord
}

// AttributedFrac reports the fraction of RunUntil wall time explained by
// the window/global/drain buckets; the residual is coordinator bookkeeping
// (heap peeks, window arithmetic). The traced-benchmark acceptance gate
// asserts this ≥ 0.9.
func (p *SchedProfile) AttributedFrac() float64 {
	if p.WallNs <= 0 {
		return 0
	}
	return float64(p.WindowNs+p.GlobalNs+p.DrainNs) / float64(p.WallNs)
}

// BarrierWaitFrac reports the fraction of windowed shard time spent waiting
// at barriers rather than executing — the load-imbalance / coordination
// cost figure that explains the parallel speedup (or its absence).
func (p *SchedProfile) BarrierWaitFrac() float64 {
	var exec, wait int64
	for i := range p.Shards {
		exec += p.Shards[i].ExecNs
		wait += p.Shards[i].BarrierWaitNs
	}
	if exec+wait <= 0 {
		return 0
	}
	return float64(wait) / float64(exec+wait)
}

// CritPathSpeedup reports the speedup the window structure itself permits:
// total single-threaded work (shard execution plus global events and drains)
// over the critical path (each window's slowest shard, plus the same serial
// phases). It is a property of the partition and the lookahead windows, not
// of the host — a single-core benchmark runner reports the same value a
// many-core one would, which is why the backbone artifact records it next
// to the (host-dependent) wall speedup.
func (p *SchedProfile) CritPathSpeedup() float64 {
	var work int64
	for i := range p.Shards {
		work += p.Shards[i].ExecNs
	}
	serial := p.GlobalNs + p.DrainNs
	if p.CritNs+serial <= 0 {
		return 1
	}
	return float64(work+serial) / float64(p.CritNs+serial)
}

// LoadImbalanceFrac reports the fraction of ideal window capacity lost to
// shard imbalance: 1 − work/(workers · critical path). Zero means every
// window split its work evenly across shards; values near 1 mean one shard
// did nearly everything. Like CritPathSpeedup it is host-independent — on a
// single-core runner BarrierWaitFrac saturates near (k−1)/k because shards
// time-share the core, while this figure still reflects the partition
// quality a k-core host would experience.
func (p *SchedProfile) LoadImbalanceFrac() float64 {
	var work int64
	for i := range p.Shards {
		work += p.Shards[i].ExecNs
	}
	capacity := int64(p.Workers) * p.CritNs
	if capacity <= 0 {
		return 0
	}
	return 1 - float64(work)/float64(capacity)
}

// MeanWindowWidth is the average achieved lookahead window in virtual time.
func (p *SchedProfile) MeanWindowWidth() time.Duration {
	if p.Windows == 0 {
		return 0
	}
	return time.Duration(p.WidthSumNs / int64(p.Windows))
}

// schedProf is the live profiler state. Each shard's executor (the
// coordinator for shard 0, a worker goroutine otherwise) writes
// curExec/curEvents for its own index during a window; the coordinator reads
// them only after receiving every worker's done signal, so the done channel
// provides the happens-before edge and no locks are needed.
type schedProf struct {
	epoch       time.Time
	timelineCap int

	curExec   []int64
	curEvents []int

	shards     []ShardProfile
	wallNs     int64
	windowNs   int64
	globalNs   int64
	drainNs    int64
	widthSumNs int64
	critNs     int64
	timeline   []WindowRecord
}

// EnableProfiling turns on wall-clock instrumentation. timelineCap bounds
// the number of retained per-(window, shard) records (0 keeps aggregates
// only). Call before RunUntil; enabling mid-run is not supported. The
// profiler costs a few clock reads per window per shard — negligible next
// to window execution, but nonzero, so benchmarks enable it only on the
// configurations under diagnosis.
func (s *ShardedScheduler) EnableProfiling(timelineCap int) {
	if timelineCap < 0 {
		timelineCap = 0
	}
	s.prof = &schedProf{
		epoch:       time.Now(),
		timelineCap: timelineCap,
		curExec:     make([]int64, len(s.shards)),
		curEvents:   make([]int, len(s.shards)),
		shards:      make([]ShardProfile, len(s.shards)),
	}
}

// Profile snapshots the accumulated profile, or returns nil when profiling
// is disabled. Call between RunUntil invocations (single-threaded).
func (s *ShardedScheduler) Profile() *SchedProfile {
	p := s.prof
	if p == nil {
		return nil
	}
	out := &SchedProfile{
		Workers:      len(s.shards),
		Windows:      s.windows,
		WindowStalls: s.windowStalls,
		WallNs:       p.wallNs,
		WindowNs:     p.windowNs,
		GlobalNs:     p.globalNs,
		DrainNs:      p.drainNs,
		WidthSumNs:   p.widthSumNs,
		CritNs:       p.critNs,
		Shards:       append([]ShardProfile(nil), p.shards...),
		Timeline:     append([]WindowRecord(nil), p.timeline...),
	}
	for i, sh := range s.shards {
		out.Shards[i].CrossPosts = sh.crossPosts
		out.Shards[i].QueueHighWater = sh.maxDepth
	}
	return out
}

// recordWindow folds one finished window into the aggregates and timeline.
// wall is the window's wall time (up to the last shard's finish); tn is the
// window floor, widest the furthest any working shard was allowed to run,
// and ends the per-shard window ends. Called at the barrier,
// single-threaded, after every done has been received.
func (p *schedProf) recordWindow(window uint64, wall int64, tn, widest time.Time, ends []time.Time) {
	p.windowNs += wall
	p.widthSumNs += int64(widest.Sub(tn))
	var crit int64
	for _, exec := range p.curExec {
		if exec > crit {
			crit = exec
		}
	}
	p.critNs += crit
	start := int64(0)
	for i := range p.curExec {
		exec := p.curExec[i]
		if exec > wall {
			exec = wall
		}
		wait := wall - exec
		p.shards[i].ExecNs += exec
		p.shards[i].BarrierWaitNs += wait
		p.shards[i].Events += uint64(p.curEvents[i])
		if len(p.timeline) < p.timelineCap {
			if start == 0 {
				start = int64(time.Since(p.epoch)) - wall
			}
			p.timeline = append(p.timeline, WindowRecord{
				Window:    window,
				Shard:     i,
				StartNs:   start,
				ExecNs:    exec,
				WaitNs:    wait,
				Events:    p.curEvents[i],
				VirtStart: tn.UnixNano(),
				VirtEnd:   ends[i].UnixNano(),
			})
		}
		p.curExec[i] = 0
		p.curEvents[i] = 0
	}
}

// noteMailDepth records the deepest outbound mailbox per shard before a
// barrier drain.
func (p *schedProf) noteMailDepth(shard int, depth int) {
	if depth > p.shards[shard].MailDepthMax {
		p.shards[shard].MailDepthMax = depth
	}
}
