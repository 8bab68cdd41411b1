package sim

import (
	"math/rand"
	"testing"
	"time"

	"github.com/icn-gaming/gcopss/internal/cd"
	"github.com/icn-gaming/gcopss/internal/gamemap"
	"github.com/icn-gaming/gcopss/internal/topo"
	"github.com/icn-gaming/gcopss/internal/trace"
)

// testEnv builds a scaled-down paper environment: 5×5 map, paper object
// population, 414 players, nUpdates updates, 20-core/40-edge backbone.
func testEnv(t *testing.T, nUpdates int) *Env {
	t.Helper()
	m, err := gamemap.NewGrid(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	world := gamemap.NewWorld(m)
	if err := world.PopulateObjects(gamemap.PaperObjectCounts(), 0, rand.New(rand.NewSource(2))); err != nil {
		t.Fatal(err)
	}
	cfg := trace.PaperConfig()
	cfg.TotalUpdates = nUpdates
	cfg.Duration = time.Hour
	tr, err := trace.Generate(world, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Paper-like sparsity: ~3–4 players per edge router, so group-level
	// over-delivery in hybrid mode is visible.
	bb := topo.BackboneConfig{
		CoreRouters: 30, EdgeRouters: 120, EdgeDelayMs: 5,
		MinCoreDelay: 1, MaxCoreDelay: 20, MeanDegree: 3, Seed: 7,
	}
	env, err := NewEnv(world, tr, bb)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestRunGCOPSSBasics(t *testing.T) {
	env := testEnv(t, 3000)
	updates := Compress(env.Trace.Updates, 2.4)
	res, err := GCOPSSConfig{
		RPs:   DefaultRPPlacement(env, 3),
		Costs: PaperCosts(),
	}.Run(env, updates)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deliveries == 0 {
		t.Fatal("no deliveries")
	}
	if res.Bytes <= 0 {
		t.Error("no network load accounted")
	}
	// The lowest quantile bucket holds every latency <= 0.05 ms.
	if res.latCounts[0] != 0 {
		t.Errorf("%d latencies at or below %g ms", res.latCounts[0], latBounds[0])
	}
	// With 3 RPs at 2.4 ms arrivals the system is uncongested: mean latency
	// stays within tens of ms (propagation + 3.3 ms service + tree).
	if m := res.LatencyMeanMs; m > 200 {
		t.Errorf("uncongested mean latency = %f ms", m)
	}
	if len(res.PerUpdateAvg) != len(updates) {
		t.Errorf("series length %d != %d", len(res.PerUpdateAvg), len(updates))
	}
	if res.FinalRPs != 3 {
		t.Errorf("FinalRPs = %d", res.FinalRPs)
	}
}

func TestRunGCOPSSCongestionWithOneRP(t *testing.T) {
	env := testEnv(t, 8000)
	// Ramp 3.0 → 1.8 ms: a single 3.3 ms RP is oversubscribed throughout.
	updates := CompressRamp(env.Trace.Updates, 3.0, 1.8)

	one, err := GCOPSSConfig{RPs: DefaultRPPlacement(env, 1), Costs: PaperCosts()}.Run(env, updates)
	if err != nil {
		t.Fatal(err)
	}
	three, err := GCOPSSConfig{RPs: DefaultRPPlacement(env, 3), Costs: PaperCosts()}.Run(env, updates)
	if err != nil {
		t.Fatal(err)
	}
	// Table I shape: 1 RP congests (latency orders of magnitude above the
	// 3-RP case), 3 RPs stay flat.
	if one.LatencyMeanMs < 10*three.LatencyMeanMs {
		t.Errorf("1-RP mean %.1f ms vs 3-RP mean %.1f ms: congestion not reproduced",
			one.LatencyMeanMs, three.LatencyMeanMs)
	}
	if three.LatencyMeanMs > 200 {
		t.Errorf("3-RP latency congested: %.1f ms", three.LatencyMeanMs)
	}
	// Congestion grows over the run: the tail of the 1-RP series dwarfs its
	// head (Fig. 5b's "latency increases dramatically").
	head := one.PerUpdateAvg[len(one.PerUpdateAvg)/10]
	tail := one.PerUpdateAvg[len(one.PerUpdateAvg)-1]
	if tail < head*2 {
		t.Errorf("1-RP latency not growing: head %.1f tail %.1f", head, tail)
	}
	if one.MaxQueueLen == 0 {
		t.Error("no queueing observed at the congested RP")
	}
	// The per-RP queue summary must carry the same congestion picture.
	if len(one.RPQueues) != 1 {
		t.Fatalf("RPQueues = %v, want one entry", one.RPQueues)
	}
	q := one.RPQueues[0]
	if q.Name != "/rp1" || q.MaxDepth != one.MaxQueueLen || q.Updates == 0 || q.MeanDepth <= 0 {
		t.Errorf("congested RP queue summary %+v (MaxQueueLen=%d)", q, one.MaxQueueLen)
	}
}

func TestRunGCOPSSAutoBalance(t *testing.T) {
	env := testEnv(t, 8000)
	updates := CompressRamp(env.Trace.Updates, 3.0, 1.8)

	auto, err := GCOPSSConfig{
		RPs:   DefaultRPPlacement(env, 1),
		Costs: PaperCosts(),
		Balance: &AutoBalance{
			QueueThreshold: 20,
			Window:         500,
			MaxRPs:         6,
			CandidateNodes: env.Cores[10:],
			MigrationMs:    50,
			Seed:           1,
		},
	}.Run(env, updates)
	if err != nil {
		t.Fatal(err)
	}
	if len(auto.Splits) == 0 {
		t.Fatal("auto-balancer never split")
	}
	fixed, err := GCOPSSConfig{RPs: DefaultRPPlacement(env, 1), Costs: PaperCosts()}.Run(env, updates)
	if err != nil {
		t.Fatal(err)
	}
	if auto.LatencyMeanMs > fixed.LatencyMeanMs/2 {
		t.Errorf("auto-balancing ineffective: auto %.1f ms vs fixed %.1f ms",
			auto.LatencyMeanMs, fixed.LatencyMeanMs)
	}
	if auto.FinalRPs < 2 {
		t.Errorf("FinalRPs = %d", auto.FinalRPs)
	}
	// After the last split the latency settles below the pre-split peak
	// (Fig. 5c) — even though the offered load keeps ramping up to the end
	// of the run.
	peak, tail := float32(0), auto.PerUpdateAvg[len(auto.PerUpdateAvg)-1]
	for _, v := range auto.PerUpdateAvg {
		if v > peak {
			peak = v
		}
	}
	if tail > peak*3/4 {
		t.Errorf("latency did not settle after splits: peak %.1f tail %.1f", peak, tail)
	}
}

func TestServerBaselineWorseThanGCOPSS(t *testing.T) {
	env := testEnv(t, 8000)
	updates := Compress(env.Trace.Updates, 2.4)

	gc, err := GCOPSSConfig{RPs: DefaultRPPlacement(env, 3), Costs: PaperCosts()}.Run(env, updates)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ServerConfig{Servers: DefaultServerPlacement(env, 3), Costs: PaperCosts()}.Run(env, updates)
	if err != nil {
		t.Fatal(err)
	}
	// 414 players at peak rate exceed what 3 servers can unicast: the
	// server latency must be far above G-COPSS (Table I) and the unicast
	// network load roughly 2× the multicast load (Fig. 6b).
	if srv.LatencyMeanMs < 5*gc.LatencyMeanMs {
		t.Errorf("server %.1f ms vs G-COPSS %.1f ms: server should be much worse",
			srv.LatencyMeanMs, gc.LatencyMeanMs)
	}
	if srv.Bytes < 1.5*gc.Bytes {
		t.Errorf("server bytes %.0f vs G-COPSS bytes %.0f: multicast advantage missing",
			srv.Bytes, gc.Bytes)
	}
	if srv.Deliveries != gc.Deliveries {
		t.Errorf("deliveries differ: %d vs %d", srv.Deliveries, gc.Deliveries)
	}
}

func TestServerKneeWithPlayerCount(t *testing.T) {
	env := testEnv(t, 12000)
	base := Compress(env.Trace.Updates, 2.4)

	means := map[int]float64{}
	for _, p := range []int{100, 400} {
		mask, ups := PlayerSubset(env.Trace, base, p, 5)
		if err := env.RestrictPlayers(mask); err != nil {
			t.Fatal(err)
		}
		res, err := ServerConfig{Servers: DefaultServerPlacement(env, 3), Costs: PaperCosts()}.Run(env, ups)
		if err != nil {
			t.Fatal(err)
		}
		means[p] = res.LatencyMeanMs
	}
	if err := env.RestrictPlayers(nil); err != nil {
		t.Fatal(err)
	}
	// Fig. 6a: below the knee (~250 players) servers are fine; above it the
	// latency blows up.
	if means[100] > 100 {
		t.Errorf("100-player server latency = %.1f ms, should be uncongested", means[100])
	}
	if means[400] < 5*means[100] {
		t.Errorf("server knee missing: 100→%.1f ms, 400→%.1f ms", means[100], means[400])
	}
}

func TestGCOPSSFlatWithPlayerCount(t *testing.T) {
	env := testEnv(t, 12000)
	base := Compress(env.Trace.Updates, 2.4)
	means := map[int]float64{}
	for _, p := range []int{100, 400} {
		mask, ups := PlayerSubset(env.Trace, base, p, 5)
		if err := env.RestrictPlayers(mask); err != nil {
			t.Fatal(err)
		}
		res, err := GCOPSSConfig{RPs: DefaultRPPlacement(env, 3), Costs: PaperCosts()}.Run(env, ups)
		if err != nil {
			t.Fatal(err)
		}
		means[p] = res.LatencyMeanMs
	}
	if err := env.RestrictPlayers(nil); err != nil {
		t.Fatal(err)
	}
	if means[400] > 3*means[100] || means[400] > 150 {
		t.Errorf("G-COPSS not flat: 100→%.1f ms, 400→%.1f ms", means[100], means[400])
	}
}

func TestHybridTradeoffs(t *testing.T) {
	env := testEnv(t, 8000)
	updates := Compress(env.Trace.Updates, 2.4)

	gc, err := GCOPSSConfig{RPs: DefaultRPPlacement(env, 6), Costs: PaperCosts()}.Run(env, updates)
	if err != nil {
		t.Fatal(err)
	}
	hy, err := HybridConfig{Groups: 6, Costs: PaperCosts()}.Run(env, updates)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ServerConfig{Servers: DefaultServerPlacement(env, 6), Costs: PaperCosts()}.Run(env, updates)
	if err != nil {
		t.Fatal(err)
	}
	// Table II ordering: hybrid has the best latency; G-COPSS the least
	// network load; hybrid's load sits between G-COPSS and the server.
	if hy.LatencyMeanMs >= gc.LatencyMeanMs {
		t.Errorf("hybrid latency %.2f ms not better than G-COPSS %.2f ms",
			hy.LatencyMeanMs, gc.LatencyMeanMs)
	}
	if !(gc.Bytes < hy.Bytes && hy.Bytes < srv.Bytes) {
		t.Errorf("load ordering violated: gcopss=%.0f hybrid=%.0f server=%.0f",
			gc.Bytes, hy.Bytes, srv.Bytes)
	}
	if hy.Deliveries != gc.Deliveries {
		t.Errorf("hybrid deliveries %d != %d", hy.Deliveries, gc.Deliveries)
	}
	if _, err := (HybridConfig{Groups: 0}).Run(env, updates); err == nil {
		t.Error("0 groups accepted")
	}
}

func TestMovementExperiment(t *testing.T) {
	env := testEnv(t, 20000)
	if err := trace.GenerateMoves(env.Game, env.Trace, trace.MoveConfig{
		MinInterval: 2 * time.Minute, MaxInterval: 10 * time.Minute,
		UpProb: 0.1, DownProb: 0.1, GroupProb: 0.25, GroupMax: 8, Seed: 11,
	}); err != nil {
		t.Fatal(err)
	}

	runOne := func(mode SnapshotMode, window int) *MovementResult {
		t.Helper()
		// Fresh object state per run: object sizes evolve during replay.
		for _, o := range env.Game.Objects() {
			*o = *gamemap.NewObject(o.ID, o.Leaf, 0)
		}
		cfg := PaperSnapshotConfig(env, mode, window)
		res, err := RunMovement(env, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	qr5 := runOne(SnapshotQR, 5)
	qr15 := runOne(SnapshotQR, 15)
	cyc := runOne(SnapshotCyclic, 0)

	if qr5.Total.N() == 0 {
		t.Fatal("no movements measured")
	}
	// Table III: widening the pipeline from 5 to 15 helps QR.
	if qr15.Total.Mean() >= qr5.Total.Mean() {
		t.Errorf("QR window 15 (%.1f ms) not better than window 5 (%.1f ms)",
			qr15.Total.Mean(), qr5.Total.Mean())
	}
	// Descending moves require no download: near-zero convergence.
	if m := qr5.PerType[gamemap.MoveToLowerLayer].Mean(); m > 1 {
		t.Errorf("to-lower-layer convergence = %.2f ms, want ≈0", m)
	}
	// Region→world is the heaviest move in every scheme.
	for name, r := range map[string]*MovementResult{"qr5": qr5, "qr15": qr15, "cyclic": cyc} {
		heavy := r.PerType[gamemap.MoveRegionToWorld].Mean()
		light := r.PerType[gamemap.MoveZoneSameRegion].Mean()
		if heavy <= light {
			t.Errorf("%s: region→world (%.1f) not heavier than zone move (%.1f)", name, heavy, light)
		}
	}
	// QR consumes more bytes than cyclic multicast (26 GB vs 14 GB shape).
	if cyc.Bytes >= qr15.Bytes {
		t.Errorf("cyclic bytes %.0f not below QR bytes %.0f", cyc.Bytes, qr15.Bytes)
	}
	if cyc.ObjectsSent == 0 || qr15.ObjectsSent == 0 {
		t.Error("no objects transferred")
	}
	// All six movement categories occurred.
	for _, mt := range gamemap.MoveTypes() {
		if qr5.Counts[mt] == 0 {
			t.Errorf("movement type %v never counted", mt)
		}
	}
}

func TestMovementValidation(t *testing.T) {
	env := testEnv(t, 100)
	if _, err := RunMovement(env, SnapshotConfig{Mode: SnapshotQR}); err == nil {
		t.Error("no brokers accepted")
	}
	if _, err := RunMovement(env, SnapshotConfig{Mode: SnapshotMode(9), Brokers: env.Cores[:1]}); err == nil {
		t.Error("bad mode accepted")
	}
	if _, err := RunMovement(env, SnapshotConfig{Mode: SnapshotQR, Brokers: env.Cores[:1]}); err == nil {
		t.Error("zero window accepted")
	}
	if SnapshotQR.String() == "" || SnapshotCyclic.String() == "" || SnapshotMode(9).String() == "" {
		t.Error("SnapshotMode.String broken")
	}
}

func TestTimescaleHelpers(t *testing.T) {
	env := testEnv(t, 1000)
	ups := env.Trace.Updates

	c := Compress(ups, 2.0)
	if got := c[1].At - c[0].At; got != 2*time.Millisecond {
		t.Errorf("constant compression spacing = %v", got)
	}
	r := CompressRamp(ups, 4.0, 2.0)
	early := r[1].At - r[0].At
	late := r[len(r)-1].At - r[len(r)-2].At
	if early <= late {
		t.Errorf("ramp not decreasing: early %v late %v", early, late)
	}
	if got := FirstN(ups, 10); len(got) != 10 {
		t.Errorf("FirstN = %d", len(got))
	}
	if got := FirstN(ups, 1<<30); len(got) != len(ups) {
		t.Errorf("FirstN overflow = %d", len(got))
	}
	mask, filtered := PlayerSubset(env.Trace, ups, 50, 1)
	chosen := 0
	for _, m := range mask {
		if m {
			chosen++
		}
	}
	if chosen != 50 {
		t.Errorf("subset size = %d", chosen)
	}
	for _, u := range filtered {
		if !mask[u.Player] {
			t.Fatal("filtered update from unchosen player")
		}
	}
	fullMask, full := PlayerSubset(env.Trace, ups, 10000, 1)
	if len(full) != len(ups) {
		t.Error("oversize subset should keep everything")
	}
	for _, m := range fullMask {
		if !m {
			t.Fatal("oversize subset mask incomplete")
		}
	}
}

func TestRunValidation(t *testing.T) {
	env := testEnv(t, 100)
	if _, err := (GCOPSSConfig{}).Run(env, nil); err == nil {
		t.Error("no RPs accepted")
	}
	bad := GCOPSSConfig{RPs: []RPPlacement{
		{Node: env.Cores[0], Prefixes: []cd.CD{cd.MustParse("/1")}},
		{Node: env.Cores[1], Prefixes: []cd.CD{cd.MustParse("/1/1")}},
	}, Costs: PaperCosts()}
	if _, err := bad.Run(env, nil); err == nil {
		t.Error("prefix-free violation accepted")
	}
	if _, err := (ServerConfig{}).Run(env, nil); err == nil {
		t.Error("no servers accepted")
	}
}
