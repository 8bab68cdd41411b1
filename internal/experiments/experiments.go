// Package experiments regenerates every table and figure of the paper's
// evaluation (Section V). Each experiment builds its workload from the
// synthetic-trace and topology packages, runs the relevant systems, and
// returns both structured results and a rendered text report.
//
// The Scale knob shrinks workloads proportionally so the full suite runs in
// seconds during development (and in testing.B benchmarks); Scale = 1
// reproduces the paper-sized runs.
package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/icn-gaming/gcopss/internal/gamemap"
	obstrace "github.com/icn-gaming/gcopss/internal/obs/trace"
	"github.com/icn-gaming/gcopss/internal/sim"
	"github.com/icn-gaming/gcopss/internal/topo"
	"github.com/icn-gaming/gcopss/internal/trace"
)

// Options controls experiment scale and reproducibility.
type Options struct {
	// Scale in (0, 1] multiplies workload sizes; 1 is paper scale.
	Scale float64
	// Seed drives all randomness.
	Seed int64
	// Trace, when non-nil, attaches causal packet tracing to the Fig. 4
	// G-COPSS routers; hop records land in the tracer's rings for Chrome
	// trace export. Tracing never changes results (sampled packets carry an
	// extra ID, virtual time is untouched), so it is not part of Provenance.
	Trace *obstrace.Tracer
}

// Provenance records the inputs that make a result replayable. Every result
// embeds one and leads its Render output with it, so a number in a report
// can always be traced back to the exact run that produced it.
type Provenance struct {
	Scale float64
	Seed  int64
}

func (o Options) provenance() Provenance { return Provenance{Scale: o.Scale, Seed: o.Seed} }

// String renders the replay line, e.g. "replay: -scale 0.05 -seed 42".
func (p Provenance) String() string {
	return fmt.Sprintf("replay: -scale %g -seed %d", p.Scale, p.Seed)
}

func (o *Options) normalize() {
	if o.Scale <= 0 || o.Scale > 1 {
		o.Scale = 0.05
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
}

// scaleInt scales a paper-sized count, with a floor.
func scaleInt(n int, scale float64, floor int) int {
	v := int(float64(n) * scale)
	if v < floor {
		v = floor
	}
	return v
}

// Workbench bundles the world, trace and simulator environment shared by
// the large-scale experiments.
type Workbench struct {
	Opts  Options
	World *gamemap.World
	Trace *trace.Trace
	Env   *sim.Env
}

// NewWorkbench builds the scaled paper workload: 5×5 map, 3,197 objects,
// 414 players, scaled update count, and a scaled Rocketfuel-like backbone.
func NewWorkbench(opts Options) (*Workbench, error) {
	opts.normalize()
	m, err := gamemap.NewGrid(5, 5)
	if err != nil {
		return nil, err
	}
	world := gamemap.NewWorld(m)
	if err := world.PopulateObjects(gamemap.PaperObjectCounts(), 0, rand.New(rand.NewSource(opts.Seed))); err != nil {
		return nil, err
	}

	cfg := trace.PaperConfig()
	cfg.Seed = opts.Seed
	cfg.TotalUpdates = scaleInt(cfg.TotalUpdates, opts.Scale, 20000)
	cfg.Duration = time.Duration(float64(cfg.Duration) * maxf(opts.Scale, 0.02))
	tr, err := trace.Generate(world, cfg)
	if err != nil {
		return nil, err
	}

	bb := topo.PaperBackbone()
	bb.Seed = opts.Seed
	if opts.Scale < 0.5 {
		bb.CoreRouters = scaleInt(bb.CoreRouters, maxf(opts.Scale*4, 0.4), 20)
		bb.EdgeRouters = scaleInt(bb.EdgeRouters, maxf(opts.Scale*4, 0.4), 60)
	}
	env, err := sim.NewEnv(world, tr, bb)
	if err != nil {
		return nil, err
	}
	return &Workbench{Opts: opts, World: world, Trace: tr, Env: env}, nil
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// peakUpdates returns the Table I / Fig. 5 workload: the first chunk of the
// trace replayed at peak rate with the evening ramp (mean inter-arrival
// 2.4 ms, ramping 3.2 → 1.6 ms). Under this ramp a single 3.3 ms RP is
// oversubscribed from the start, the hot half of a 2-RP split crosses
// saturation late in the run (Fig. 5b's "congestion after 70,000 packets"),
// and 3+ RPs stay stable.
func (w *Workbench) peakUpdates() []trace.Update {
	n := scaleInt(100_000, w.Opts.Scale, 20000)
	return sim.CompressRamp(sim.FirstN(w.Trace.Updates, n), 3.2, 1.6)
}

// steadyUpdates returns a constant-rate peak workload (Fig. 6).
func (w *Workbench) steadyUpdates(n int) []trace.Update {
	return sim.Compress(sim.FirstN(w.Trace.Updates, n), 2.4)
}

// gb formats bytes as GB.
func gb(v float64) string { return fmt.Sprintf("%.3f", v/1e9) }
