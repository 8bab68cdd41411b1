// Command experiments regenerates the paper's tables and figures.
//
//	experiments all                       # every experiment at 5% scale
//	experiments -scale 1 table1           # paper-scale Table I
//	experiments fig4 fig5 table3          # a subset
//
// Subcommands: fig3, fig4, table1, fig5, fig6, table2, table3, all.
// The shape of each result — who wins, by what factor, where the knees and
// crossovers fall — reproduces the paper at any scale; absolute numbers
// converge toward the published ones as -scale approaches 1 (see
// EXPERIMENTS.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/icn-gaming/gcopss/internal/experiments"
	obstrace "github.com/icn-gaming/gcopss/internal/obs/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		scale       = flag.Float64("scale", 0.05, "workload scale in (0,1]; 1 = paper scale")
		seed        = flag.Int64("seed", 42, "random seed")
		traceOut    = flag.String("trace", "", "write a Chrome trace (Perfetto / chrome://tracing) of the fig4 G-COPSS run to this file")
		traceSample = flag.Int("trace-sample", 16, "with -trace, sample 1 in N publications for causal tracing (N >= 1)")
	)
	flag.Parse()
	opts := experiments.Options{Scale: *scale, Seed: *seed}
	var tracer *obstrace.Tracer
	if *traceOut != "" {
		// With sampling off the rings would keep every untraced step, and
		// the export shows only traced ones: nothing to write.
		if *traceSample < 1 {
			return fmt.Errorf("-trace needs -trace-sample >= 1, got %d", *traceSample)
		}
		tracer = obstrace.NewTracer(*traceSample, *seed, 8192)
		opts.Trace = tracer
	}

	names := flag.Args()
	if len(names) == 0 {
		names = []string{"all"}
	}
	want := map[string]bool{}
	for _, n := range names {
		if n == "all" {
			for _, k := range []string{"fig3", "fig4", "table1", "fig5", "fig6", "table2", "table3", "ablation"} {
				want[k] = true
			}
			continue
		}
		want[n] = true
	}

	var w *experiments.Workbench
	bench := func() (*experiments.Workbench, error) {
		if w != nil {
			return w, nil
		}
		var err error
		fmt.Printf("building workbench (scale=%.3f seed=%d)...\n", opts.Scale, opts.Seed)
		w, err = experiments.NewWorkbench(opts)
		return w, err
	}

	ran := 0
	section := func(name string) {
		if ran > 0 {
			fmt.Println()
		}
		fmt.Printf("=== %s ===\n", name)
		ran++
	}

	for _, name := range []string{"fig3", "fig4", "table1", "fig5", "fig6", "table2", "table3", "ablation"} {
		if !want[name] {
			continue
		}
		start := time.Now()
		switch name {
		case "fig3":
			wb, err := bench()
			if err != nil {
				return err
			}
			r, err := experiments.Fig3(wb)
			if err != nil {
				return err
			}
			section("Fig 3")
			fmt.Print(r.Render())
			fmt.Println(r.ObjectLayerBreakdown(wb))
		case "fig4":
			section("Fig 4")
			r, err := experiments.Fig4(opts)
			if err != nil {
				return err
			}
			fmt.Print(r.Render())
			if tracer != nil {
				if err := writeChromeTrace(*traceOut, tracer); err != nil {
					return err
				}
				fmt.Printf("chrome trace written to %s\n", *traceOut)
			}
		case "table1":
			wb, err := bench()
			if err != nil {
				return err
			}
			r, err := experiments.Table1(wb)
			if err != nil {
				return err
			}
			section("Table I")
			fmt.Print(r.Render())
		case "fig5":
			wb, err := bench()
			if err != nil {
				return err
			}
			r, err := experiments.Fig5(wb)
			if err != nil {
				return err
			}
			section("Fig 5")
			fmt.Print(r.Render())
		case "fig6":
			wb, err := bench()
			if err != nil {
				return err
			}
			r, err := experiments.Fig6(wb)
			if err != nil {
				return err
			}
			section("Fig 6")
			fmt.Print(r.Render())
		case "table2":
			wb, err := bench()
			if err != nil {
				return err
			}
			r, err := experiments.Table2(wb)
			if err != nil {
				return err
			}
			section("Table II")
			fmt.Print(r.Render())
		case "table3":
			wb, err := bench()
			if err != nil {
				return err
			}
			r, err := experiments.Table3(wb)
			if err != nil {
				return err
			}
			section("Table III")
			fmt.Print(r.Render())
		case "ablation":
			wb, err := bench()
			if err != nil {
				return err
			}
			r, err := experiments.Ablation(wb)
			if err != nil {
				return err
			}
			section("Ablations")
			fmt.Print(r.Render())
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		fmt.Printf("[%s took %v]\n", name, time.Since(start).Round(time.Millisecond))
		delete(want, name)
	}
	for name := range want {
		return fmt.Errorf("unknown experiment %q", name)
	}
	return nil
}

// writeChromeTrace dumps the tracer rings as a Chrome trace-event JSON file.
func writeChromeTrace(path string, tr *obstrace.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obstrace.WriteChromeTrace(f, tr); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
