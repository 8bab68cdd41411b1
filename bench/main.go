// Command bench is the repository's benchmark: four workloads over the live
// TCP path and the packet-level simulator, each run in a process of its own.
// BENCHMARK.json at the repository root names the workloads and metrics;
// README.md in this directory explains them.
//
//	bench -workload live-fanout -seed 1 -seconds 20 -trace 0   end-to-end metrics
//	bench -workload live-fanout -seed 1 -seconds 20 -trace 1   per-layer metrics
//	bench                                                      every workload, one after the other
//	bench -selfcheck                                           every workload twice; the spreads
//
// The last line a run prints on standard output is its result as one JSON
// object; everything else goes to standard error. A run whose correctness
// checks trip still prints its result, with "correct": false, and exits 1.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// workload is one row of BENCHMARK.json's workloads: its untraced run (the
// end-to-end metrics) and its traced run (the per-layer metrics).
type workload struct {
	name          string
	plain, traced func(cfg runConfig) (*result, error)
	setups        int // times set-up is repeated; setup_s is their median
}

var workloads = []workload{
	{"live-fanout",
		func(c runConfig) (*result, error) { return runLive(liveFanout, c) },
		func(c runConfig) (*result, error) { return runLiveTraced(liveFanout, c) }, 5},
	{"live-pairs",
		func(c runConfig) (*result, error) { return runLive(livePairs, c) },
		func(c runConfig) (*result, error) { return runLiveTraced(livePairs, c) }, 9},
	// A set-up of live-move is a fifth of a second, most of it the movers'
	// warm-up lap and as noisy as the moves themselves.
	{"live-move", runMove, runMoveTraced, 9},
	// A set-up of sim-backbone is a second and a half of simulation.
	{"sim-backbone", runSim, runSimTraced, 3},
}

func (w workload) run(cfg runConfig) (*result, error) {
	if cfg.trace {
		return w.traced(cfg)
	}
	return w.plain(cfg)
}

// warmupPublishes is the count-based warm-up every live set-up ends with.
const warmupPublishes = 20000

func main() {
	name := flag.String("workload", "", "workload to run in this process; empty runs each in a child process")
	seed := flag.Int64("seed", 1, "seed of the generated inputs: CD order, payload sizes, zone rotation, sim trace")
	seconds := flag.Float64("seconds", 20, "seconds to measure for")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run")
	selfcheck := flag.Bool("selfcheck", false, "run every workload twice and compare the end-to-end metrics with their bounds")
	out := flag.String("out", "bench/out", "directory the traced run writes Chrome traces and profiles to")
	flag.Parse()

	switch {
	case *selfcheck:
		os.Exit(selfCheck(*seed, *seconds))
	case *name == "":
		code := 0
		for _, w := range workloads {
			if _, c := runChild(w.name, *seed, *seconds, *trace, *out); c != 0 {
				code = c
			}
		}
		os.Exit(code)
	}
	for _, w := range workloads {
		if w.name != *name {
			continue
		}
		cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace != 0,
			warmup: warmupPublishes, setups: w.setups, sim: simBackbone, outDir: *out}
		os.Exit(report(w.run(cfg)))
	}
	fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
	os.Exit(2)
}

// report prints a run's result line and returns the exit code.
func report(res *result, err error) int {
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "bench: FAILED CHECK:", p)
	}
	res.Correct = len(res.problems) == 0 && res.Failed == 0 && res.Attempted > 0
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runChild runs one workload in a fresh process, so heap and allocation
// counts do not leak from one workload into the next, passes its output
// through and returns its parsed result line.
func runChild(name string, seed int64, seconds float64, trace int, out string) (*result, int) {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return nil, 2
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-out", out)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	os.Stdout.Write(stdout) //nolint:errcheck // nothing to do about a closed stdout
	code := 0
	if err != nil {
		code = 2
		if ee, ok := err.(*exec.ExitError); ok {
			code = ee.ExitCode()
		}
	}
	var last []byte
	for sc := bufio.NewScanner(bytes.NewReader(stdout)); sc.Scan(); {
		last = append(last[:0], sc.Bytes()...)
	}
	res := &result{}
	if json.Unmarshal(last, res) != nil {
		return nil, code
	}
	return res, code
}

// selfCheck runs every workload twice on this binary and compares each
// end-to-end metric's two values with the metric's own bound from
// BENCHMARK.json, printing both and their relative spread: the noise band as
// a recorded number.
func selfCheck(seed int64, seconds float64) int {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: -selfcheck reads the bounds from BENCHMARK.json in the working directory:", err)
		return 2
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "bench: BENCHMARK.json:", err)
		return 2
	}
	code := 0
	for _, w := range workloads {
		var runs [2]*result
		for i := range runs {
			r, c := runChild(w.name, seed, seconds, 0, "bench/out")
			if c != 0 || r == nil {
				fmt.Fprintf(os.Stderr, "bench: %s: run %d failed\n", w.name, i+1)
				return 1
			}
			runs[i] = r
		}
		for _, m := range spec.EndToEnd {
			a, b := runs[0].Metrics[m.Name].Value, runs[1].Metrics[m.Name].Value
			spread := abs(a-b) / ((a + b) / 2)
			verdict := "ok"
			if spread > m.Bound {
				verdict, code = "OUTSIDE ITS BOUND", 1
			}
			fmt.Fprintf(os.Stderr, "selfcheck %-13s %-20s %14.6g %14.6g %s  spread %.4f  bound %.2f  %s\n",
				w.name, m.Name, a, b, runs[0].Metrics[m.Name].Unit, spread, m.Bound, verdict)
		}
	}
	return code
}
