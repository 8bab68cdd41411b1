package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	obstrace "github.com/icn-gaming/gcopss/internal/obs/trace"
)

// smokeConfig is a run a few hundred milliseconds long: enough for every
// phase, probe and correctness check to execute, far too short to time
// anything. The smoke tests assert no wall-clock figure.
func smokeConfig(t *testing.T, trace bool) runConfig {
	notes = io.Discard
	return runConfig{seed: 7, seconds: 0.3, trace: trace, warmup: 400, setups: 1, sim: smokeSim, outDir: t.TempDir()}
}

var smokeSim = simSpec{players: 150, span: 500 * time.Millisecond, warm: 100 * time.Millisecond}

func checkSmoke(t *testing.T, res *result, err error, table []metricDef) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.problems {
		// The generator-lateness gate compares two wall-clock figures; under
		// the race detector on a loaded host it says nothing about the code.
		if strings.Contains(p, "generator ran late") {
			t.Logf("ignored: %s", p)
			continue
		}
		t.Errorf("check tripped: %s", p)
	}
	if res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("attempted %d, failed %d", res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(table) {
		t.Errorf("%d metrics printed, table has %d", len(res.Metrics), len(table))
	}
	for _, d := range table {
		if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
			t.Errorf("metric %s: printed %+v, want unit %s", d.name, m, d.unit)
		}
	}
}

func TestSmokeEndToEnd(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := w.run(smokeConfig(t, false))
			checkSmoke(t, res, err, endToEnd)
			if err != nil {
				return
			}
			for _, d := range endToEnd {
				if res.Metrics[d.name].Value <= 0 {
					t.Errorf("%s = %v, must be positive on every workload", d.name, res.Metrics[d.name].Value)
				}
			}
		})
	}
}

func TestSmokeTraced(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := smokeConfig(t, true)
			res, err := w.run(cfg)
			checkSmoke(t, res, err, perLayer)
			traces, _ := filepath.Glob(filepath.Join(cfg.outDir, "*.trace.json"))
			if len(traces) == 0 && w.name != "sim-backbone" {
				t.Fatal("the traced run wrote no Chrome trace")
			}
			for _, path := range traces {
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := obstrace.ValidateChromeTrace(raw); err != nil {
					t.Fatalf("%s: %v", path, err)
				}
				spans := bytes.Count(raw, []byte(`"ph":"X"`))
				if spans == 0 {
					t.Errorf("%s holds no spans", path)
				}
			}
		})
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the program's
// metric and workload tables in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, spec.Workloads[i].Name, w.name)
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s %d: %s [%s] in BENCHMARK.json, %s [%s] in the program", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
			if bounded != (got[i].Bound != nil) {
				t.Errorf("%s %s: only end-to-end metrics carry a bound", kind, d.name)
			}
			if bounded && (*got[i].Bound <= 0 || *got[i].Bound > 0.25) {
				t.Errorf("%s %s: bound %v outside (0, 0.25]", kind, d.name, *got[i].Bound)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd, true)
	same("per_layer", spec.PerLayer, perLayer, false)
}
