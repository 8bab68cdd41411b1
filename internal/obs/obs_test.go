package obs

import (
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("packets_in")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if again := reg.Counter("packets_in"); again != c {
		t.Error("Counter is not idempotent per name")
	}

	g := reg.Gauge("queue_depth")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Errorf("gauge = %d, want 4", got)
	}
}

func TestRegistryRejectsBadNamesAndKindConflicts(t *testing.T) {
	reg := NewRegistry()
	for _, bad := range []string{"", "1abc", "Upper", "with-dash", "with space", "_lead"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q: expected panic", bad)
				}
			}()
			reg.Counter(bad)
		}()
	}
	reg.Counter("dual")
	func() {
		defer func() {
			if recover() == nil {
				t.Error("kind conflict: expected panic")
			}
		}()
		reg.Gauge("dual")
	}()
}

func TestValidName(t *testing.T) {
	for name, want := range map[string]bool{
		"multicast_in":    true,
		"ndn.pit_entries": true,
		"a":               true,
		"a9._":            true,
		"":                false,
		"9a":              false,
		"A":               false,
		"a-b":             false,
		"\u00e9tat":       false,
	} {
		if got := ValidName(name); got != want {
			t.Errorf("ValidName(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestHistogramBucketsAndSum(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat_ms", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Errorf("count = %d, want 5", got)
	}
	if got := h.Sum(); math.Abs(got-106) > 1e-9 {
		t.Errorf("sum = %g, want 106", got)
	}
	want := []uint64{2, 1, 1, 1} // ≤1: {0.5,1}, ≤2: {1.5}, ≤4: {3}, +Inf: {100}
	got := h.Snapshot()
	if len(got) != len(want) {
		t.Fatalf("snapshot = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestHistogramObserveNMatchesObserve(t *testing.T) {
	vals := []float64{0.5, 1, 1.5, 3, 3, 3, 100}
	one := NewHistogram([]float64{1, 2, 4})
	for _, v := range vals {
		one.Observe(v)
	}
	batch := NewHistogram([]float64{1, 2, 4})
	batch.ObserveN(0.5, 1)
	batch.ObserveN(1, 1)
	batch.ObserveN(1.5, 1)
	batch.ObserveN(3, 3)
	batch.ObserveN(100, 1)
	batch.ObserveN(42, 0) // no-op

	if g, w := batch.Count(), one.Count(); g != w {
		t.Errorf("count = %d, want %d", g, w)
	}
	if g, w := batch.Sum(), one.Sum(); math.Abs(g-w) > 1e-9 {
		t.Errorf("sum = %g, want %g", g, w)
	}
	gs, ws := batch.Snapshot(), one.Snapshot()
	for i := range ws {
		if gs[i] != ws[i] {
			t.Errorf("bucket %d = %d, want %d", i, gs[i], ws[i])
		}
	}
	for _, q := range []float64{0.5, 0.99} {
		if g, w := batch.Quantile(q), one.Quantile(q); math.Abs(g-w) > 1e-9 {
			t.Errorf("quantile %g = %g, want %g", q, g, w)
		}
	}
}

func TestLatencyBucketsAreLogSpaced(t *testing.T) {
	b := LatencyBucketsMs()
	if len(b) != 20 {
		t.Fatalf("len = %d, want 20", len(b))
	}
	if b[0] != 0.05 {
		t.Errorf("first bound = %g, want 0.05", b[0])
	}
	for i := 1; i < len(b); i++ {
		if math.Abs(b[i]/b[i-1]-2) > 1e-12 {
			t.Errorf("bounds %d..%d not doubling: %g %g", i-1, i, b[i-1], b[i])
		}
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := newHistogram([]float64{1, 10, 100})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(float64(i % 200))
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != 8000 {
		t.Errorf("count = %d, want 8000", got)
	}
}

func TestWriteTextExposition(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("multicast_in").Add(3)
	reg.Gauge("st_entries").Set(12)
	reg.GaugeFunc("rp_table_entries", func() float64 { return 2 })
	h := reg.Histogram("delivery_latency_ms", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(50)

	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE multicast_in counter\nmulticast_in 3\n",
		"# TYPE st_entries gauge\nst_entries 12\n",
		"rp_table_entries 2\n",
		"# TYPE delivery_latency_ms histogram",
		`delivery_latency_ms_bucket{le="1"} 1`,
		`delivery_latency_ms_bucket{le="10"} 2`,
		`delivery_latency_ms_bucket{le="+Inf"} 3`,
		"delivery_latency_ms_sum 55.5",
		"delivery_latency_ms_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestDebugMux(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("hits").Inc()
	mux := NewDebugMux(
		func(w io.Writer) { reg.WriteText(w) },                                //nolint:errcheck // test shim
		func(w io.Writer, n int) { fmt.Fprintf(w, "#0 multicast n=%d\n", n) }, //nolint:errcheck // test shim
		func(w io.Writer) { io.WriteString(w, `{"traceEvents":[]}`) },         //nolint:errcheck // test shim
	)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close() //nolint:errcheck // test shim
		var sb strings.Builder
		if _, err := io.Copy(&sb, resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, sb.String()
	}

	if code, body := get("/metrics"); code != http.StatusOK || !strings.Contains(body, "hits 1") {
		t.Errorf("/metrics: code=%d body=%q", code, body)
	}
	if code, body := get("/flight?n=1"); code != http.StatusOK || !strings.Contains(body, "multicast") {
		t.Errorf("/flight: code=%d body=%q", code, body)
	}
	if code, _ := get("/flight?n=bogus"); code != http.StatusBadRequest {
		t.Errorf("/flight bad n: code=%d, want 400", code)
	}
	if code, body := get("/debug/pprof/cmdline"); code != http.StatusOK || body == "" {
		t.Errorf("/debug/pprof/cmdline: code=%d", code)
	}
	if code, body := get("/debug/trace"); code != http.StatusOK || !strings.Contains(body, "traceEvents") {
		t.Errorf("/debug/trace: code=%d body=%q", code, body)
	}

	noFlight := httptest.NewServer(NewDebugMux(func(w io.Writer) {}, nil, nil))
	defer noFlight.Close()
	for _, path := range []string{"/flight", "/debug/trace"} {
		resp, err := http.Get(noFlight.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close() //nolint:errcheck // test shim
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s without source: code=%d, want 404", path, resp.StatusCode)
		}
	}
}

func TestLoggerHelpers(t *testing.T) {
	var sb strings.Builder
	l := Scoped(NewLogger(&sb, slog.LevelInfo), "testcomp")
	l.Debug("hidden")
	l.Info("visible", "k", "v")
	Printf(l)("printf %d", 7)
	out := sb.String()
	if strings.Contains(out, "hidden") {
		t.Error("debug line leaked at info level")
	}
	for _, want := range []string{"component=testcomp", "visible", "k=v", "printf 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("log output missing %q:\n%s", want, out)
		}
	}
	for in, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "INFO": slog.LevelInfo, "warn": slog.LevelWarn,
		"warning": slog.LevelWarn, "Error": slog.LevelError, "": slog.LevelInfo,
	} {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel accepted garbage")
	}
}
