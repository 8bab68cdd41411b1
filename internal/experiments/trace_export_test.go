package experiments

import (
	"bytes"
	"os"
	"testing"

	obstrace "github.com/icn-gaming/gcopss/internal/obs/trace"
)

// TestTracedFig4Export is the tracing acceptance test: a traced, profiled
// Fig. 4 run on 8 workers must export a valid Chrome trace-event document
// with a scheduler profile. With GCOPSS_TRACE_OUT set — the traced-fig4 CI
// job, which runs this test alone — the profile must also attribute at least
// 90% of the wall time to the window/global/drain buckets, and the document
// is written to that path (CI uploads it as an artifact). In tier-1 that
// wall-clock ratio is only checked for sanity: other packages' tests load
// the host in parallel and push the unattributed share past any fixed gate.
func TestTracedFig4Export(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full microbenchmark")
	}
	tr := obstrace.NewTracer(16, 42, 8192)
	r, err := Fig4(Options{Scale: 0.05, Seed: 42, Workers: 8, Trace: tr, Profile: true})
	if err != nil {
		t.Fatal(err)
	}

	prof := r.GCOPSS.Sched
	if prof == nil {
		t.Fatal("profiled run returned no scheduler profile")
	}
	if prof.Workers != 8 {
		t.Errorf("profile workers = %d, want 8", prof.Workers)
	}
	if prof.Windows == 0 {
		t.Error("profiled run recorded no windows")
	}
	out := os.Getenv("GCOPSS_TRACE_OUT")
	frac := prof.AttributedFrac()
	t.Logf("profile attributes %.1f%% of wall time", frac*100)
	if frac <= 0 || frac > 1 {
		t.Errorf("attributed fraction %v outside (0, 1]", frac)
	}
	if out != "" && frac < 0.9 {
		t.Errorf("profile attributes %.1f%% of wall time, want >= 90%%", frac*100)
	}

	// Hop records must exist: the sampler admits 1 in 16 publications and
	// the scaled trace publishes hundreds.
	hops := 0
	for _, ring := range tr.Rings() {
		hops += len(ring.Snapshot())
	}
	if hops == 0 {
		t.Fatal("traced run recorded no hops")
	}

	var buf bytes.Buffer
	if err := obstrace.WriteChromeTrace(&buf, tr, prof); err != nil {
		t.Fatal(err)
	}
	if err := obstrace.ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("exported document invalid: %v", err)
	}
	for _, want := range []string{`"ph":"X"`, `"ph":"i"`, "barrier-wait", "scheduler"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("exported document misses %q", want)
		}
	}

	if out != "" {
		if err := os.WriteFile(out, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("chrome trace written to %s (%d bytes, %d hops)", out, buf.Len(), hops)
	}
}
