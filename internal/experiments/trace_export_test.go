package experiments

import (
	"bytes"
	"os"
	"testing"

	obstrace "github.com/icn-gaming/gcopss/internal/obs/trace"
)

// TestTracedFig4Export is the tracing acceptance test: a traced Fig. 4 run
// must export a valid Chrome trace-event document with packet spans and
// router instants. With GCOPSS_TRACE_OUT set — the traced-fig4 CI job, which
// runs this test alone — the document is written to that path (CI uploads it
// as an artifact).
func TestTracedFig4Export(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full microbenchmark")
	}
	tr := obstrace.NewTracer(16, 42, 8192)
	if _, err := Fig4(Options{Scale: 0.05, Seed: 42, Trace: tr}); err != nil {
		t.Fatal(err)
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
	if err := obstrace.WriteChromeTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if err := obstrace.ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("exported document invalid: %v", err)
	}
	for _, want := range []string{`"ph":"X"`, `"ph":"i"`, `"name":"trace `, `"router R1"`} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("exported document misses %q", want)
		}
	}

	if out := os.Getenv("GCOPSS_TRACE_OUT"); out != "" {
		if err := os.WriteFile(out, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("chrome trace written to %s (%d bytes, %d hops)", out, buf.Len(), hops)
	}
}
