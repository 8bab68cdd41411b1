package testbed

import (
	"fmt"
	"testing"

	"github.com/icn-gaming/gcopss/internal/flowctl"
)

// TestFlowControlAdaptiveBeatsStatic is the acceptance gate of the adaptive
// flow-control work: on the same seeded loss-and-partition network, the
// adaptive timers must deliver strictly more snapshot goodput and strictly
// fewer ARQ abandonments than the legacy fixed-timer baseline — at both ends
// of the loss grid.
func TestFlowControlAdaptiveBeatsStatic(t *testing.T) {
	if testing.Short() {
		t.Skip("flow chaos is slow")
	}
	for _, loss := range []float64{0.05, 0.20} {
		loss := loss
		t.Run(fmt.Sprintf("loss=%g", loss), func(t *testing.T) {
			adaptive, err := RunFlowChaos(FlowChaosSpec{Loss: loss, Seed: 2})
			if err != nil {
				t.Fatal(err)
			}
			static, err := RunFlowChaos(FlowChaosSpec{Loss: loss, Seed: 2,
				Flow: []flowctl.Option{flowctl.Static()}})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("adaptive: %+v", adaptive)
			t.Logf("static:   %+v", static)

			// The partition outlives the static schedules: the fixed-RTO ARQ
			// abandons the re-announcement flood and the fixed-window fetch
			// gives up, while the adaptive timers probe past the heal.
			if !adaptive.FetchDone {
				t.Errorf("adaptive fetch did not complete: %+v", adaptive)
			}
			if !static.FetchFailed {
				t.Errorf("static fetch did not fail under the partition: %+v", static)
			}
			if adaptive.GoodputPerSec <= static.GoodputPerSec {
				t.Errorf("adaptive goodput %.2f obj/s not above static %.2f obj/s",
					adaptive.GoodputPerSec, static.GoodputPerSec)
			}
			if static.RetransAbandoned == 0 {
				t.Error("static run abandoned nothing — the partition never bit")
			}
			if adaptive.RetransAbandoned >= static.RetransAbandoned {
				t.Errorf("adaptive abandoned %d ≥ static %d",
					adaptive.RetransAbandoned, static.RetransAbandoned)
			}
			// The multicast data plane is fault-free in both runs: reliability
			// differences must come from the control plane alone.
			if adaptive.Missing != 0 {
				t.Errorf("adaptive run missing %d deliveries", adaptive.Missing)
			}
		})
	}
}

// TestFlowChaosDeterminism pins that flowctl kept the runs clock-free: the
// same spec replays to a bit-identical result (fault trace included), and a
// different seed actually changes the packet trace.
func TestFlowChaosDeterminism(t *testing.T) {
	spec := FlowChaosSpec{Loss: 0.20, Seed: 7}
	a, err := RunFlowChaos(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFlowChaos(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same seed diverged:\n  run1 %+v\n  run2 %+v", a, b)
	}
	spec.Seed = 8
	c, err := RunFlowChaos(spec)
	if err != nil {
		t.Fatal(err)
	}
	if c.TraceHash == a.TraceHash {
		t.Fatal("different seeds produced identical fault traces")
	}
}
