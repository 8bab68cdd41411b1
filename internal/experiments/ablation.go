package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/icn-gaming/gcopss/internal/cd"
	"github.com/icn-gaming/gcopss/internal/copss"
	"github.com/icn-gaming/gcopss/internal/ndn"
	"github.com/icn-gaming/gcopss/internal/rangesub"
	"github.com/icn-gaming/gcopss/internal/stats"
	"github.com/icn-gaming/gcopss/internal/testbed"
)

// AblationResult quantifies the design choices DESIGN.md calls out:
//
//  1. Forwarding-decision cost of the hierarchical-CD Subscription Table
//     (the routers' exact index, and the paper's per-face Bloom filters
//     with and without the first-hop hash optimization) versus a
//     Mercury-style coordinate-range table — the related-work claim that
//     range matching "increases the computation overhead for forwarding".
//  2. Delivery precision: the range system's over-delivery factor caused by
//     2D ranges being unable to express altitude layers.
//  3. The multi-layer map's subscription-state savings versus flattened
//     per-leaf subscriptions ("CDs ... could be aggregated").
type AblationResult struct {
	Provenance Provenance

	// Per-decision forwarding costs (ns), matching one zone update against
	// the 62-player microbenchmark subscription population.
	ExactNs, BloomNs, BloomPrehashNs, RangeNs float64

	// Delivery counts for one representative publication set.
	CDDeliveries, RangeDeliveries int

	// Subscription-state comparison over the 414-player population.
	HierarchicalEntries, FlattenedEntries int
	HierarchicalRPSize, FlattenedRPSize   int

	// Delivery-mode comparison (one-step vs two-step COPSS) on the testbed.
	DeliveryModes []testbed.DeliveryModeResult
}

// Ablation runs all three studies.
func Ablation(w *Workbench) (*AblationResult, error) {
	res := &AblationResult{Provenance: w.Opts.provenance()}
	m := w.World.Map

	// --- Study 1 & 2: forwarding cost and precision at one node carrying
	// the 62-player population (2 players per area).
	exact := copss.NewST()
	blm := &copss.BloomST{}
	geo := rangesub.NewGeometry(m)
	rng := rangesub.NewTable()
	face := ndn.FaceID(0)
	for _, a := range m.Areas() {
		for j := 0; j < 2; j++ {
			face++
			for _, c := range a.SubscriptionCDs() {
				exact.Add(face, c)
				blm.Add(face, c)
			}
			for _, r := range geo.AoIRects(a) {
				if err := rng.Subscribe(face, r); err != nil {
					return nil, fmt.Errorf("experiments: ablation: %w", err)
				}
			}
		}
	}
	zone, ok := m.Area(cd.MustParse("/3/4"))
	if !ok {
		return nil, fmt.Errorf("experiments: ablation: map has no /3/4")
	}
	pub := zone.PublishCD()
	x, y, _ := geo.PointOf(zone)
	pairs := copss.PrefixHashes(pub)

	// Each matcher reports its median over many short interleaved rounds. The
	// arms alternate within a round, so a spell of host interference lands on
	// all of them rather than on one. The plain Bloom arm hashes the CD's
	// prefixes on every decision; the first-hop arm is handed them. The
	// median, not the minimum: on a shared host the fastest round is a rare
	// quiet slot that only one arm happens to catch.
	arms := [...]struct {
		ns *float64
		fn func()
	}{
		{&res.ExactNs, func() { exact.FacesFor(pub) }},
		{&res.BloomNs, func() { blm.FacesFor(pub) }},
		{&res.BloomPrehashNs, func() { blm.FacesForHashed(pub, pairs) }},
		{&res.RangeNs, func() { rng.FacesFor(x, y) }},
	}
	const rounds, opsPerRound = 41, 500
	var samples [len(arms)][rounds]float64
	for r := 0; r < rounds; r++ {
		for i, a := range arms {
			samples[i][r] = timePerOp(opsPerRound, a.fn)
		}
	}
	for i, a := range arms {
		sort.Float64s(samples[i][:])
		*a.ns = samples[i][rounds/2]
	}

	// Precision: deliveries for one update in every zone.
	for _, a := range m.Areas() {
		if !a.IsLeaf() {
			continue
		}
		res.CDDeliveries += len(exact.FacesFor(a.PublishCD()))
		px, py, _ := geo.PointOf(a)
		res.RangeDeliveries += len(rng.FacesFor(px, py))
	}

	// --- Study 3: hierarchical aggregation vs flattened subscriptions for
	// the full 414-player trace population.
	rpST := copss.NewST()
	flatST := copss.NewST()
	for pi, p := range w.Trace.Players {
		area, ok := m.Area(p.Area)
		if !ok {
			continue
		}
		hier := area.SubscriptionCDs()
		res.HierarchicalEntries += len(hier)
		for _, c := range hier {
			rpST.Add(ndn.FaceID(pi), c)
		}
		flat := area.VisibleLeaves()
		res.FlattenedEntries += len(flat)
		for _, c := range flat {
			flatST.Add(ndn.FaceID(pi), c)
		}
	}
	res.HierarchicalRPSize = rpST.Len()
	res.FlattenedRPSize = flatST.Len()

	// --- Study 4: the one-step delivery choice. Small game updates versus
	// large content, with 30% of subscribers actually consuming.
	modes, err := testbed.RunDeliveryComparison([]int{150, 20000}, 12, 0.3, 20)
	if err != nil {
		return nil, fmt.Errorf("experiments: ablation delivery modes: %w", err)
	}
	res.DeliveryModes = modes
	return res, nil
}

// timePerOp measures fn's cost in ns/op over n runs.
func timePerOp(n int, fn func()) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// Render formats the ablation report.
func (r *AblationResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablations — forwarding engine and naming-design choices (%s)\n\n", r.Provenance)

	t1 := &stats.Table{
		Title:   "1. Forwarding-decision cost (one node, 62-player subscription population)",
		Headers: []string{"matcher", "ns/decision", "vs bloom"},
	}
	rel := func(v float64) string { return fmt.Sprintf("%.2fx", v/r.BloomNs) }
	t1.AddRow("ST exact index", fmt.Sprintf("%.0f", r.ExactNs), rel(r.ExactNs))
	t1.AddRow("ST Bloom", fmt.Sprintf("%.0f", r.BloomNs), rel(r.BloomNs))
	t1.AddRow("ST Bloom + first-hop hashes", fmt.Sprintf("%.0f", r.BloomPrehashNs), rel(r.BloomPrehashNs))
	t1.AddRow("coordinate ranges (Mercury-style)", fmt.Sprintf("%.0f", r.RangeNs), rel(r.RangeNs))
	b.WriteString(t1.String())
	b.WriteString("\n")

	fmt.Fprintf(&b, "2. Delivery precision (one update per zone): CD hierarchy %d deliveries, "+
		"coordinate ranges %d (%.1fx over-delivery — 2D ranges cannot express altitude layers)\n\n",
		r.CDDeliveries, r.RangeDeliveries, float64(r.RangeDeliveries)/float64(r.CDDeliveries))

	t3 := &stats.Table{
		Title:   "3. Subscription state, 414 players (hierarchical aggregation vs flattened leaves)",
		Headers: []string{"scheme", "player entries", "first-hop ST entries"},
	}
	t3.AddRow("hierarchical CDs", fmt.Sprintf("%d", r.HierarchicalEntries), fmt.Sprintf("%d", r.HierarchicalRPSize))
	t3.AddRow("flattened leaf CDs", fmt.Sprintf("%d", r.FlattenedEntries), fmt.Sprintf("%d", r.FlattenedRPSize))
	b.WriteString(t3.String())
	fmt.Fprintf(&b, "aggregation saves %.1f%% of subscription state\n\n",
		100*(1-float64(r.HierarchicalEntries)/float64(r.FlattenedEntries)))

	t4 := &stats.Table{
		Title:   "4. Delivery mode (12 subscribers, 30% consuming; one-step is the paper's gaming choice)",
		Headers: []string{"mode", "payload", "mean latency", "network bytes", "deliveries"},
	}
	for _, m := range r.DeliveryModes {
		t4.AddRow(m.Mode.String(), fmt.Sprintf("%dB", m.PayloadBytes),
			stats.Ms(m.MeanLatencyMs), stats.Bytes(m.NetworkBytes), fmt.Sprintf("%d", m.Deliveries))
	}
	b.WriteString(t4.String())
	return b.String()
}
