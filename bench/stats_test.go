package main

import "testing"

// TestQuietWindows pins what the windows are for: stalled windows move a
// whole-run percentile and leave the quiet windows' value where it was.
func TestQuietWindows(t *testing.T) {
	const span = int64(10_000)
	w := newWindows(10, 0)
	var all []float64
	for win := int64(0); win < 10; win++ {
		for v := 1; v <= 100; v++ {
			x := float64(v)
			if win == 3 || win == 4 {
				x *= 100 // the host stalled during these windows
			}
			w.add(win*1000+int64(v), span, x)
			all = append(all, x)
		}
	}
	if w.count() != 1000 {
		t.Fatalf("count = %d, want 1000", w.count())
	}
	q := w.quantiles(0.5, 0.95)
	if q[0] != 50 || q[1] != 95 {
		t.Errorf("windowed p50, p95 = %v, %v; want 50, 95", q[0], q[1])
	}
	// The same samples as one run: the stalled window sets the p95.
	whole := newWindows(1, 0)
	for i, x := range all {
		whole.add(int64(i), int64(len(all)), x)
	}
	if p95 := whole.quantiles(0.95)[0]; p95 <= 95 {
		t.Errorf("whole-run p95 = %v, expected the stall to raise it", p95)
	}

	// Samples before the phase or at/after its end belong to no window.
	w.add(-1, span, 1e9)
	w.add(span, span, 1e9)
	if w.count() != 1000 {
		t.Errorf("out-of-phase samples were kept: count = %d", w.count())
	}
	// An empty window is no window: it does not drag the value to zero.
	sparse := newWindows(10, 0)
	sparse.add(0, span, 7)
	sparse.add(9999, span, 9)
	if got := sparse.quantiles(0.5)[0]; got != 7 {
		t.Errorf("quiet value of the two non-empty windows = %v, want 7", got)
	}
}

func TestQuietQuartiles(t *testing.T) {
	ten := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := quietLow(ten); got != 3 {
		t.Errorf("quietLow = %v, want the third lowest of ten", got)
	}
	if got := quietHigh(ten); got != 8 {
		t.Errorf("quietHigh = %v, want the third highest of ten", got)
	}
	if quietLow(nil) != 0 || quietHigh(nil) != 0 {
		t.Error("no windows should read 0")
	}
	if quietLow([]float64{4}) != 4 || quietHigh([]float64{4}) != 4 {
		t.Error("one window is its own quiet value")
	}
}

func TestPercentile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 5}, {0.95, 10}, {0.9, 9}, {1, 10}} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("percentile of nothing should be 0")
	}
}

// TestSeqCheck feeds the exactly-once checker one of each fault and requires
// each to be counted as what it is.
func TestSeqCheck(t *testing.T) {
	even := func(seq uint64) bool { return seq%2 == 0 } // this subscriber's share of 1..sent

	var clean seqCheck
	for seq := uint64(2); seq <= 20; seq += 2 {
		clean.observe(seq)
	}
	if v := clean.verdict(20, even); v.failed() != 0 || v.expected != 10 {
		t.Fatalf("clean stream: %+v", v)
	}

	cases := []struct {
		name   string
		stream []uint64
		want   seqVerdict
	}{
		{"dropped", []uint64{2, 4, 8, 10}, seqVerdict{expected: 5, missing: 1}},
		{"duplicated", []uint64{2, 4, 4, 6, 8, 10}, seqVerdict{expected: 5, duplicate: 1}},
		{"reordered", []uint64{2, 6, 4, 8, 10}, seqVerdict{expected: 5, reordered: 1}},
		{"misdelivered", []uint64{2, 3, 4, 6, 8, 10}, seqVerdict{expected: 5, misdelivered: 1}},
		{"beyond what was sent", []uint64{2, 4, 6, 8, 10, 4096}, seqVerdict{expected: 5, misdelivered: 1}},
	}
	for _, c := range cases {
		var chk seqCheck
		for _, seq := range c.stream {
			chk.observe(seq)
		}
		if got := chk.verdict(10, even); got != c.want {
			t.Errorf("%s: verdict %+v, want %+v", c.name, got, c.want)
		}
	}
}
