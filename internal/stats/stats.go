// Package stats provides the summary statistics, CDFs and confidence
// intervals used to report the paper's tables and figures: update-latency
// distributions (Fig. 4, Fig. 5), latency/load scalability series (Fig. 6,
// Tables I–II) and per-movement-type convergence times with 95% confidence
// intervals (Table III).
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Sample accumulates float64 observations. The zero value is an empty
// sample ready for Add.
type Sample struct {
	values []float64
	sorted bool
	sum    float64
}

// Add appends an observation.
func (s *Sample) Add(v float64) {
	s.values = append(s.values, v)
	s.sorted = false
	s.sum += v
}

// AddAll appends many observations.
func (s *Sample) AddAll(vs ...float64) {
	for _, v := range vs {
		s.Add(v)
	}
}

// Merge appends every observation of other in other's insertion order.
// Hosts that accumulate observations per client merge them in canonical
// client order afterwards, which fixes the float summation order.
func (s *Sample) Merge(other *Sample) {
	for _, v := range other.values {
		s.Add(v)
	}
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.values) }

// Sum returns the total.
func (s *Sample) Sum() float64 { return s.sum }

// Mean returns the arithmetic mean (0 for an empty sample).
func (s *Sample) Mean() float64 {
	if len(s.values) == 0 {
		return 0
	}
	return s.sum / float64(len(s.values))
}

// Min returns the smallest observation (0 if empty).
func (s *Sample) Min() float64 {
	if len(s.values) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.values[0]
}

// Max returns the largest observation (0 if empty).
func (s *Sample) Max() float64 {
	if len(s.values) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.values[len(s.values)-1]
}

// Variance returns the unbiased sample variance.
func (s *Sample) Variance() float64 {
	n := len(s.values)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	var sq float64
	for _, v := range s.values {
		d := v - m
		sq += d * d
	}
	return sq / float64(n-1)
}

// Stddev returns the sample standard deviation.
func (s *Sample) Stddev() float64 { return math.Sqrt(s.Variance()) }

// Percentile returns the p-quantile (0 ≤ p ≤ 1) by linear interpolation.
func (s *Sample) Percentile(p float64) float64 {
	n := len(s.values)
	if n == 0 {
		return 0
	}
	s.ensureSorted()
	if p <= 0 {
		return s.values[0]
	}
	if p >= 1 {
		return s.values[n-1]
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s.values[lo]
	}
	frac := pos - float64(lo)
	return s.values[lo]*(1-frac) + s.values[hi]*frac
}

// Median returns the 50th percentile.
func (s *Sample) Median() float64 { return s.Percentile(0.5) }

// ConfidenceInterval95 returns the half-width of the 95% confidence interval
// of the mean (normal approximation, z = 1.96), as reported in Table III.
func (s *Sample) ConfidenceInterval95() float64 {
	n := len(s.values)
	if n < 2 {
		return 0
	}
	return 1.96 * s.Stddev() / math.Sqrt(float64(n))
}

// FractionAbove returns the fraction of observations strictly greater than
// the threshold (e.g. "8% of players experience an update latency over
// 55ms").
func (s *Sample) FractionAbove(threshold float64) float64 {
	if len(s.values) == 0 {
		return 0
	}
	n := 0
	for _, v := range s.values {
		if v > threshold {
			n++
		}
	}
	return float64(n) / float64(len(s.values))
}

func (s *Sample) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.values)
		s.sorted = true
	}
}

// CDFPoint is one step of an empirical CDF.
type CDFPoint struct {
	Value    float64
	Fraction float64
}

// CDF returns the empirical CDF downsampled to at most maxPoints steps
// (maxPoints <= 0 keeps every observation).
func (s *Sample) CDF(maxPoints int) []CDFPoint {
	n := len(s.values)
	if n == 0 {
		return nil
	}
	s.ensureSorted()
	stride := 1
	if maxPoints > 0 && n > maxPoints {
		stride = n / maxPoints
	}
	var out []CDFPoint
	for i := 0; i < n; i += stride {
		out = append(out, CDFPoint{Value: s.values[i], Fraction: float64(i+1) / float64(n)})
	}
	if last := out[len(out)-1]; last.Fraction != 1 {
		out = append(out, CDFPoint{Value: s.values[n-1], Fraction: 1})
	}
	return out
}

// Summary is a compact report of a sample.
type Summary struct {
	N      int
	Mean   float64
	Min    float64
	Max    float64
	Median float64
	P95    float64
	CI95   float64
}

// Summarize computes the standard report for a sample.
func Summarize(s *Sample) Summary {
	return Summary{
		N:      s.N(),
		Mean:   s.Mean(),
		Min:    s.Min(),
		Max:    s.Max(),
		Median: s.Median(),
		P95:    s.Percentile(0.95),
		CI95:   s.ConfidenceInterval95(),
	}
}

// String renders the summary for experiment logs.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3f min=%.3f median=%.3f p95=%.3f max=%.3f ±%.3f",
		s.N, s.Mean, s.Min, s.Median, s.P95, s.Max, s.CI95)
}

// Table renders rows of labelled values with aligned columns, for the
// experiment harness output.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends one formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteString("\n")
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i, w := range widths {
		sep[i] = strings.Repeat("-", w)
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Bytes formats a byte count in human units (KB/MB/GB with base 1e9 GB as
// the paper reports network load).
func Bytes(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.2fGB", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.2fMB", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.2fKB", v/1e3)
	default:
		return fmt.Sprintf("%.0fB", v)
	}
}

// Ms formats a duration given in milliseconds with adaptive precision.
func Ms(v float64) string {
	switch {
	case v >= 10000:
		return fmt.Sprintf("%.1fs", v/1000)
	case v >= 100:
		return fmt.Sprintf("%.0fms", v)
	default:
		return fmt.Sprintf("%.2fms", v)
	}
}
