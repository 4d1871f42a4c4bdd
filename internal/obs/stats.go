package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Sample is one point of a time series.
type Sample struct {
	T time.Duration
	V float64
}

// Series is a named, time-ordered sequence of samples: the QPS/latency
// timelines the evaluation harness plots.
type Series struct {
	Name   string
	Unit   string
	Points []Sample
}

// Add appends a sample; samples must be appended in time order.
func (s *Series) Add(t time.Duration, v float64) {
	if n := len(s.Points); n > 0 && s.Points[n-1].T > t {
		panic(fmt.Sprintf("obs: out-of-order sample %v after %v", t, s.Points[n-1].T))
	}
	s.Points = append(s.Points, Sample{T: t, V: v})
}

// At returns the value at time t (the most recent sample ≤ t), or 0
// before the first sample.
func (s *Series) At(t time.Duration) float64 {
	i := sort.Search(len(s.Points), func(i int) bool { return s.Points[i].T > t })
	if i == 0 {
		return 0
	}
	return s.Points[i-1].V
}

// Values returns the raw sample values.
func (s *Series) Values() []float64 {
	out := make([]float64, len(s.Points))
	for i, p := range s.Points {
		out[i] = p.V
	}
	return out
}

// Window returns samples in [from, to).
func (s *Series) Window(from, to time.Duration) []Sample {
	var out []Sample
	for _, p := range s.Points {
		if p.T >= from && p.T < to {
			out = append(out, p)
		}
	}
	return out
}

// Mean returns the arithmetic mean of vs (0 for empty input).
func Mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// sortedClean returns a sorted copy of vs without its NaN samples: the
// one sort Percentile, Summarize and Box each pay.
func sortedClean(vs []float64) []float64 {
	out := make([]float64, 0, len(vs))
	for _, v := range vs {
		if !math.IsNaN(v) {
			out = append(out, v)
		}
	}
	sort.Float64s(out)
	return out
}

// quantile is the p-th percentile (0-100) of a sorted, non-empty,
// NaN-free slice, by linear interpolation.
func quantile(sorted []float64, p float64) float64 {
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Percentile returns the p-th percentile (0-100) by linear
// interpolation. Empty input yields 0, and NaN samples are dropped
// first: one undefined observation (a 0/0 rate, say) must not poison
// the sort order and with it every quantile.
func Percentile(vs []float64, p float64) float64 {
	sorted := sortedClean(vs)
	if len(sorted) == 0 {
		return 0
	}
	return quantile(sorted, p)
}

// Summary is the count/mean/percentile digest used by the registry's
// renderers and by per-series latency reporting.
type Summary struct {
	Count          int
	Mean, Min, Max float64
	P50, P95, P99  float64
}

// Summarize computes the digest of vs. Empty input — including an
// unobserved histogram's reservoir — and all-NaN input both yield the
// well-defined zero Summary; every field of a Summary is always finite,
// never NaN, so exporters can emit it without poisoning goldens.
func Summarize(vs []float64) Summary {
	sorted := sortedClean(vs)
	if len(sorted) == 0 {
		return Summary{}
	}
	// The mean sums in input order, not sorted order: float addition is
	// not associative, and the digest is pinned bit for bit.
	var sum float64
	for _, v := range vs {
		if !math.IsNaN(v) {
			sum += v
		}
	}
	return Summary{
		Count: len(sorted),
		Mean:  sum / float64(len(sorted)),
		Min:   quantile(sorted, 0),
		Max:   quantile(sorted, 100),
		P50:   quantile(sorted, 50),
		P95:   quantile(sorted, 95),
		P99:   quantile(sorted, 99),
	}
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g p50=%.4g p95=%.4g p99=%.4g max=%.4g",
		s.Count, s.Mean, s.P50, s.P95, s.P99, s.Max)
}

// BoxStats is the five-number summary used for the paper's box plots.
type BoxStats struct {
	Min, Q1, Median, Q3, Max float64
}

// Box computes the five-number summary (all zero for empty or all-NaN
// input, like Percentile).
func Box(vs []float64) BoxStats {
	sorted := sortedClean(vs)
	if len(sorted) == 0 {
		return BoxStats{}
	}
	return BoxStats{
		Min:    quantile(sorted, 0),
		Q1:     quantile(sorted, 25),
		Median: quantile(sorted, 50),
		Q3:     quantile(sorted, 75),
		Max:    quantile(sorted, 100),
	}
}

func (b BoxStats) String() string {
	return fmt.Sprintf("min=%.3g q1=%.3g med=%.3g q3=%.3g max=%.3g",
		b.Min, b.Q1, b.Median, b.Q3, b.Max)
}

// Table is a simple text table for the harness output.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Render returns the table as aligned plain text.
func (t *Table) Render() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
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
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// RenderSeries renders a compact ASCII plot of one or more series over
// their shared time range — the harness's stand-in for the paper's
// figures.
func RenderSeries(width, height int, series ...*Series) string {
	if len(series) == 0 || width < 8 || height < 2 {
		return ""
	}
	var tMax time.Duration
	vMax := 0.0
	for _, s := range series {
		for _, p := range s.Points {
			if p.T > tMax {
				tMax = p.T
			}
			if p.V > vMax {
				vMax = p.V
			}
		}
	}
	if tMax == 0 || vMax == 0 {
		return ""
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	marks := "*o+x#@"
	for si, s := range series {
		mark := marks[si%len(marks)]
		for col := 0; col < width; col++ {
			t := time.Duration(float64(tMax) * float64(col) / float64(width-1))
			v := s.At(t)
			row := height - 1 - int(v/vMax*float64(height-1)+0.5)
			if row < 0 {
				row = 0
			}
			if row >= height {
				row = height - 1
			}
			grid[row][col] = mark
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%8.3g ┤\n", vMax)
	for _, row := range grid {
		fmt.Fprintf(&b, "         │%s\n", string(row))
	}
	fmt.Fprintf(&b, "         └%s\n", strings.Repeat("─", width))
	fmt.Fprintf(&b, "          0%*s\n", width-1, fmt.Sprintf("%.3gs", tMax.Seconds()))
	for si, s := range series {
		fmt.Fprintf(&b, "          %c %s", marks[si%len(marks)], s.Name)
		if s.Unit != "" {
			fmt.Fprintf(&b, " (%s)", s.Unit)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
