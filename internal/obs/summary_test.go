package obs

import (
	"math"
	"strings"
	"testing"
)

func TestSummarizeEmpty(t *testing.T) {
	if s := Summarize(nil); s != (Summary{}) {
		t.Fatalf("empty summary = %+v", s)
	}
}

// TestSummarizeNeverNaN pins the exporter contract: whatever the input
// — empty, all-NaN, or NaN-contaminated — every Summary field is
// finite, so a zero-observation histogram renders p50=0, not NaN.
func TestSummarizeNeverNaN(t *testing.T) {
	nan := math.NaN()
	cases := map[string][]float64{
		"empty":   {},
		"all-nan": {nan, nan, nan},
		"mixed":   {3, nan, 1, nan, 2},
	}
	for name, vs := range cases {
		s := Summarize(vs)
		for field, v := range map[string]float64{
			"Mean": s.Mean, "Min": s.Min, "Max": s.Max,
			"P50": s.P50, "P95": s.P95, "P99": s.P99,
		} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s: %s = %g", name, field, v)
			}
		}
	}
	if s := Summarize([]float64{nan, nan}); s != (Summary{}) {
		t.Fatalf("all-NaN summary = %+v, want zero Summary", s)
	}
	// NaN samples are dropped, not zeroed: the finite digest survives.
	s := Summarize([]float64{3, nan, 1, nan, 2})
	if s.Count != 3 || s.Min != 1 || s.Max != 3 || s.P50 != 2 {
		t.Fatalf("mixed summary = %+v", s)
	}
}

func TestPercentileNaNInput(t *testing.T) {
	nan := math.NaN()
	if p := Percentile([]float64{nan, nan}, 50); p != 0 {
		t.Fatalf("all-NaN percentile = %g, want 0", p)
	}
	if p := Percentile([]float64{5, nan, 1}, 100); p != 5 {
		t.Fatalf("max over {5, NaN, 1} = %g, want 5", p)
	}
	b := Box([]float64{nan, 4, 2})
	if b.Min != 2 || b.Max != 4 || math.IsNaN(b.Median) {
		t.Fatalf("box over NaN-contaminated input = %+v", b)
	}
}

func TestSummarizePercentiles(t *testing.T) {
	// 1..100: the percentiles land on interpolated ranks.
	vs := make([]float64, 100)
	for i := range vs {
		vs[i] = float64(i + 1)
	}
	s := Summarize(vs)
	if s.Count != 100 || s.Min != 1 || s.Max != 100 {
		t.Fatalf("bounds: %+v", s)
	}
	if s.Mean != 50.5 {
		t.Fatalf("mean = %g", s.Mean)
	}
	if s.P50 != 50.5 {
		t.Fatalf("p50 = %g", s.P50)
	}
	if s.P95 <= s.P50 || s.P99 <= s.P95 || s.P99 > s.Max {
		t.Fatalf("percentiles not ordered: %+v", s)
	}
	// Exact values for the interpolation: rank = p/100*(n-1).
	if s.P95 != 95.05 {
		t.Fatalf("p95 = %g", s.P95)
	}
	if s.P99 != 99.01 {
		t.Fatalf("p99 = %g", s.P99)
	}
}

func TestSummarizeSingleValue(t *testing.T) {
	s := Summarize([]float64{7})
	if s.P50 != 7 || s.P95 != 7 || s.P99 != 7 || s.Mean != 7 {
		t.Fatalf("single-value summary = %+v", s)
	}
}

// TestSummarizeMatchesPercentile: Summarize and Box sort once and read
// every quantile off that one slice; each field must be bit-identical to
// the Percentile call it replaces, and the mean to Mean over the input's
// non-NaN samples in input order.
func TestSummarizeMatchesPercentile(t *testing.T) {
	nan := math.NaN()
	cases := map[string][]float64{
		"single":   {7},
		"nan-one":  {nan, 3},
		"mixed":    {3, nan, 1, nan, 2, 0.1, 1e-9, -4},
		"unsorted": {0.3, 0.1, 0.7, 0.2, 0.9, 0.4, 0.6, 0.8, 0.5, 1.1, 0.05},
		"ties":     {2, 2, 1, 2, 3, 3},
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for name, vs := range cases {
		var clean []float64
		for _, v := range vs {
			if !math.IsNaN(v) {
				clean = append(clean, v)
			}
		}
		s, b := Summarize(vs), Box(vs)
		for _, c := range []struct {
			field string
			got   float64
			p     float64
		}{
			{"Summary.Min", s.Min, 0}, {"Summary.P50", s.P50, 50}, {"Summary.P95", s.P95, 95},
			{"Summary.P99", s.P99, 99}, {"Summary.Max", s.Max, 100},
			{"Box.Min", b.Min, 0}, {"Box.Q1", b.Q1, 25}, {"Box.Median", b.Median, 50},
			{"Box.Q3", b.Q3, 75}, {"Box.Max", b.Max, 100},
		} {
			if want := Percentile(vs, c.p); !same(c.got, want) {
				t.Errorf("%s: %s = %v, Percentile(%v) = %v", name, c.field, c.got, c.p, want)
			}
		}
		if s.Count != len(clean) || !same(s.Mean, Mean(clean)) {
			t.Errorf("%s: count/mean = %d/%v, want %d/%v", name, s.Count, s.Mean, len(clean), Mean(clean))
		}
	}
}

func TestSummaryString(t *testing.T) {
	str := Summarize([]float64{1, 2, 3}).String()
	for _, want := range []string{"n=3", "p50=2", "p99="} {
		if !strings.Contains(str, want) {
			t.Fatalf("String() = %q missing %q", str, want)
		}
	}
}
