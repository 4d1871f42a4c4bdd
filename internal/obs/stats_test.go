package obs

import (
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestSeriesAddAt(t *testing.T) {
	s := &Series{Name: "qps"}
	s.Add(0, 10)
	s.Add(time.Second, 20)
	s.Add(2*time.Second, 30)
	if s.At(0) != 10 || s.At(1500*time.Millisecond) != 20 || s.At(5*time.Second) != 30 {
		t.Fatal("At() lookup wrong")
	}
	if s.At(-time.Second) != 0 {
		t.Fatal("At before first sample not 0")
	}
}

func TestSeriesAddOutOfOrderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order Add did not panic")
		}
	}()
	s := &Series{}
	s.Add(time.Second, 1)
	s.Add(0, 2)
}

func TestSeriesWindowValues(t *testing.T) {
	s := &Series{}
	for i := 0; i < 10; i++ {
		s.Add(time.Duration(i)*time.Second, float64(i))
	}
	w := s.Window(2*time.Second, 5*time.Second)
	if len(w) != 3 || w[0].V != 2 || w[2].V != 4 {
		t.Fatalf("window = %v", w)
	}
	if len(s.Values()) != 10 {
		t.Fatal("Values length wrong")
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
	vs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(vs); m != 5 {
		t.Fatalf("Mean = %v", m)
	}
}

func TestPercentile(t *testing.T) {
	vs := []float64{1, 2, 3, 4, 5}
	if Percentile(vs, 0) != 1 || Percentile(vs, 100) != 5 || Percentile(vs, 50) != 3 {
		t.Fatal("percentiles wrong")
	}
	if p := Percentile(vs, 25); p != 2 {
		t.Fatalf("p25 = %v", p)
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("Percentile(nil) != 0")
	}
}

func TestBox(t *testing.T) {
	b := Box([]float64{5, 1, 3, 2, 4})
	if b.Min != 1 || b.Median != 3 || b.Max != 5 {
		t.Fatalf("box = %+v", b)
	}
	if !strings.Contains(b.String(), "med=3") {
		t.Fatal("box string wrong")
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{Title: "Demo", Headers: []string{"name", "value"}}
	tab.AddRow("alpha", "1")
	tab.AddRow("beta-long", "22")
	out := tab.Render()
	if !strings.Contains(out, "Demo") || !strings.Contains(out, "beta-long") {
		t.Fatalf("render missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Fatalf("render lines = %d, want 5", len(lines))
	}
}

func TestRenderSeries(t *testing.T) {
	s := &Series{Name: "qps", Unit: "k"}
	for i := 0; i <= 10; i++ {
		s.Add(time.Duration(i)*time.Second, float64(i%4+1))
	}
	out := RenderSeries(40, 8, s)
	if !strings.Contains(out, "qps") || !strings.Contains(out, "*") {
		t.Fatalf("plot missing content:\n%s", out)
	}
	if RenderSeries(40, 8) != "" {
		t.Fatal("empty series list rendered something")
	}
	if RenderSeries(2, 1, s) != "" {
		t.Fatal("tiny canvas rendered something")
	}
}

// Property: Percentile is monotonic in p and bounded by min/max.
func TestPropertyPercentileMonotonic(t *testing.T) {
	f := func(raw []float64, aRaw, bRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		for _, v := range raw {
			if v != v || v > 1e300 || v < -1e300 { // NaN/Inf guard
				return true
			}
		}
		a := float64(aRaw) / 255 * 100
		b := float64(bRaw) / 255 * 100
		if a > b {
			a, b = b, a
		}
		pa, pb := Percentile(raw, a), Percentile(raw, b)
		return pa <= pb && pa >= Percentile(raw, 0) && pb <= Percentile(raw, 100)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
