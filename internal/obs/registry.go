package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is a named collection of counters, gauges and fixed-bucket
// histograms. Instruments register on first use and are returned on
// every later lookup of the same name; all methods are safe for
// concurrent use (par pool workers update instruments directly).
//
// Instruments marked Volatile carry wall-clock-derived values that
// legitimately differ between runs and worker counts; the deterministic
// renderers skip them unless explicitly asked, keeping the exported
// metrics byte-identical across -workers settings.
type Registry struct {
	mu     sync.Mutex
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
	}
}

// Counter is a monotonically increasing sum.
type Counter struct {
	name, unit string
	volatile   bool
	v          atomic.Int64
}

// Gauge is a point-in-time value that also tracks its high-water mark.
type Gauge struct {
	name, unit string
	volatile   bool
	mu         sync.Mutex
	v, max     int64
}

// Histogram is a fixed-bucket distribution. Bounds are upper bucket
// edges in ascending order; one implicit overflow bucket catches the
// rest. A bounded sample reservoir (the first sampleCap observations)
// backs the percentile summary.
type Histogram struct {
	name, unit string
	volatile   bool
	bounds     []float64
	mu         sync.Mutex
	counts     []int64
	count      int64
	sum        float64
	samples    []float64
}

// sampleCap bounds the per-histogram raw-sample reservoir.
const sampleCap = 8192

// Counter returns (registering on first use) the named counter. A nil
// registry returns nil; a nil *Counter is a valid no-op instrument.
func (r *Registry) Counter(name, unit string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counts[name]
	if !ok {
		c = &Counter{name: name, unit: unit}
		r.counts[name] = c
	}
	return c
}

// Gauge returns (registering on first use) the named gauge.
func (r *Registry) Gauge(name, unit string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{name: name, unit: unit}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (registering on first use) the named histogram with
// the given bucket bounds. Bounds are only applied on first
// registration.
func (r *Registry) Histogram(name, unit string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{
			name: name, unit: unit,
			bounds: append([]float64(nil), bounds...),
			counts: make([]int64, len(bounds)+1),
		}
		r.hists[name] = h
	}
	return h
}

// ExpBuckets returns n exponentially growing bucket bounds starting at
// start with the given growth factor — the standard latency layout.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Volatile marks the counter wall-clock-derived and returns it.
func (c *Counter) Volatile() *Counter {
	if c != nil {
		c.volatile = true
	}
	return c
}

// Add increments the counter. Negative deltas panic: counters are sums.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	if n < 0 {
		panic(fmt.Sprintf("obs: counter %s: negative delta %d", c.name, n))
	}
	c.v.Add(n)
}

// Value returns the current sum.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Volatile marks the gauge wall-clock-derived and returns it.
func (g *Gauge) Volatile() *Gauge {
	if g != nil {
		g.volatile = true
	}
	return g
}

// Set records a new value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.v = v
	if v > g.max {
		g.max = v
	}
	g.mu.Unlock()
}

// Add shifts the value by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.v += delta
	if g.v > g.max {
		g.max = g.v
	}
	g.mu.Unlock()
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// Max returns the high-water mark.
func (g *Gauge) Max() int64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.max
}

// Volatile marks the histogram wall-clock-derived and returns it.
func (h *Histogram) Volatile() *Histogram {
	if h != nil {
		h.volatile = true
	}
	return h
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.count++
	h.sum += v
	if len(h.samples) < sampleCap {
		h.samples = append(h.samples, v)
	}
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Summary returns the percentile summary of the sample reservoir.
func (h *Histogram) Summary() Summary {
	if h == nil {
		return Summary{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return Summarize(h.samples)
}

// snapshot helpers -----------------------------------------------------------

func sortedKeys[M ~map[string]V, V any](m M) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Render returns the registry as aligned plain text, instruments sorted
// by kind then name. Volatile instruments are skipped unless
// includeVolatile is set, so the default rendering is deterministic.
func (r *Registry) Render(includeVolatile bool) string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	counts, gauges, hists := r.counts, r.gauges, r.hists
	r.mu.Unlock()

	var b strings.Builder
	tab := &Table{
		Title:   "metrics",
		Headers: []string{"kind", "name", "unit", "value"},
	}
	for _, name := range sortedKeys(counts) {
		c := counts[name]
		if c.volatile && !includeVolatile {
			continue
		}
		tab.AddRow("counter", c.name, c.unit, fmt.Sprint(c.Value()))
	}
	for _, name := range sortedKeys(gauges) {
		g := gauges[name]
		if g.volatile && !includeVolatile {
			continue
		}
		tab.AddRow("gauge", g.name, g.unit, fmt.Sprintf("%d (max %d)", g.Value(), g.Max()))
	}
	for _, name := range sortedKeys(hists) {
		h := hists[name]
		if h.volatile && !includeVolatile {
			continue
		}
		s := h.Summary()
		tab.AddRow("hist", h.name, h.unit,
			fmt.Sprintf("count=%d mean=%.4g p50=%.4g p95=%.4g p99=%.4g max=%.4g",
				s.Count, s.Mean, s.P50, s.P95, s.P99, s.Max))
	}
	b.WriteString(tab.Render())
	return b.String()
}
