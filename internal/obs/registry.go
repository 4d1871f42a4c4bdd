package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry is a named collection of counters, gauges and fixed-bucket
// histograms. Instruments register on first use and are returned on
// every later lookup of the same name; all methods are safe for
// concurrent use (par pool workers update instruments directly).
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
	v          atomic.Int64
}

// Gauge is a point-in-time value that also tracks its high-water mark.
type Gauge struct {
	name, unit string
	mu         sync.Mutex
	v, max     int64
}

// Histogram is a fixed-bucket distribution. Bounds are upper bucket
// edges in ascending order; one implicit overflow bucket catches the
// rest. A bounded sample reservoir (the first sampleCap observations)
// backs the percentile summary.
type Histogram struct {
	name, unit string
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
