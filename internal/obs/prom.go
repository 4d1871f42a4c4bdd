package obs

import (
	"fmt"
	"io"
)

// Prometheus text-format exporter. Like every other deterministic
// renderer in this package: instruments are emitted in sorted name
// order per kind and values are virtual-time-derived, so the dump is
// byte-identical across runs and -workers counts.

// promName sanitizes an instrument name into a Prometheus metric name:
// the hypertp_ namespace prefix plus the name with every character
// outside [a-zA-Z0-9_:] replaced by '_'.
func promName(name string) string {
	b := []byte("hypertp_" + name)
	for i := len("hypertp_"); i < len(b); i++ {
		c := b[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z',
			c >= '0' && c <= '9', c == '_', c == ':':
		default:
			b[i] = '_'
		}
	}
	return string(b)
}

func promHeader(b []byte, name, unit, typ string) []byte {
	b = append(b, "# HELP "...)
	b = append(b, name...)
	if unit != "" {
		b = append(b, ' ')
		b = append(b, unit...)
	} else {
		b = append(b, " (no unit)"...)
	}
	b = append(b, '\n')
	b = append(b, "# TYPE "...)
	b = append(b, name...)
	b = append(b, ' ')
	b = append(b, typ...)
	b = append(b, '\n')
	return b
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format: counters as <name>_total, gauges as <name> plus a companion
// <name>_max high-water gauge, histograms with cumulative le-buckets,
// _sum and _count. The bool is ignored: it stays only because the bench
// module (bench/fleet.go) still passes it; ROADMAP item 14 drops it.
func (r *Registry) WritePrometheus(w io.Writer, _ bool) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	counts, gauges, hists := r.counts, r.gauges, r.hists
	r.mu.Unlock()

	var b []byte
	for _, name := range sortedKeys(counts) {
		c := counts[name]
		pn := promName(c.name) + "_total"
		b = promHeader(b, pn, c.unit, "counter")
		b = append(b, fmt.Sprintf("%s %d\n", pn, c.Value())...)
	}
	for _, name := range sortedKeys(gauges) {
		g := gauges[name]
		pn := promName(g.name)
		b = promHeader(b, pn, g.unit, "gauge")
		b = append(b, fmt.Sprintf("%s %d\n", pn, g.Value())...)
		b = promHeader(b, pn+"_max", g.unit, "gauge")
		b = append(b, fmt.Sprintf("%s_max %d\n", pn, g.Max())...)
	}
	for _, name := range sortedKeys(hists) {
		h := hists[name]
		pn := promName(h.name)
		b = promHeader(b, pn, h.unit, "histogram")
		h.mu.Lock()
		cum := int64(0)
		for i, bound := range h.bounds {
			cum += h.counts[i]
			b = append(b, fmt.Sprintf("%s_bucket{le=\"%g\"} %d\n", pn, bound, cum)...)
		}
		cum += h.counts[len(h.bounds)]
		b = append(b, fmt.Sprintf("%s_bucket{le=\"+Inf\"} %d\n", pn, cum)...)
		b = append(b, fmt.Sprintf("%s_sum %g\n", pn, h.sum)...)
		b = append(b, fmt.Sprintf("%s_count %d\n", pn, h.count)...)
		h.mu.Unlock()
	}
	_, err := w.Write(b)
	return err
}
