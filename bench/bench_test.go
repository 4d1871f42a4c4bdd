package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"
)

// declared mirrors BENCHMARK.json.
type declared struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadDeclared(t *testing.T) declared {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestCatalogueMatchesBenchmarkJSON: the names, units and directions the
// program prints are the ones BENCHMARK.json declares, within its limits.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	d := loadDeclared(t)
	if n := len(d.Workloads); n != len(workloads) || n > 8 {
		t.Fatalf("%d workloads declared, %d in the catalogue (limit 8)", n, len(workloads))
	}
	for i, w := range d.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: declared %q, catalogue %q (or their reasons differ)", i, w.Name, workloads[i].name)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name, or a reason over 200 characters", w.Name)
		}
	}
	check := func(kind string, got []declaredMetric, want []metricDef, limit int) {
		if len(got) != len(want) || len(got) > limit {
			t.Fatalf("%s: %d declared, %d in the catalogue (limit %d)", kind, len(got), len(want), limit)
		}
		for i, m := range got {
			w := want[i]
			if m.Name != w.name || m.Unit != w.unit || m.Better != w.better {
				t.Errorf("%s %d: declared %+v, catalogue {%s %s %s}", kind, i, m, w.name, w.unit, w.better)
			}
			if !nameRE.MatchString(m.Name) {
				t.Errorf("%s: bad name %q", kind, m.Name)
			}
			if (m.Bound != nil) != (w.bound > 0) || (m.Bound != nil && (*m.Bound != w.bound || *m.Bound > 0.25)) {
				t.Errorf("%s %s: declared bound %v, catalogue %v (limit 0.25)", kind, m.Name, m.Bound, w.bound)
			}
		}
	}
	check("end_to_end", d.EndToEnd, endToEnd, 16)
	check("per_layer", d.PerLayer, perLayer, 128)
	seen := map[string]bool{}
	for _, m := range append(append([]declaredMetric(nil), d.EndToEnd...), d.PerLayer...) {
		if seen[m.Name] {
			t.Errorf("metric %q declared twice", m.Name)
		}
		seen[m.Name] = true
	}
}

// TestSmoke runs every workload at the tiny scale, untraced and traced:
// every declared metric is emitted and nothing else, no op fails, the
// virtual-time results match the golden digests, and the interaction
// predictions hold.
func TestSmoke(t *testing.T) {
	start := time.Now()
	out := t.TempDir()
	layers := map[string]map[string]float64{} // traced metrics by workload
	for _, w := range workloads {
		digest := ""
		for _, trace := range []bool{false, true} {
			res, err := runWorkload(config{
				workload: w.name, seed: defaultSeed, passes: 1, setups: 2,
				trace: trace, tiny: true, outDir: out,
			}, false)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.name, trace, err)
			}
			if res.failed != 0 || res.attempted == 0 || res.metrics["fail_ratio"] != 0 {
				t.Errorf("%s trace=%t: %d of %d ops failed: %v", w.name, trace, res.failed, res.attempted, res.problems)
			}
			want := append(append([]metricDef(nil), endToEnd...), exact...)
			if trace {
				want = perLayer
			}
			for _, d := range want {
				if _, ok := res.metrics[d.name]; !ok {
					t.Errorf("%s trace=%t: metric %s not emitted", w.name, trace, d.name)
				}
			}
			if len(res.metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics emitted, %d declared", w.name, trace, len(res.metrics), len(want))
			}
			if digest != "" && digest != res.digest {
				t.Errorf("%s: sim_digest differs between the untraced and traced run", w.name)
			}
			digest = res.digest
			if trace {
				layers[w.name] = res.metrics
				if _, err := os.Stat(out + "/" + w.name + ".spans.jsonl"); err != nil {
					t.Errorf("%s: %v", w.name, err)
				}
			}
		}
	}
	t.Logf("smoke test took %v (budget 5s without the race detector)", time.Since(start))

	// The "≠" column of the README: layers a workload never enters read zero.
	cold, warm, mig := layers["inplace_cold"], layers["inplace_warm"], layers["migration_precopy"]
	for name, m := range map[string]map[string]float64{"inplace_cold": cold, "migration_precopy": mig} {
		if m["tpcache.hits"]+m["tpcache.misses"] != 0 || m["obs.spans"] != 0 {
			t.Errorf("%s: tpcache lookups or obs spans are not zero", name)
		}
	}
	for _, k := range []string{"hw.new_machine_ms", "hv.boot_ms", "hv.create_vm_ms", "guest.write_ws_ms"} {
		if warm[k] != 0 {
			t.Errorf("inplace_warm: %s = %v, want 0 (no testbed build in a warm op)", k, warm[k])
		}
		if cold[k] <= 0 {
			t.Errorf("inplace_cold: %s = %v, want > 0", k, cold[k])
		}
	}
	if warm["tpcache.hit_ratio"] != 1 || warm["tpcache.misses"] != 0 {
		t.Errorf("inplace_warm: hit ratio %v, misses %v", warm["tpcache.hit_ratio"], warm["tpcache.misses"])
	}
}

func TestSelfTime(t *testing.T) {
	tr := &tracer{epoch: time.Now()}
	tr.spans = []span{
		{ID: 1, Parent: 0, Name: "op", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "a", StartNs: 10, EndNs: 40},
		{ID: 3, Parent: 2, Name: "b", StartNs: 20, EndNs: 30},
		{ID: 4, Parent: 1, Name: "a", StartNs: 50, EndNs: 60},
	}
	self, calls := tr.selfTimes()
	if self["op"] != 60 || self["a"] != 30 || self["b"] != 10 || calls["a"] != 2 {
		t.Errorf("self %v calls %v", self, calls)
	}
}

func TestPercentile(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	if p50, p90 := percentile(vals, 50), percentile(vals, 90); p50 != 5 || p90 != 9 {
		t.Errorf("p50 %v p90 %v", p50, p90)
	}
	if percentile(nil, 50) != 0 {
		t.Error("empty input")
	}
}
