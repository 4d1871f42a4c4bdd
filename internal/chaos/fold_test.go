package chaos

import (
	"bytes"
	"testing"

	"hypertp/internal/fuzzseed"
	"hypertp/internal/obs"
)

// A streaming soak keeps only its last flightCap records, yet its
// metrics are the fold of every root it recorded: the recorder folds each
// root before any sink sees it. A collector beside the flight ring holds
// the whole run; folding it alone must reproduce the soak's metrics,
// series by series, except the harness's own counters and the series no
// span carries.
func TestSoakMetricsAreFoldsOfAllRoots(t *testing.T) {
	cfg := Config{Seed: 20210426, Ops: 200, Hosts: 6, VMs: 8, FaultRate: 0.15, Crash: true}.withDefaults()
	h, err := newHarness(cfg)
	if err != nil {
		t.Fatal(err)
	}
	all := &obs.Collector{}
	h.rec.AddSink(all)
	res := h.run(Generate(cfg))
	if res.Failure != nil {
		t.Fatalf("invariant violated:\n%s", res.Summary())
	}
	if res.Flight.Evicted() == 0 {
		t.Fatalf("the flight ring kept all %d records: the soak is too short to thin it", res.Flight.Total())
	}
	reg := obs.NewRegistry()
	reg.Fold(all.Records())
	var got, want bytes.Buffer
	if err := reg.WritePrometheus(&got, false); err != nil {
		t.Fatal(err)
	}
	if err := res.Obs.Metrics().WritePrometheus(&want, false); err != nil {
		t.Fatal(err)
	}
	fuzzseed.SamePrometheus(t, got.Bytes(), want.Bytes(),
		"chaos.", "sched.", "simnet.refused", "tp.translate_virtual_s", "tp.restore_virtual_s")
	for _, name := range []string{"nova.hosts_crashed", "nova.hosts_quarantined", "tp.emergencies", "tp.rollbacks", "simnet.transfers"} {
		if reg.Counter(name, "").Value() == 0 {
			t.Errorf("the soak folded no %s", name)
		}
	}
}
