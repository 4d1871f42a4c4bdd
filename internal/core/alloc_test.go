package core

import (
	"runtime/debug"
	"testing"
	"time"

	"hypertp/internal/hv"
	"hypertp/internal/hw"
	"hypertp/internal/migration"
	"hypertp/internal/simnet"
)

// raceEnabled is set by race_test.go. The race detector drops fmt's
// pooled buffers at random, so allocation counts are not exact under it.
// The budgets below count with the collector off for the same reason: a
// collection empties those pools, and when one lands is not a count.
var raceEnabled bool

// TestEngineAllocBudgets pins one transplant of each kind, its testbed
// build included: a cold InPlace Xen→KVM of the Fig. 6 VM (1
// vCPU / 1 GiB on M1), an Emergency of four small VMs off a crashed Xen,
// and a MigrationTP of one small VM from Xen to KVM over 1 Gbps.
func TestEngineAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, tc := range []struct {
		name   string
		budget float64
		run    func() error
	}{
		{"InPlace", 152, func() error {
			b := newBench(t, hw.M1())
			src := b.bootWithVMs(t, hv.KindXen, 1, 1, 1)
			_, _, err := b.engine.InPlace(src, hv.KindKVM, DefaultOptions())
			return err
		}},
		{"Emergency", 415, func() error {
			b := newBench(t, hw.M1())
			src := bootSmallVMs(t, b, hv.KindXen, 4)
			crashHost(t, src, "budget")
			_, _, err := b.engine.Emergency(src, hv.KindKVM, DefaultOptions())
			return err
		}},
		{"MigrationTP", 113, func() error {
			b := newBench(t, hw.M1())
			src := bootSmallVMs(t, b, hv.KindXen, 1)
			dst, err := NewEngine(b.clock, hw.NewMachine(b.clock, hw.M1())).BootHypervisor(hv.KindKVM)
			if err != nil {
				return err
			}
			_, err = MigrationTP(b.clock, migration.Params{
				Link:   simnet.NewLink(b.clock, "pair", simnet.Gbps1, 100*time.Microsecond),
				Source: src, Dest: migration.NewReceiver(b.clock, dst, 1), VMID: src.VMs()[0].ID,
			}, nil)
			return err
		}},
	} {
		var err error
		run := func() { err = tc.run() }
		if n := testing.AllocsPerRun(2, run); n > tc.budget || err != nil {
			t.Errorf("%s allocated %v times, budget %v (err %v)", tc.name, n, tc.budget, err)
		}
	}
}
