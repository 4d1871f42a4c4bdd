package experiments

import (
	"testing"
	"time"
)

// Fig. 7: Xen→KVM scalability shapes on both machines.
func TestFigure7Shapes(t *testing.T) {
	sweeps, tabs, err := Figure7()
	if err != nil {
		t.Fatal(err)
	}
	if len(sweeps) != 6 || len(tabs) != 6 {
		t.Fatalf("panels = %d, want 6", len(sweeps))
	}
	for _, sw := range sweeps {
		first := sw.Points[0].Report
		last := sw.Points[len(sw.Points)-1].Report
		switch sw.Dim {
		case SweepVCPUs:
			// vCPUs barely move the total (Fig. 7a/7d).
			diff := last.Total - first.Total
			if diff < 0 {
				diff = -diff
			}
			if diff > 400*time.Millisecond {
				t.Errorf("%s vCPU sweep total moves %v", sw.Machine, diff)
			}
		case SweepMemory, SweepVMs:
			// Reboot grows with preserved memory (sequential
			// boot-time PRAM parse).
			if last.Reboot <= first.Reboot {
				t.Errorf("%s %s sweep: reboot flat", sw.Machine, sw.Dim)
			}
		}
		// Downtime envelopes (paper: 1.7-3.6 s on M1, 2.94-4.28 s on
		// M2, with tolerance).
		for _, pt := range sw.Points {
			d := pt.Report.Downtime
			switch sw.Machine {
			case "M1":
				if d < 1400*time.Millisecond || d > 3900*time.Millisecond {
					t.Errorf("M1 %s x=%d downtime %v outside envelope", sw.Dim, pt.X, d)
				}
			case "M2":
				if d < 2600*time.Millisecond || d > 4800*time.Millisecond {
					t.Errorf("M2 %s x=%d downtime %v outside envelope", sw.Dim, pt.X, d)
				}
			}
		}
	}
}

// Fig. 8: MigrationTP downtime below the Xen baseline everywhere; Xen's
// multi-VM variance exceeds HyperTP's.
func TestFigure8Shapes(t *testing.T) {
	sweeps, tabs, err := Figure8()
	if err != nil {
		t.Fatal(err)
	}
	if len(sweeps) != 3 || len(tabs) != 3 {
		t.Fatal("panel count wrong")
	}
	for _, sw := range sweeps {
		for _, pt := range sw.Points {
			if pt.TP.Median >= pt.Xen.Median {
				t.Errorf("%s x=%d: HyperTP median downtime %.1f ≥ Xen %.1f",
					sw.Dim, pt.X, pt.TP.Median, pt.Xen.Median)
			}
		}
		if sw.Dim == SweepVMs {
			last := sw.Points[len(sw.Points)-1]
			xenSpread := last.Xen.Max - last.Xen.Min
			tpSpread := last.TP.Max - last.TP.Min
			if xenSpread <= tpSpread {
				t.Errorf("multi-VM: Xen downtime spread %.1f not above HyperTP %.1f",
					xenSpread, tpSpread)
			}
		}
	}
}

// Fig. 9: total migration time linear in memory, flat in vCPUs; for
// multiple VMs HyperTP's variance is smaller.
func TestFigure9Shapes(t *testing.T) {
	sweeps, _, err := Figure9()
	if err != nil {
		t.Fatal(err)
	}
	if len(sweeps) != 3 {
		t.Fatal("panel count wrong")
	}
	for _, sw := range sweeps {
		first := sw.Points[0]
		last := sw.Points[len(sw.Points)-1]
		switch sw.Dim {
		case SweepMemory:
			ratio := last.TP.Median / first.TP.Median
			wantRatio := float64(last.X) / float64(first.X)
			if ratio < wantRatio*0.8 || ratio > wantRatio*1.2 {
				t.Errorf("memory sweep not linear: ratio %.2f want ~%.2f", ratio, wantRatio)
			}
		case SweepVCPUs:
			if diff := last.TP.Median - first.TP.Median; diff > 1 || diff < -1 {
				t.Errorf("vCPU sweep moves total time by %.2fs", diff)
			}
		case SweepVMs:
			if (last.Xen.Max - last.Xen.Min) <= (last.TP.Max - last.TP.Min) {
				t.Error("multi-VM: Xen migration-time variance not above HyperTP")
			}
		}
	}
}

// Fig. 10: KVM→Xen dominated by the two-kernel boot, several times the
// Xen→KVM direction, but always under the 30 s maintenance bound.
func TestFigure10Shapes(t *testing.T) {
	sweeps, tabs, err := Figure10()
	if err != nil {
		t.Fatal(err)
	}
	if len(sweeps) != 6 || len(tabs) != 6 {
		t.Fatal("panel count wrong")
	}
	for _, sw := range sweeps {
		for _, pt := range sw.Points {
			d := pt.Report.Downtime
			switch sw.Machine {
			case "M1":
				if d < 7*time.Second || d > 12*time.Second {
					t.Errorf("M1 %s x=%d KVM→Xen downtime %v, want ~7.6-10s", sw.Dim, pt.X, d)
				}
			case "M2":
				if d < 16*time.Second || d > 23*time.Second {
					t.Errorf("M2 %s x=%d KVM→Xen downtime %v, want ~17.8-21s", sw.Dim, pt.X, d)
				}
			}
			if d > 30*time.Second {
				t.Errorf("downtime %v above the 30s bound", d)
			}
		}
	}
}
