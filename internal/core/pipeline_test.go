package core

import (
	"errors"
	"reflect"
	"testing"

	"hypertp/internal/fault"
	"hypertp/internal/hterr"
	"hypertp/internal/hv"
	"hypertp/internal/hw"
	"hypertp/internal/obs"
)

// childNames lists a span's direct children in order.
func childNames(s *obs.Span) []string {
	var names []string
	for _, k := range s.Children() {
		names = append(names, k.Name)
	}
	return names
}

// TestPhaseTableSelfCheck pins the table's own invariants: every site the
// engine arms is named by exactly one row, nothing after an entry
// point's point of no return can roll back, and a clean run of each
// entry point leaves exactly the table's spans, in walk order.
func TestPhaseTableSelfCheck(t *testing.T) {
	named := map[fault.Site]int{}
	for i := range phases {
		p := &phases[i]
		for _, s := range []fault.Site{p.site, p.degrade} {
			if s != "" {
				named[s]++
			}
		}
		if p.site == "" && (p.charge != nil || p.inBody) {
			t.Errorf("row %d (%q) has a charge or inBody but no site", i, p.step)
		}
	}
	armed := []fault.Site{
		fault.SiteKexecLoad, fault.SitePRAMBuild, fault.SiteHVCrashDuringTP,
		fault.SiteUISRTranslate, fault.SiteCacheStale, fault.SiteKexecHandover,
		fault.SiteHVBoot, fault.SitePRAMParse, fault.SiteUISRRestore,
	}
	for _, s := range armed {
		if named[s] != 1 {
			t.Errorf("site %s named by %d rows, want 1", s, named[s])
		}
	}
	if len(named) != len(armed) {
		t.Errorf("table names sites %v, engine arms %v", named, armed)
	}

	for _, en := range []bool{false, true} {
		for _, prep := range []bool{true, false} {
			opts := DefaultOptions()
			opts.PrepareBeforePause = prep
			var want []string
			past := false
			for _, p := range walkOrder(en, opts) {
				r := p.rule(en)
				if past && r != forward {
					t.Errorf("emergency=%v: row %q after the point of no return has rule %d", en, p.step, r)
				}
				past = past || r == forward
				if p.step != "" {
					want = append(want, p.step)
				}
			}
			if !past {
				t.Errorf("emergency=%v never passes a point of no return", en)
			}

			b := newBench(t, hw.M1())
			rec := obs.NewRecorder(b.clock)
			b.engine.Obs = rec
			src := bootSmallVMs(t, b, hv.KindXen, 2)
			var err error
			if en {
				crashHost(t, src, "self-check")
				_, _, err = b.engine.Emergency(src, hv.KindKVM, opts)
			} else {
				_, _, err = b.engine.InPlace(src, hv.KindKVM, opts)
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := childNames(rec.Roots()[0]); !reflect.DeepEqual(got, want) {
				t.Errorf("emergency=%v prep=%v: spans %v, table says %v", en, prep, got, want)
			}
		}
	}
}

// TestPauseFailureRollsBackUnderRoot: a failure inside the pause phase
// must undo the VMs already paused, and its rollback span must hang off
// the root like every other abort — the walker ends the failed phase's
// span (recording the error on it) before the abort path runs.
func TestPauseFailureRollsBackUnderRoot(t *testing.T) {
	b := newBench(t, hw.M1())
	rec := obs.NewRecorder(b.clock)
	b.engine.Obs = rec
	src := bootSmallVMs(t, b, hv.KindXen, 2)
	pre := checksumVMs(t, src.VMs())
	vms := src.VMs()
	// The second guest has already run the device protocol, so the
	// engine's own PrepareTransplant on it fails — after VM 1 is paused.
	if err := vms[1].Guest.PrepareTransplant(); err != nil {
		t.Fatal(err)
	}

	dst, rep, err := b.engine.InPlace(src, hv.KindKVM, DefaultOptions())
	if !errors.Is(err, hterr.ErrAborted) || dst != nil {
		t.Fatalf("dst = %v err = %v, want aborted", dst, err)
	}
	if rep == nil || rep.Outcome != hterr.OutcomeRolledBack {
		t.Fatalf("report = %+v", rep)
	}
	if vms[0].Paused() || !vms[0].Guest.AllDriversRunning() {
		t.Fatal("VM 1 not resumed with all drivers running after rollback")
	}
	if got := checksumVMs(t, src.VMs()); !reflect.DeepEqual(got, pre) {
		t.Fatal("source checksums changed across rollback")
	}
	root := rec.Roots()[0]
	if root.Name != "inplace-tp" {
		t.Fatalf("root = %q", root.Name)
	}
	kids := childNames(root)
	if len(kids) < 2 || kids[len(kids)-2] != "pause" || kids[len(kids)-1] != "rollback" {
		t.Fatalf("root children = %v, want ... pause, rollback", kids)
	}
	pause := root.Find("pause")
	if !pause.Ended() || len(pause.Children()) != 0 {
		t.Fatalf("pause span ended=%v children=%v", pause.Ended(), childNames(pause))
	}
	var recorded bool
	for _, a := range pause.Attrs() {
		recorded = recorded || a.Key == "error"
	}
	if !recorded {
		t.Fatal("pause span does not record the error that failed it")
	}
}
