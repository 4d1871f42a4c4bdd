package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"hypertp/internal/hv"
	"hypertp/internal/hw"
	"hypertp/internal/migration"
	"hypertp/internal/simnet"
	"hypertp/internal/simtime"
)

// migrationFixture is migration_precopy: every op builds the Fig. 8/9
// rig — two M1s on a 1 Gbps link — and live-migrates the point's VMs
// side by side, alternately to Xen (the homogeneous baseline) and to KVM
// (MigrationTP).
type migrationFixture struct {
	e    *env
	list []migrationOp
	last hv.Hypervisor // the traced op's destination, handed to the probes
}

type migrationOp struct {
	point
	dest hv.Kind
}

func newMigrationFixture(e *env) (fixture, error) {
	f := &migrationFixture{e: e}
	for _, p := range grid(e.tiny, hw.M1) {
		for _, dest := range []hv.Kind{hv.KindXen, hv.KindKVM} {
			f.list = append(f.list, migrationOp{point: p, dest: dest})
		}
	}
	return f, nil
}

func (f *migrationFixture) ops() int { return len(f.list) }

func (f *migrationFixture) run(i int, tr *tracer, c *counters) (opReport, error) {
	op := f.list[i]
	clock := simtime.NewClock()
	src, err := buildHost(tr, clock, op.point, hv.KindXen, f.e.seed, 256)
	if err != nil {
		return opReport{}, err
	}
	dst, err := buildHost(tr, clock, point{profile: hw.M1}, op.dest, 0, 0)
	if err != nil {
		return opReport{}, err
	}
	link := simnet.NewLink(clock, "m1-pair", simnet.Gbps1, 100*time.Microsecond)
	recv := migration.NewReceiver(clock, dst.hyp, f.e.seed+uint64(i))

	var reports []*migration.Report
	var firstErr error
	tr.begin("migration.run")
	for _, vm := range src.hyp.VMs() {
		migration.Run(clock, migration.Params{Link: link, Source: src.hyp, Dest: recv, VMID: vm.ID},
			func(rep *migration.Report, err error) {
				if err != nil && firstErr == nil {
					firstErr = err
				}
				if rep != nil {
					reports = append(reports, rep)
				}
			})
	}
	clock.Run()
	tr.end()
	if firstErr != nil {
		return opReport{}, firstErr
	}
	if len(reports) != op.vms {
		return opReport{}, fmt.Errorf("%d of %d migrations reported", len(reports), op.vms)
	}

	// Transfers that finish at the same virtual instant reach the receiver
	// in an order the program does not fix, so which VM draws which place
	// in Xen's sequential restore queue varies from run to run. The digest
	// therefore covers the multiset of per-VM outcomes, not their names.
	var out opReport
	lines := make([]string, 0, len(reports))
	for _, rep := range reports {
		if err := verifyGuests(tr, []*hv.VM{rep.DestVM}); err != nil {
			return out, err
		}
		lines = append(lines, fmt.Sprintf("total=%d down=%d rounds=%d bytes=%d throttle=%d het=%t %s",
			rep.TotalTime, rep.Downtime, rep.Rounds, rep.BytesSent, rep.ThrottleLevel,
			rep.Heterogeneous, rep.Outcome))
		out.downtimes = append(out.downtimes, rep.Downtime)
		out.totals = append(out.totals, rep.TotalTime)
		c.add("migration.rounds", float64(rep.Rounds))
		c.add("migration.bytes_sent", float64(rep.BytesSent))
		c.add("migration.throttle_levels", float64(rep.ThrottleLevel))
	}
	sort.Strings(lines)
	out.sim = strings.Join(lines, "\n")
	if tr != nil {
		f.last = dst.hyp
	}
	return out, nil
}

func (f *migrationFixture) verify(*tracer) error { return nil } // run verifies

func (f *migrationFixture) probe(_ int, tr *tracer, c *counters) error {
	hyp := f.last
	f.last = nil
	if err := probeHost(tr, hyp, f.e.spare); err != nil {
		return err
	}
	if err := probePhysMem(tr, c, f.e.spare); err != nil {
		return err
	}
	return probeSimnet(tr, c)
}
