package main

import (
	"fmt"
	"strings"
	"time"

	"hypertp/internal/core"
	"hypertp/internal/hv"
	"hypertp/internal/hw"
	"hypertp/internal/simtime"
	"hypertp/internal/tpcache"
)

// point is one x-axis point of the paper's Fig. 7-10 sweeps.
type point struct {
	profile func() *hw.Profile
	vms     int
	vcpus   int
	memGiB  int
}

// grid is the paper's sweep grid: vCPUs {1..10}@1 GiB, memory {2..12} GiB,
// VM count {2..12}@1 GiB, on each of the given machines. The tiny scale
// keeps one point per dimension on M1.
func grid(tiny bool, profiles ...func() *hw.Profile) []point {
	vcpus, mem, vms := []int{1, 2, 4, 6, 8, 10}, []int{2, 4, 6, 8, 10, 12}, []int{2, 4, 6, 8, 10, 12}
	if tiny {
		profiles, vcpus, mem, vms = profiles[:1], vcpus[1:2], mem[:1], vms[:1]
	}
	var out []point
	for _, p := range profiles {
		for _, x := range vcpus {
			out = append(out, point{profile: p, vms: 1, vcpus: x, memGiB: 1})
		}
		for _, x := range mem {
			out = append(out, point{profile: p, vms: 1, vcpus: 1, memGiB: x})
		}
		for _, x := range vms {
			out = append(out, point{profile: p, vms: x, vcpus: 1, memGiB: 1})
		}
	}
	return out
}

// host is one machine with a booted hypervisor and its VMs.
type host struct {
	mach   *hw.Machine
	engine *core.Engine
	hyp    hv.Hypervisor
}

// buildHost boots kind on a fresh machine of the point's profile and
// creates the point's VMs, each with a working set of wsPages pages.
func buildHost(tr *tracer, clock *simtime.Clock, p point, kind hv.Kind, seed uint64, wsPages int) (*host, error) {
	tr.begin("hw.new_machine")
	mach := hw.NewMachine(clock, p.profile())
	tr.end()
	engine := core.NewEngine(clock, mach)
	tr.begin("hv.boot")
	hyp, err := engine.BootHypervisor(kind)
	tr.end()
	if err != nil {
		return nil, err
	}
	for i := 0; i < p.vms; i++ {
		tr.begin("hv.create_vm")
		vm, err := hyp.CreateVM(hv.Config{
			Name:  fmt.Sprintf("vm-%02d", i),
			VCPUs: p.vcpus, MemBytes: uint64(p.memGiB) << 30, HugePages: true,
			Seed: seed + uint64(i), InPlaceCompatible: true,
		})
		tr.end()
		if err != nil {
			return nil, err
		}
		tr.begin("guest.write_ws")
		err = vm.Guest.WriteWorkingSet(0, wsPages)
		tr.end()
		if err != nil {
			return nil, err
		}
	}
	return &host{mach: mach, engine: engine, hyp: hyp}, nil
}

// transplant runs one InPlaceTP on h.
func (h *host) transplant(tr *tracer, c *counters, target hv.Kind, opts core.Options) (*core.InPlaceReport, error) {
	tr.begin("core.inplace")
	dst, rep, err := h.engine.InPlace(h.hyp, target, opts)
	tr.end()
	if err != nil {
		return nil, err
	}
	h.hyp = dst
	countInPlace(c, rep)
	return rep, nil
}

func verifyGuests(tr *tracer, vms []*hv.VM) error {
	for _, vm := range vms {
		tr.begin("guest.verify")
		err := vm.Guest.Verify()
		tr.end()
		if err != nil {
			return fmt.Errorf("guest %s: %w", vm.Config.Name, err)
		}
	}
	return nil
}

func countInPlace(c *counters, r *core.InPlaceReport) {
	if c == nil {
		return
	}
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	c.add("core.wiped_frames", float64(r.WipedFrames))
	c.add("core.attempts", float64(r.Attempts))
	c.add("core.faults", float64(r.Faults))
	c.add("core.sim_pram_ms", ms(r.PRAM))
	c.add("core.sim_translation_ms", ms(r.Translation))
	c.add("core.sim_reboot_ms", ms(r.Reboot))
	c.add("core.sim_restoration_ms", ms(r.Restoration))
	c.add("pram.metadata_bytes", float64(r.PRAMMetadataBytes))
	c.add("uisr.blob_bytes", float64(r.UISRBytes))
	c.add("tpcache.hits", float64(r.CacheHits))
	c.add("tpcache.misses", float64(r.CacheMisses))
	c.add("tpcache.warm_starts", float64(r.CacheWarmStarts))
}

// simInPlace is the part of an InPlaceReport that is a result of the
// simulation (cache counters describe the cache, not the transplant).
func simInPlace(r *core.InPlaceReport) string {
	return fmt.Sprintf("%s>%s pram=%d tr=%d boot=%d rest=%d net=%d down=%d total=%d meta=%d uisr=%d wiped=%d vms=%d %s attempts=%d",
		r.Source, r.Target, r.PRAM, r.Translation, r.Reboot, r.Restoration, r.Network,
		r.Downtime, r.Total, r.PRAMMetadataBytes, r.UISRBytes, r.WipedFrames, len(r.VMs), r.Outcome, r.Attempts)
}

// coldFixture is inplace_cold: every op builds its own testbed, so
// nothing but the op list outlives an op.
type coldFixture struct {
	e    *env
	list []coldOp
	last *host // the traced op's host, handed to the probes
}

type coldOp struct {
	point
	from, to hv.Kind
}

func newColdFixture(e *env) (fixture, error) {
	f := &coldFixture{e: e}
	dirs := [][2]hv.Kind{{hv.KindXen, hv.KindKVM}, {hv.KindKVM, hv.KindXen}, {hv.KindXen, hv.KindNOVA}}
	for _, d := range dirs {
		for _, p := range grid(e.tiny, hw.M1, hw.M2) {
			f.list = append(f.list, coldOp{point: p, from: d[0], to: d[1]})
		}
	}
	return f, nil
}

func (f *coldFixture) ops() int { return len(f.list) }

func (f *coldFixture) run(i int, tr *tracer, c *counters) (opReport, error) {
	op := f.list[i]
	h, err := buildHost(tr, simtime.NewClock(), op.point, op.from, f.e.seed, 64)
	if err != nil {
		return opReport{}, err
	}
	rep, err := h.transplant(tr, c, op.to, core.DefaultOptions())
	if err != nil {
		return opReport{}, err
	}
	if err := verifyGuests(tr, h.hyp.VMs()); err != nil {
		return opReport{}, err
	}
	if tr != nil {
		f.last = h
	}
	return opReport{sim: simInPlace(rep), downtimes: []time.Duration{rep.Downtime}, totals: []time.Duration{rep.Total}}, nil
}

func (f *coldFixture) verify(*tracer) error { return nil } // run verifies

func (f *coldFixture) probe(_ int, tr *tracer, c *counters) error {
	h := f.last
	f.last = nil
	if err := probeHost(tr, h.hyp, f.e.spare); err != nil {
		return err
	}
	return probePhysMem(tr, c, f.e.spare)
}

// warmFixture is inplace_warm: the grid's hosts persist, each with a
// transplant cache primed to its fixed point, and an op hops all of them
// once. A pass is two ops, there and back. Guest memory is re-read after
// the op's timed part (verify): Guest.Verify on 108 VMs costs more than
// the 36 warm hops, and would bury the path this workload is about.
type warmFixture struct {
	e     *env
	hosts []*warmHost
	spare *host // never transplanted; the probes run on it
}

type warmHost struct {
	host
	opts core.Options
}

func (h *warmHost) hop(tr *tracer, c *counters) (*core.InPlaceReport, error) {
	target := hv.KindKVM
	if h.hyp.Kind() == hv.KindKVM {
		target = hv.KindXen
	}
	return h.transplant(tr, c, target, h.opts)
}

// primeHops bounds cache priming; the fingerprint chain converges within
// a few KVM<->Xen cycles, so a host still missing after this is a bug.
const primeHops = 16

func newWarmFixture(e *env) (fixture, error) {
	f := &warmFixture{e: e}
	for _, p := range grid(e.tiny, hw.M1, hw.M2) {
		h, err := buildHost(nil, simtime.NewClock(), p, hv.KindKVM, e.seed, 64)
		if err != nil {
			return nil, err
		}
		wh := &warmHost{host: *h, opts: core.DefaultOptions()}
		wh.opts.Cache = tpcache.New()
		// Primed means one whole cycle without a translation miss or a
		// cold PRAM build.
		primed := false
		for hop := 0; hop < primeHops && !primed; hop += 2 {
			before := wh.opts.Cache.Stats()
			for range 2 {
				if _, err := wh.hop(nil, nil); err != nil {
					return nil, err
				}
			}
			d := wh.opts.Cache.Stats().Sub(before)
			primed = d.Misses == 0 && d.PRAMMisses == 0
		}
		if !primed {
			return nil, fmt.Errorf("host %d never reached zero cache misses: %v", len(f.hosts), wh.opts.Cache.Stats())
		}
		f.hosts = append(f.hosts, wh)
	}
	if e.spare != nil {
		var err error
		spare := point{profile: hw.M1, vms: 4, vcpus: 2, memGiB: 1}
		if f.spare, err = buildHost(nil, simtime.NewClock(), spare, hv.KindKVM, e.seed, 64); err != nil {
			return nil, err
		}
	}
	return f, nil
}

func (f *warmFixture) ops() int { return 2 }

func (f *warmFixture) run(_ int, tr *tracer, c *counters) (opReport, error) {
	var out opReport
	var sim strings.Builder
	for i, h := range f.hosts {
		var before tpcache.Stats
		if c != nil {
			before = h.opts.Cache.Stats()
		}
		rep, err := h.hop(tr, c)
		if err != nil {
			return out, fmt.Errorf("host %d: %w", i, err)
		}
		if rep.CacheMisses != 0 {
			return out, fmt.Errorf("host %d: warm hop missed the cache %d times", i, rep.CacheMisses)
		}
		if c != nil {
			d := h.opts.Cache.Stats().Sub(before)
			c.add("pram.snapshot_hits", float64(d.PRAMHits))
			c.add("pram.snapshot_misses", float64(d.PRAMMisses))
		}
		sim.WriteString(simInPlace(rep))
		sim.WriteByte('\n')
		out.downtimes = append(out.downtimes, rep.Downtime)
		out.totals = append(out.totals, rep.Total)
	}
	out.sim = sim.String()
	return out, nil
}

func (f *warmFixture) verify(tr *tracer) error {
	for i, h := range f.hosts {
		if err := verifyGuests(tr, h.hyp.VMs()); err != nil {
			return fmt.Errorf("host %d: %w", i, err)
		}
	}
	return nil
}

func (f *warmFixture) probe(_ int, tr *tracer, c *counters) error {
	if err := probeHost(tr, f.spare.hyp, f.e.spare); err != nil {
		return err
	}
	return probePhysMem(tr, c, f.e.spare)
}
