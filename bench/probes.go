package main

import (
	"fmt"
	"time"

	"hypertp/internal/hv"
	"hypertp/internal/hw"
	"hypertp/internal/kexec"
	"hypertp/internal/pram"
	"hypertp/internal/sched"
	"hypertp/internal/simnet"
	"hypertp/internal/simtime"
	"hypertp/internal/uisr"
)

// Engine.InPlace, migration.Run and RespondToCVE are opaque from outside:
// one span covers everything they do. The probes below call, after a
// traced op's timed part, the public functions those entry points drive,
// at the op's own sizes, so each layer's cost shows as a span of its own.
// They are measurements beside the op, not a decomposition of it.

// probeHost exercises the save side of a transplant on hyp's VMs: memory
// map export, UISR save/encode/decode, PRAM build/parse, image staging,
// and the page-content sweep a migration does.
func probeHost(tr *tracer, hyp hv.Hypervisor, scratch *hw.PhysMem) error {
	mach := hyp.Machine()
	tr.begin("hw.physmem_new")
	_ = hw.NewPhysMem(mach.Profile.RAMBytes)
	tr.end()

	var files []pram.File
	for i, vm := range hyp.VMs() {
		tr.begin("hv.mem_extents")
		extents, err := hyp.MemExtents(vm.ID)
		tr.end()
		if err != nil {
			return err
		}
		files = append(files, pram.File{Name: vm.Config.Name, VMID: uint32(vm.ID), Extents: extents})

		if err := hyp.Pause(vm.ID); err != nil {
			return err
		}
		tr.begin("hv.save_uisr")
		st, err := hyp.SaveUISR(vm.ID)
		tr.end()
		if err != nil {
			return err
		}
		if err := hyp.Resume(vm.ID); err != nil {
			return err
		}
		tr.begin("uisr.encode")
		blob, err := uisr.Encode(st)
		tr.end()
		if err != nil {
			return err
		}
		tr.begin("uisr.decode")
		_, err = uisr.Decode(blob)
		tr.end()
		if err != nil {
			return err
		}

		if i > 0 {
			continue // one content sweep per op bounds the probe
		}
		tr.begin("hv.checksum_all")
		_, err = vm.Space.ChecksumAll()
		tr.end()
		if err != nil {
			return err
		}
		dst, err := hv.AllocAddressSpace(scratch, int(vm.ID), vm.Config.MemBytes, true)
		if err != nil {
			return err
		}
		tr.begin("hv.copy_contents")
		err = vm.Space.CopyContentsTo(dst)
		tr.end()
		if err != nil {
			return err
		}
		if err := dst.Release(); err != nil {
			return err
		}
	}

	tr.begin("pram.build")
	ps, err := pram.Build(mach.Mem, files, pram.BuildOptions{})
	tr.end()
	if err != nil {
		return err
	}
	tr.begin("pram.parse")
	_, err = pram.Parse(mach.Mem, ps.Pointer)
	tr.end()
	if err != nil {
		return err
	}
	if err := ps.Release(mach.Mem); err != nil {
		return err
	}

	target := hv.KindKVM
	if hyp.Kind() == hv.KindKVM {
		target = hv.KindXen
	}
	tr.begin("kexec.load")
	img, err := kexec.Load(mach, target)
	tr.end()
	if err != nil {
		return err
	}
	return img.Unload(mach)
}

// The PhysMem probe allocates probeFrames frames — the size of a
// hypervisor's resident set, the common bulk allocation — and writes the
// first probeWrites of them, a guest working set.
const (
	probeFrames = 4096
	probeWrites = 256
)

// probePhysMem runs the ownership path (alloc, claim, wipe) and the
// content path (write, checksum) of hw.PhysMem on the spare memory.
func probePhysMem(tr *tracer, c *counters, pm *hw.PhysMem) error {
	tr.begin("hw.alloc")
	ranges, err := pm.AllocRanges(probeFrames, hw.OwnerHV, 0)
	if err == nil {
		_, err = pm.Alloc2M(hw.OwnerGuest, 1)
	}
	tr.end()
	if err != nil {
		return err
	}

	// Half the pages repeat one pattern, so the dedup counter has work.
	hits0, _ := pm.PageDedupHits()
	page := make([]byte, hw.PageSize4K)
	first := ranges[0]
	if first.Count < probeWrites {
		return fmt.Errorf("PhysMem probe: first allocated run has %d frames, want %d", first.Count, probeWrites)
	}
	tr.begin("hw.write")
	for m := first.Start; m < first.Start+probeWrites; m++ {
		page[0] = byte(m)
		if m%2 == 0 {
			page[0] = 0
		}
		if err = pm.Write(m, 0, page); err != nil {
			break
		}
	}
	tr.end()
	if err != nil {
		return err
	}
	hits1, _ := pm.PageDedupHits()
	c.add("hw.dedup_hits", float64(hits1-hits0))

	tr.begin("hw.checksum")
	for m := first.Start; m < first.Start+probeWrites; m++ {
		if _, err = pm.Checksum(m); err != nil {
			break
		}
	}
	tr.end()
	if err != nil {
		return err
	}

	for _, r := range ranges {
		if err := pm.FreeRange(r.Start, r.Count); err != nil {
			return err
		}
	}
	tr.begin("hw.claim")
	for _, r := range ranges {
		if err = pm.ClaimRange(r.Start, r.Count, hw.OwnerPRAM, 0); err != nil {
			break
		}
	}
	tr.end()
	if err != nil {
		return err
	}

	tr.begin("hw.wipe")
	wiped := pm.WipeRanges(nil)
	tr.end()
	if want := probeFrames + hw.FramesPer2M; wiped != want {
		return fmt.Errorf("PhysMem probe wiped %d frames, want %d", wiped, want)
	}
	return nil
}

// probeTransfers is how many streams share the probe's link: the fleet
// workload's LinkStreams cap.
const probeTransfers = 8

// probeSimnet moves concurrent bulk transfers over one shared link, the
// bookkeeping a pre-copy round costs apart from the page copies.
func probeSimnet(tr *tracer, c *counters) error {
	clock := simtime.NewClock()
	link := simnet.NewLink(clock, "probe", simnet.Gbps1, 100*time.Microsecond)
	finished := 0
	tr.begin("simnet.transfer")
	for i := 0; i < probeTransfers; i++ {
		link.Start(fmt.Sprintf("stream-%d", i), int64(i+1)<<24, func(err error) {
			if err == nil {
				finished++
			}
		})
	}
	clock.Run()
	tr.end()
	c.add("simnet.transfers", probeTransfers)
	if finished != probeTransfers {
		return fmt.Errorf("simnet probe finished %d of %d transfers", finished, probeTransfers)
	}
	return nil
}

// probeSched executes synthetic response graphs of 10², 10³ and 10⁴
// virtual-cost nodes under the fleet workload's limits: one transplant
// node per host, every fourth followed by a dependent migration stream.
// The largest graph is optional: Execute is superlinear in the node count.
func probeSched(tr *tracer, largest bool) error {
	sizes := []struct {
		n    int
		span string
	}{{100, "sched.execute_1e2"}, {1000, "sched.execute_1e3"}, {10000, "sched.execute_1e4"}}
	if !largest {
		sizes = sizes[:2]
	}
	for _, size := range sizes {
		g := sched.NewGraph()
		var prev *sched.Node
		for i := 0; i < size.n; i++ {
			host := fmt.Sprintf("h%05d", i)
			nd := &sched.Node{Name: "transplant:" + host, Hosts: []string{host}, Kexecs: 1,
				Cost: time.Duration(1+i%7) * time.Second}
			if i%4 == 3 {
				nd = &sched.Node{Name: "evacuate:" + host, Hosts: []string{host}, Streams: 1,
					Cost: time.Duration(1+i%5) * time.Second}
			}
			g.Add(nd)
			if i%4 == 3 {
				g.Dep(nd, prev)
			}
			prev = nd
		}
		tr.begin(size.span)
		s, err := sched.Execute(g, fleetLimits, sched.Options{})
		tr.end()
		if err != nil {
			return err
		}
		if len(s.Results) != size.n || s.Failed+s.Skipped != 0 {
			return fmt.Errorf("sched probe: %d of %d nodes completed", len(s.Results)-s.Failed-s.Skipped, size.n)
		}
	}
	return nil
}
