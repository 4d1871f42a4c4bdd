package core

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"hypertp/internal/hv"
	"hypertp/internal/hv/xen"
	"hypertp/internal/hw"
	"hypertp/internal/tpcache"
	"hypertp/internal/uisr"
)

// twin is two identical testbeds driven through the same hops: one with
// a transplant cache, one without.
type twin struct {
	cached, cold *bench
	hc, hk       hv.Hypervisor // the current hypervisor of each
	opts         Options       // the cached side's
}

func newTwin(t *testing.T, kind hv.Kind, vms int) *twin {
	t.Helper()
	w := &twin{cached: newBench(t, hw.M1()), cold: newBench(t, hw.M1()), opts: DefaultOptions()}
	w.opts.Cache = tpcache.New()
	w.hc, w.hk = bootSmallVMs(t, w.cached, kind, vms), bootSmallVMs(t, w.cold, kind, vms)
	return w
}

// hop transplants both testbeds to target, fails the test where they
// then differ, and returns the cached side's cache activity.
func (w *twin) hop(t *testing.T, target hv.Kind) tpcache.Stats {
	t.Helper()
	before := w.opts.Cache.Stats()
	hc, rc, err := w.cached.engine.InPlace(w.hc, target, w.opts)
	if err != nil {
		t.Fatalf("cached %v→%v: %v", w.hc.Kind(), target, err)
	}
	hk, rk, err := w.cold.engine.InPlace(w.hk, target, DefaultOptions())
	if err != nil {
		t.Fatalf("cold %v→%v: %v", w.hk.Kind(), target, err)
	}
	w.hc, w.hk = hc, hk
	flat := *rc
	flat.CacheHits, flat.CacheMisses = 0, 0
	if got, want := fmt.Sprintf("%+v", flat), fmt.Sprintf("%+v", *rk); got != want {
		t.Fatalf("→%v: cached report\n%s\ndiffers from cold\n%s", target, got, want)
	}
	if err := sameHosts(hc, hk); err != nil {
		t.Fatalf("→%v: cached host differs from cold: %v", target, err)
	}
	return w.opts.Cache.Stats().Sub(before)
}

// sameHosts compares two hypervisors VM by VM — the re-encoded saved
// state, Xen's context bytes, the footprint, the memory map and guest
// memory — and audits both machines' frame ownership.
func sameHosts(a, b hv.Hypervisor) error {
	for _, h := range []hv.Hypervisor{a, b} {
		live := map[int]bool{}
		for _, vm := range h.VMs() {
			live[int(vm.ID)] = true
		}
		if vs := h.Machine().Mem.AuditOwners(live); vs != nil {
			return fmt.Errorf("%v audit: %v", h.Kind(), vs)
		}
	}
	ca, err := capture(a)
	if err != nil {
		return err
	}
	cb, err := capture(b)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(ca.sums, cb.sums) {
		return fmt.Errorf("guest checksums %v vs %v", ca.sums, cb.sums)
	}
	if err := diffBlobs(ca.blobs, cb.blobs); err != nil {
		return fmt.Errorf("saved state: %w", err)
	}
	va, vb := a.VMs(), b.VMs()
	sort.Slice(va, func(i, j int) bool { return va[i].Config.Name < va[j].Config.Name })
	sort.Slice(vb, func(i, j int) bool { return vb[i].Config.Name < vb[j].Config.Name })
	for i := range va {
		if err := sameVM(a, b, va[i].ID, vb[i].ID); err != nil {
			return fmt.Errorf("vm %s: %w", va[i].Config.Name, err)
		}
	}
	return nil
}

// sameVM compares what the format built for one VM on each side.
func sameVM(a, b hv.Hypervisor, ida, idb hv.VMID) error {
	fa, err := a.Footprint(ida)
	if err != nil {
		return err
	}
	fb, err := b.Footprint(idb)
	if err != nil {
		return err
	}
	if fa != fb {
		return fmt.Errorf("footprint %+v vs %+v", fa, fb)
	}
	ma, err := a.MemExtents(ida)
	if err != nil {
		return err
	}
	mb, err := b.MemExtents(idb)
	if err != nil {
		return err
	}
	if ma.Fingerprint() != mb.Fingerprint() || !reflect.DeepEqual(ma.Extents(), mb.Extents()) {
		return fmt.Errorf("memory maps differ (%d vs %d extents)", ma.Len(), mb.Len())
	}
	if a.Kind() != hv.KindXen {
		return nil
	}
	xa, err := xen.ContextBlob(a, ida)
	if err != nil {
		return err
	}
	xb, err := xen.ContextBlob(b, idb)
	if err != nil {
		return err
	}
	if !bytes.Equal(xa, xb) {
		return fmt.Errorf("xen context blobs differ")
	}
	return nil
}

// TestFormatMemoDifferential holds the format memo — each target's
// translation kept beside the decode memo, Xen's context pages installed
// by reference — to the cold path: the same hops on two identical
// testbeds, one cached and one not, must leave the same VMs behind after
// every hop. Its misses must build cold: a blob over another memory map,
// a blob whose frames were rewritten, and a blob recaptured, whose
// translations' captures must be released.
func TestFormatMemoDifferential(t *testing.T) {
	const vms = 2
	t.Run("kvm-xen", func(t *testing.T) {
		w := newTwin(t, hv.KindKVM, vms)
		var d tpcache.Stats
		for hop := 0; hop < 10; hop++ {
			d = w.hop(t, otherKind(w.hc))
		}
		if d.FormatHits != vms {
			t.Fatalf("a primed hop placed %d kept translations, want %d", d.FormatHits, vms)
		}
	})
	t.Run("nova-tour", func(t *testing.T) {
		w := newTwin(t, hv.KindXen, vms)
		var hits uint64
		for hop := 0; hop < roundTripHops; hop++ {
			hits += w.hop(t, roundTripTour[hop%len(roundTripTour)]).FormatHits
		}
		if hits == 0 {
			t.Fatal("the tours never placed a kept translation")
		}
	})
	t.Run("map-miss", func(t *testing.T) {
		for _, kind := range []hv.Kind{hv.KindXen, hv.KindKVM, hv.KindNOVA} {
			if err := mapMiss(t, kind); err != nil {
				t.Errorf("%v: %v", kind, err)
			}
		}
	})
	t.Run("rewritten-blob", func(t *testing.T) {
		w := newTwin(t, hv.KindKVM, vms)
		for hop := 0; hop < 6; hop++ {
			w.hop(t, otherKind(w.hc))
		}
		// Both sides' first blob is rewritten, before the target reads
		// it, as another valid state: its frames no longer hold the
		// capture, so the cached side must decode and translate it cold.
		withHookAfter(t, stepBoot, func(tp *transplant) error {
			return rewriteBlob(tp.e.Machine.Mem, tp.saved[0].frames)
		})
		if d := w.hop(t, otherKind(w.hc)); d.FormatHits != vms-1 {
			t.Fatalf("%d kept translations placed, want %d", d.FormatHits, vms-1)
		}
	})
	t.Run("recapture-releases", func(t *testing.T) {
		w := newTwin(t, hv.KindKVM, vms)
		for hop := 0; hop < 6; hop++ {
			w.hop(t, otherKind(w.hc))
		}
		if w.hc.Kind() != hv.KindKVM {
			t.Fatal("the twin is not on KVM")
		}
		// On the cached side, the first blob's place is recaptured just
		// before the restore into Xen reads it, as a rewrite landing at
		// the same frames recaptures it.
		var kept *hv.Translation
		withHookAfter(t, stepPRAMParse, func(tp *transplant) error {
			if tp.opts.Cache == nil || kept != nil {
				return nil
			}
			m, s, n := tp.e.Machine, tp.saved[0], len(tp.saved)
			frames := blobFrames(tp.parsed.Files[n])
			kept = tp.opts.Cache.Translation(m, s.hash, frames, tp.target, tp.parsed.Files[0].Extents)
			if kept == nil || kept.State == nil || reflect.DeepEqual(kept.Pages, hw.Pages{}) {
				return fmt.Errorf("no kept Xen translation with a capture: %+v", kept)
			}
			blob, _, err := readBlob(m.Mem, "", frames, nil)
			if err != nil {
				return err
			}
			tp.opts.Cache.SetBlobFrames(m, s.hash, blob, s.frames)
			return nil
		})
		w.hop(t, hv.KindXen)
		if !reflect.DeepEqual(kept.Pages, hw.Pages{}) {
			t.Fatal("the recaptured place kept its translation's capture")
		}
	})
}

// rewriteBlob replaces the blob image at frames with a valid blob of
// another state — the first vCPU one instruction on — written afresh.
func rewriteBlob(mem *hw.PhysMem, frames []hw.FrameRange) error {
	image, err := mem.ReadRanges(frames, nil)
	if err != nil {
		return err
	}
	blob, _, err := readBlob(mem, "", frames, nil)
	if err != nil {
		return err
	}
	st, err := uisr.Decode(blob)
	if err != nil {
		return err
	}
	st.VCPUs[0].Regs.RIP++
	if blob, err = uisr.Encode(st); err != nil {
		return err
	}
	copy(image[8:], blob)
	if err := mem.FreeRanges(frames); err != nil {
		return err
	}
	if err := mem.ClaimRanges(frames, hw.OwnerPRAM, -1); err != nil {
		return err
	}
	return mem.FillRanges(frames, len(image), func(b []byte) { copy(b, image) })
}

// mapMiss restores one state three times on a kind hypervisor of two
// identical machines, the first through a primed blob memo and the
// second cold — over a memory map A, over A again, then over a map B of
// the same guest laid out in 4 KiB pages — and compares each pair. The
// second restore over A places the kept translation; the one over B must
// build it cold.
func mapMiss(t *testing.T, kind hv.Kind) error {
	st := uisr.SyntheticVM("memo-vm", 1, 2, 64<<20, 7)
	blob, err := uisr.Encode(st)
	if err != nil {
		return err
	}
	hash := tpcache.BlobHash(blob)
	cache := tpcache.New()
	var hosts [2]hv.Hypervisor
	var maps [2][2]uisr.MemMap // per side: A, B
	var frames []hw.FrameRange
	for side := range hosts {
		h, err := newBench(t, hw.M1()).engine.BootHypervisor(kind)
		if err != nil {
			return err
		}
		hosts[side] = h
		mem := h.Machine().Mem
		for i, huge := range []bool{true, false} {
			space, err := hv.AllocAddressSpace(mem, 100+i, st.MemBytes, huge)
			if err != nil {
				return err
			}
			maps[side][i] = space.Extents()
		}
		if side == 1 {
			continue
		}
		// The blob lands twice at one place, is captured there, and its
		// capture decoded, as on a primed host.
		m := h.Machine()
		if frames, err = mem.AllocRanges(hv.FramesFor(len(blob)), hw.OwnerPRAM, -1); err != nil {
			return err
		}
		if err := mem.FillRanges(frames, len(blob), func(b []byte) { copy(b, blob) }); err != nil {
			return err
		}
		cache.SetBlobFrames(m, hash, blob, frames)
		cache.SetBlobFrames(m, hash, blob, frames)
		if _, held := cache.DecodedBlob(m, hash, frames); !held {
			return fmt.Errorf("the blob's frames do not hold its capture")
		}
		cache.SetDecodedBlob(m, hash, frames, st)
	}
	var ids [2]hv.VMID
	for leg, want := range []struct {
		name string
		mm   int
		hits uint64
	}{{"first A", 0, 0}, {"A again", 0, 1}, {"B", 1, 0}} {
		before := cache.Stats()
		for side, h := range hosts {
			if leg > 0 {
				if err := h.ReleaseVMState(ids[side]); err != nil {
					return err
				}
			}
			cp := *st
			cp.MemMap = maps[side][want.mm]
			opts := hv.RestoreOptions{Mode: hv.RestoreAdopt}
			if side == 0 {
				opts.Translation = cache.Translation(h.Machine(), hash, frames, kind, cp.MemMap)
			}
			vm, err := h.RestoreUISR(&cp, opts)
			if err != nil {
				return fmt.Errorf("%s: %w", want.name, err)
			}
			ids[side] = vm.ID
		}
		if err := sameVM(hosts[0], hosts[1], ids[0], ids[1]); err != nil {
			return fmt.Errorf("%s: %w", want.name, err)
		}
		var saved [2][]byte
		for side, h := range hosts {
			st, err := h.SaveUISR(ids[side])
			if err != nil {
				return err
			}
			st.MemMap = uisr.MemMap{}
			if saved[side], err = uisr.Encode(st); err != nil {
				return err
			}
		}
		if d := uisr.DiffBlobs(saved[0], saved[1]); d != "" {
			return fmt.Errorf("%s: saved state: %s", want.name, d)
		}
		if d := cache.Stats().Sub(before); d.FormatHits != want.hits {
			return fmt.Errorf("%s: %d kept translations placed, want %d", want.name, d.FormatHits, want.hits)
		}
	}
	return nil
}
