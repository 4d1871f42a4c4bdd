// Package kexec models the micro-reboot mechanism of §4.2.4: booting a
// new kernel (the target hypervisor) on top of the running system without
// reinitializing hardware, while preserving explicitly-reserved memory.
//
// The contract enforced here is the paper's: the target image is loaded
// into RAM ahead of time (Fig. 3 ❶), the reboot wipes every frame that is
// neither the image nor covered by the PRAM preserve set (Fig. 3 ❹), and
// the PRAM pointer is handed to the new kernel on its boot command line.
// If the PRAM structure failed to record a guest frame, that frame is
// gone after Exec — which is exactly what the integrity property tests
// check.
package kexec

import (
	"fmt"
	"strconv"
	"strings"

	"hypertp/internal/hv"
	"hypertp/internal/hw"
)

// Image sizes of the preloaded kernels. The Xen payload is bigger because
// it carries two kernels: the hypervisor and the dom0 Linux (§5.2.2's
// explanation for the KVM→Xen boot cost).
const (
	KVMImageBytes  = 24 << 20 // bzImage + initramfs + kvmtool
	XenImageBytes  = 40 << 20 // xen.gz + dom0 bzImage + initramfs
	NOVAImageBytes = 8 << 20  // microhypervisor + root task
)

// Image is a target-hypervisor kernel image preloaded into RAM. Its
// frames are tracked as coalesced ranges — the image is only ever held
// whole and released whole, so per-frame bookkeeping would be waste.
type Image struct {
	Target hv.Kind
	Ranges []hw.FrameRange
	Bytes  uint64
	loaded bool
}

// Load stages the target hypervisor's image into physical memory
// (Fig. 3 ❶). It can run long before the transplant, while VMs execute.
func Load(m *hw.Machine, target hv.Kind) (*Image, error) {
	var size uint64
	switch target {
	case hv.KindXen:
		size = XenImageBytes
	case hv.KindKVM:
		size = KVMImageBytes
	case hv.KindNOVA:
		size = NOVAImageBytes
	default:
		return nil, fmt.Errorf("kexec: unknown target kind %v", target)
	}
	ranges, err := m.Mem.AllocRanges(int(size/hw.PageSize4K), hw.OwnerKexecImage, -1)
	if err != nil {
		return nil, fmt.Errorf("kexec: image load: %w", err)
	}
	// Stamp the first page so a post-reboot check can verify the image
	// survived intact.
	stamp := []byte("KEXEC-IMAGE:" + target.String())
	if err := m.Mem.Write(ranges[0].Start, 0, stamp); err != nil {
		return nil, err
	}
	return &Image{Target: target, Ranges: ranges, Bytes: size, loaded: true}, nil
}

// Unload releases a staged image without rebooting (an aborted
// transplant).
func (img *Image) Unload(m *hw.Machine) error {
	if !img.loaded {
		return fmt.Errorf("kexec: image not loaded")
	}
	if err := m.Mem.FreeRanges(img.Ranges); err != nil {
		return err
	}
	img.loaded = false
	return nil
}

// CmdlineKey is the boot parameter carrying the PRAM pointer.
const CmdlineKey = "pram"

// FormatCmdline builds the target kernel command line embedding the PRAM
// pointer (0 means "no preserved memory").
func FormatCmdline(pramPtr hw.MFN) string {
	return fmt.Sprintf("console=ttyS0 %s=0x%x", CmdlineKey, uint64(pramPtr))
}

// ParseCmdline extracts the PRAM pointer from a boot command line.
func ParseCmdline(cmdline string) (hw.MFN, error) {
	for _, field := range strings.Fields(cmdline) {
		k, v, ok := strings.Cut(field, "=")
		if !ok || k != CmdlineKey {
			continue
		}
		n, err := strconv.ParseUint(strings.TrimPrefix(v, "0x"), 16, 64)
		if err != nil {
			return 0, fmt.Errorf("kexec: bad %s value %q: %w", CmdlineKey, v, err)
		}
		return hw.MFN(n), nil
	}
	return 0, fmt.Errorf("kexec: no %s parameter in cmdline %q", CmdlineKey, cmdline)
}

// Result reports what the micro-reboot did.
type Result struct {
	WipedFrames     int
	PreservedFrames uint64
}

// Exec performs the micro-reboot (Fig. 3 ❹): every frame outside the
// image and the preserve set is wiped, the boot generation is bumped, and
// the command line with the PRAM pointer is installed. The caller then
// boots the target hypervisor (xen.Boot / kvm.Boot) and parses PRAM.
//
// Exec charges no virtual time itself; boot latency is the transplant
// engine's job because it depends on the machine profile and the
// preserved-memory volume.
func Exec(m *hw.Machine, img *Image, pramPtr hw.MFN, preserve []hw.FrameRange) (*Result, error) {
	if img == nil || !img.loaded {
		return nil, fmt.Errorf("kexec: target image not loaded")
	}
	// The image frames themselves survive: they are the new kernel.
	keep := make([]hw.FrameRange, 0, len(preserve)+len(img.Ranges))
	keep = append(keep, preserve...)
	keep = append(keep, img.Ranges...)
	keep = hw.MergeRanges(keep)
	preserved := hw.CountFrames(keep)

	wiped := m.MicroReboot(FormatCmdline(pramPtr), keep)
	// The image frames become part of the running kernel: retag them as
	// HV State so the next transplant's wipe reclaims them.
	if err := m.Mem.SetOwnerRanges(img.Ranges, hw.OwnerHV, -1); err != nil {
		return nil, err
	}
	img.loaded = false
	return &Result{WipedFrames: wiped, PreservedFrames: preserved}, nil
}
