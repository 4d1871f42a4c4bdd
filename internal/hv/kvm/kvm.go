package kvm

import (
	"fmt"

	"hypertp/internal/hv"
	"hypertp/internal/hw"
	"hypertp/internal/uisr"
)

// HVResidentBytes is the host Linux + KVM module resident set pinned at
// boot: HV State in the Fig. 2 taxonomy.
const HVResidentBytes = 256 << 20

// Version is the modeled software stack (the paper's testbed).
const Version = "linux-5.3.1/kvm+kvmtool"

// memslot mirrors struct kvm_userspace_memory_region: KVM's own NPT-side
// metadata, distinct in shape from Xen's p2m.
type memslot struct {
	Slot     uint32
	BaseGFN  uint64
	NPages   uint64
	UserAddr uint64 // modeled host virtual address of the mapping
}

// vmProc is one kvmtool VMM process: the userspace side holding the vCPU
// fds and device models. It is what makes KVM's stop-and-copy path light
// compared to Xen's (Table 4).
type vmProc struct {
	vcpus []vcpuState
	// memslots describe kvmtool's mapping of guest memory to KVM.
	memslots  []memslot
	ioapic    kvmIOAPIC
	pit       kvmPit2
	rtc       kvmtoolRTC
	drops     platformDrops
	cpuShares int
	// stateFrames hold the vCPU state sections and slot tables
	// (OwnerVMState).
	stateFrames []hw.FrameRange
	// ioapicPinsDropped records the §4.2.1 compatibility event for
	// diagnostics.
	ioapicPinsDropped int
}

// Boot instantiates the host Linux + KVM stack, the type-II hypervisor
// model, on the machine.
func Boot(m *hw.Machine) (hv.Hypervisor, error) {
	return hv.NewChassis(m, format{})
}

// format is KVM's hv.Format: ioctl-shaped sections per vCPU plus a
// memslot table per kvmtool process.
type format struct{}

func (format) Kind() hv.Kind         { return hv.KindKVM }
func (format) Version() string       { return Version }
func (format) ResidentBytes() uint64 { return HVResidentBytes }

func (format) NativeBorn(st *uisr.VMState) { st.IOAPIC.NumPins = uisr.KVMIOAPICPins }

// FromUISR builds the kvmtool process: UISR → ioctl sections per vCPU,
// with the §4.2.1 fixes of the Xen→KVM direction, and memslots over mm.
func (format) FromUISR(st *uisr.VMState, mm uisr.MemMap) (hv.State, error) {
	// The host scheduler's representation of the weight: cgroup
	// cpu.shares, rebuilt at 4x the neutral scale (1024 = default).
	proc := &vmProc{cpuShares: st.SchedWeight() * 4, vcpus: make([]vcpuState, len(st.VCPUs))}
	for i := range st.VCPUs {
		vcpuFromUISR(&st.VCPUs[i], &proc.vcpus[i])
	}
	proc.ioapicPinsDropped = ioapicFromUISR(&st.IOAPIC, &proc.ioapic)
	if st.HasPIT {
		pitFromUISR(&st.PIT, &proc.pit)
	} else {
		// PIT-less source: KVM_CREATE_PIT2 defaults (mode 3, max count).
		proc.pit.Channels[0].Mode = 3
		proc.pit.Channels[0].Gate = 1
	}
	proc.rtc = kvmtoolRTC{Index: st.RTC.Index, CMOS: st.RTC.CMOS}
	// kvmtool emulates neither an HPET nor the ACPI PM timer: drop the
	// state after the guest has been notified (§4.2.3's unplug
	// strategy applied to platform timers).
	proc.drops = platformDrops{HPET: st.HasHPET, PMTimer: st.HasPMTimer}

	// Memslots: one slot per contiguous GFN run. With 2 MiB backing the
	// whole guest is typically one slot — KVM's representation is
	// coarser than Xen's per-extent p2m, underlining the format split.
	proc.memslots = slotsFromExtents(mm.Extents())
	return proc, nil
}

// Layout sizes the VM_i State frames: vCPU sections + slot table. KVM
// keeps them in the kernel and kvmtool, not in the frames' bytes.
func (proc *vmProc) Layout() (frames, size int) {
	stateBytes := len(proc.vcpus)*(16*18+8*24+len(proc.vcpus[0].msrs)*16+512+568+8+1024) +
		len(proc.memslots)*32 + 1024 // irqchip + pit
	return hv.FramesFor(stateBytes), 0
}

// Fill writes nothing: Layout fills no byte.
func (proc *vmProc) Fill([]byte) {}

func (proc *vmProc) Place(frames []hw.FrameRange, shared bool) hv.State {
	if shared {
		cp := *proc
		proc = &cp
	}
	proc.stateFrames = frames
	return proc
}

func (proc *vmProc) Frames() []hw.FrameRange { return proc.stateFrames }

// slotsFromExtents coalesces GFN-contiguous extents into memslots.
func slotsFromExtents(extents []uisr.PageExtent) []memslot {
	var out []memslot
	for _, e := range extents {
		if n := len(out); n > 0 &&
			out[n-1].BaseGFN+out[n-1].NPages == e.GFN &&
			out[n-1].UserAddr+out[n-1].NPages*hw.PageSize4K == e.MFN*hw.PageSize4K {
			out[n-1].NPages += e.Pages()
			continue
		}
		out = append(out, memslot{
			Slot:     uint32(len(out)),
			BaseGFN:  e.GFN,
			NPages:   e.Pages(),
			UserAddr: e.MFN * hw.PageSize4K,
		})
	}
	return out
}

// ToUISR is the to_uisr path: kvmtool reads each vCPU's ioctl sections
// and translates them to UISR.
func (proc *vmProc) ToUISR() (*uisr.VMState, error) {
	st := &uisr.VMState{SourceHypervisor: "kvm", VCPUs: make([]uisr.VCPU, len(proc.vcpus))}
	for i := range proc.vcpus {
		if err := vcpuToUISR(uint32(i), &proc.vcpus[i], &st.VCPUs[i]); err != nil {
			return nil, fmt.Errorf("kvm: vCPU %d: %w", i, err)
		}
	}
	st.Weight = uint16(proc.cpuShares / 4)
	ioapicToUISR(&proc.ioapic, &st.IOAPIC)
	st.HasPIT = true // the in-kernel PIT is always present on this stack
	pitToUISR(&proc.pit, &st.PIT)
	st.RTC = uisr.RTC{CMOS: proc.rtc.CMOS, Index: proc.rtc.Index}
	// HasHPET / HasPMTimer stay false: kvmtool has neither.
	return st, nil
}

// MgmtBytes counts the vCPU task structs and the vm list entry.
func (proc *vmProc) MgmtBytes() uint64 { return uint64(len(proc.vcpus)*48 + 128) }

// PlatformTimersDropped reports whether the §4.2.1 compatibility path
// detached an HPET and/or PM timer when this VM was restored on kvmtool.
func PlatformTimersDropped(h hv.Hypervisor, id hv.VMID) (hpet, pmtimer bool, err error) {
	proc, err := hv.StateOf[*vmProc](h, id)
	if err != nil {
		return false, false, err
	}
	return proc.drops.HPET, proc.drops.PMTimer, nil
}

// CPUShares returns the kvmtool process's cgroup cpu.shares (KVM's own
// management-state representation of the neutral UISR weight).
func CPUShares(h hv.Hypervisor, id hv.VMID) (int, error) {
	proc, err := hv.StateOf[*vmProc](h, id)
	if err != nil {
		return 0, err
	}
	return proc.cpuShares, nil
}

// Memslots returns the size of the VM's slot table (KVM-specific API for
// tests).
func Memslots(h hv.Hypervisor, id hv.VMID) (int, error) {
	proc, err := hv.StateOf[*vmProc](h, id)
	if err != nil {
		return 0, err
	}
	return len(proc.memslots), nil
}

// IOAPICPinsDropped reports how many IOAPIC pins the §4.2.1 compatibility
// fix disconnected when this VM's state was restored.
func IOAPICPinsDropped(h hv.Hypervisor, id hv.VMID) (int, error) {
	proc, err := hv.StateOf[*vmProc](h, id)
	if err != nil {
		return 0, err
	}
	return proc.ioapicPinsDropped, nil
}
