package kvm

import (
	"fmt"
	"sort"

	"hypertp/internal/guest"
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
	vm        *hv.VM
	vcpus     []*vcpuState
	memslots  []memslot
	ioapic    kvmIOAPIC
	pit       kvmPit2
	rtc       kvmtoolRTC
	drops     platformDrops
	cpuShares int
	devices   []uisr.EmulatedDevice
	// stateFrames hold the vCPU state sections and slot tables
	// (OwnerVMState).
	stateFrames []hw.FrameRange
	// ioapicPinsDropped records the §4.2.1 compatibility event for
	// diagnostics.
	ioapicPinsDropped int
}

// KVM is the type-II hypervisor model.
type KVM struct {
	hv.CrashState
	machine  *hw.Machine
	procs    map[hv.VMID]*vmProc
	nextID   hv.VMID
	hvRanges []hw.FrameRange
	// runnable is the host scheduler's view of vCPU tasks: VM
	// Management State, rebuilt after transplant.
	runnable []hv.VMID
}

var (
	_ hv.Hypervisor = (*KVM)(nil)
	_ hv.Crashable  = (*KVM)(nil)
)

// freezeVCPUs stops every VM's vCPUs in place for the fail-stop and
// hang models: guest memory and VM_i State stay intact for salvage.
func (k *KVM) freezeVCPUs() {
	for _, proc := range k.procs {
		proc.vm.SetPaused(true)
	}
}

// Crash implements hv.Crashable: a host-kernel panic fail-stops every
// kvmtool process with its guests frozen in place.
func (k *KVM) Crash(reason string) bool {
	first := k.MarkCrashed(reason)
	k.freezeVCPUs()
	return first
}

// Hang implements hv.Crashable: the host wedges (scheduler stall);
// only missed heartbeats reveal it.
func (k *KVM) Hang(reason string) bool {
	first := k.MarkHung(reason)
	k.freezeVCPUs()
	return first
}

// Fence implements hv.Crashable.
func (k *KVM) Fence(reason string) {
	k.MarkCrashed(reason)
	k.freezeVCPUs()
}

// Boot instantiates the host Linux + KVM stack on the machine.
func Boot(m *hw.Machine) (*KVM, error) {
	ranges, err := m.Mem.AllocRanges(HVResidentBytes/hw.PageSize4K, hw.OwnerHV, -1)
	if err != nil {
		return nil, fmt.Errorf("kvm: boot reservation: %w", err)
	}
	return &KVM{
		machine:  m,
		procs:    make(map[hv.VMID]*vmProc),
		nextID:   1,
		hvRanges: ranges,
	}, nil
}

// Kind implements hv.Hypervisor.
func (k *KVM) Kind() hv.Kind { return hv.KindKVM }

// Name implements hv.Hypervisor.
func (k *KVM) Name() string { return Version }

// Machine implements hv.Hypervisor.
func (k *KVM) Machine() *hw.Machine { return k.machine }

// CreateVM implements hv.Hypervisor.
func (k *KVM) CreateVM(cfg hv.Config) (*hv.VM, error) {
	if err := k.Barrier(Version, "create"); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	id := k.nextID
	k.nextID++
	st := uisr.SyntheticVM(cfg.Name, uint32(id), cfg.VCPUs, cfg.MemBytes, cfg.Seed)
	st.IOAPIC.NumPins = uisr.KVMIOAPICPins
	if cfg.Weight > 0 {
		st.Weight = uint16(cfg.Weight)
	}
	return k.instantiate(id, cfg, st, hv.RestoreOptions{Mode: hv.RestoreAllocate,
		InPlaceCompatible: cfg.InPlaceCompatible}, nil, true)
}

// RestoreUISR implements hv.Hypervisor.
func (k *KVM) RestoreUISR(st *uisr.VMState, opts hv.RestoreOptions) (*hv.VM, error) {
	if err := k.Barrier(Version, "restore"); err != nil {
		return nil, err
	}
	if err := st.Validate(); err != nil {
		return nil, err
	}
	id := k.nextID
	k.nextID++
	cfg := hv.Config{
		Name:              st.Name,
		VCPUs:             len(st.VCPUs),
		MemBytes:          st.MemBytes,
		HugePages:         st.HugePages,
		InPlaceCompatible: opts.InPlaceCompatible,
		Weight:            int(st.Weight),
	}
	vm, err := k.instantiate(id, cfg, st, opts, st.MemMap, false)
	if err != nil {
		return nil, err
	}
	vm.SetPaused(true)
	return vm, nil
}

func (k *KVM) instantiate(id hv.VMID, cfg hv.Config, st *uisr.VMState,
	opts hv.RestoreOptions, adopt []uisr.PageExtent, fresh bool) (*hv.VM, error) {

	var space *hv.AddressSpace
	var err error
	switch opts.Mode {
	case hv.RestoreAdopt:
		if len(adopt) == 0 {
			return nil, fmt.Errorf("kvm: adopt restore without memory map for %q", cfg.Name)
		}
		// InPlaceTP restore path: kvmtool mmaps the preserved PRAM
		// file and hands the addresses to KVM as guest memory
		// (§4.2.2).
		space, err = hv.NewAddressSpace(k.machine.Mem, adopt)
		if err == nil {
			err = space.Retag(hw.OwnerGuest, int(id))
		}
	case hv.RestoreAllocate:
		space, err = hv.AllocAddressSpace(k.machine.Mem, int(id), cfg.MemBytes, cfg.HugePages)
	default:
		err = fmt.Errorf("kvm: unknown restore mode %d", opts.Mode)
	}
	if err != nil {
		return nil, err
	}
	// Nothing below may leak the space on failure: freshly allocated
	// guest memory is released, adopted PRAM memory is left intact
	// (still guest-tagged) for the restore retry to adopt again.
	undoSpace := func() {
		if opts.Mode == hv.RestoreAllocate {
			_ = space.Release()
		}
	}

	weight := int(st.Weight)
	if weight == 0 {
		weight = uisr.DefaultWeight
	}
	proc := &vmProc{devices: append([]uisr.EmulatedDevice(nil), st.Devices...)}
	// The host scheduler's representation: cgroup cpu.shares, rebuilt
	// at 4x the neutral scale (1024 = default).
	proc.cpuShares = weight * 4
	// Platform state: UISR → ioctl sections per vCPU (from_uisr path).
	for i := range st.VCPUs {
		vs, err := vcpuFromUISR(&st.VCPUs[i])
		if err != nil {
			undoSpace()
			return nil, fmt.Errorf("kvm: vCPU %d: %w", i, err)
		}
		proc.vcpus = append(proc.vcpus, vs)
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
	proc.memslots = slotsFromExtents(space.Extents())

	// VM_i State frames: vCPU sections + slot table.
	stateBytes := len(proc.vcpus)*(16*18+8*24+len(proc.vcpus[0].msrs)*16+512+568+8+1024) +
		len(proc.memslots)*32 + 1024 // irqchip + pit
	proc.stateFrames, err = k.machine.Mem.AllocRanges(framesFor(stateBytes), hw.OwnerVMState, int(id))
	if err != nil {
		undoSpace()
		return nil, err
	}

	vm := &hv.VM{ID: id, Config: cfg, Space: space}
	proc.vm = vm
	k.procs[id] = proc
	k.rebuildRunnable()

	if fresh {
		drivers := guest.DefaultDrivers()
		for _, name := range cfg.PassthroughDevices {
			drivers = append(drivers, &guest.Driver{Name: name, Class: guest.DevicePassthrough})
		}
		vm.Guest = guest.New(cfg.Name, space, drivers...)
	}
	return vm, nil
}

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

func framesFor(n int) int {
	if n == 0 {
		return 1
	}
	return (n + hw.PageSize4K - 1) / hw.PageSize4K
}

func (k *KVM) rebuildRunnable() {
	k.runnable = k.runnable[:0]
	for id := range k.procs {
		k.runnable = append(k.runnable, id)
	}
	sort.Slice(k.runnable, func(i, j int) bool { return k.runnable[i] < k.runnable[j] })
}

// DestroyVM implements hv.Hypervisor.
func (k *KVM) DestroyVM(id hv.VMID) error {
	if err := k.Barrier(Version, "destroy"); err != nil {
		return err
	}
	proc, ok := k.procs[id]
	if !ok {
		return fmt.Errorf("kvm: no VM %d", id)
	}
	if err := proc.vm.Space.Release(); err != nil {
		return err
	}
	if err := k.machine.Mem.FreeRanges(proc.stateFrames); err != nil {
		return err
	}
	delete(k.procs, id)
	k.rebuildRunnable()
	return nil
}

// ReleaseVMState frees the VM_i State but leaves guest memory in place —
// the InPlaceTP source-side teardown.
func (k *KVM) ReleaseVMState(id hv.VMID) error {
	proc, ok := k.procs[id]
	if !ok {
		return fmt.Errorf("kvm: no VM %d", id)
	}
	if err := k.machine.Mem.FreeRanges(proc.stateFrames); err != nil {
		return err
	}
	proc.stateFrames = nil
	delete(k.procs, id)
	k.rebuildRunnable()
	return nil
}

// LookupVM implements hv.Hypervisor.
func (k *KVM) LookupVM(id hv.VMID) (*hv.VM, bool) {
	proc, ok := k.procs[id]
	if !ok {
		return nil, false
	}
	return proc.vm, true
}

// VMs implements hv.Hypervisor.
func (k *KVM) VMs() []*hv.VM {
	out := make([]*hv.VM, 0, len(k.procs))
	for _, id := range k.runnable {
		out = append(out, k.procs[id].vm)
	}
	return out
}

// Pause implements hv.Hypervisor.
func (k *KVM) Pause(id hv.VMID) error { return k.setPaused(id, true) }

// Resume implements hv.Hypervisor.
func (k *KVM) Resume(id hv.VMID) error { return k.setPaused(id, false) }

func (k *KVM) setPaused(id hv.VMID, paused bool) error {
	if err := k.Barrier(Version, "pause-control"); err != nil {
		return err
	}
	proc, ok := k.procs[id]
	if !ok {
		return fmt.Errorf("kvm: no VM %d", id)
	}
	if proc.vm.Paused() == paused {
		return fmt.Errorf("kvm: VM %d already paused=%v", id, paused)
	}
	proc.vm.SetPaused(paused)
	return nil
}

// SaveUISR implements hv.Hypervisor: kvmtool reads each vCPU's ioctl
// sections and translates them to UISR (the to_uisr path).
func (k *KVM) SaveUISR(id hv.VMID) (*uisr.VMState, error) {
	proc, ok := k.procs[id]
	if !ok {
		return nil, fmt.Errorf("kvm: no VM %d", id)
	}
	if !proc.vm.Paused() {
		return nil, fmt.Errorf("kvm: VM %d must be paused before state save", id)
	}
	st := &uisr.VMState{
		Name:             proc.vm.Config.Name,
		VMID:             uint32(id),
		MemBytes:         proc.vm.Config.MemBytes,
		HugePages:        proc.vm.Config.HugePages,
		SourceHypervisor: "kvm",
		Devices:          append([]uisr.EmulatedDevice(nil), proc.devices...),
	}
	for i, vs := range proc.vcpus {
		v, err := vcpuToUISR(uint32(i), vs)
		if err != nil {
			return nil, fmt.Errorf("kvm: vCPU %d: %w", i, err)
		}
		st.VCPUs = append(st.VCPUs, v)
	}
	st.Weight = uint16(proc.cpuShares / 4)
	ioapicToUISR(&proc.ioapic, &st.IOAPIC)
	st.HasPIT = true // the in-kernel PIT is always present on this stack
	pitToUISR(&proc.pit, &st.PIT)
	st.RTC = uisr.RTC{CMOS: proc.rtc.CMOS, Index: proc.rtc.Index}
	// HasHPET / HasPMTimer stay false: kvmtool has neither.
	return st, nil
}

// PlatformTimersDropped reports whether the §4.2.1 compatibility path
// detached an HPET and/or PM timer when this VM was restored on kvmtool.
func (k *KVM) PlatformTimersDropped(id hv.VMID) (hpet, pmtimer bool, err error) {
	proc, ok := k.procs[id]
	if !ok {
		return false, false, fmt.Errorf("kvm: no VM %d", id)
	}
	return proc.drops.HPET, proc.drops.PMTimer, nil
}

// MemExtents implements hv.Hypervisor.
func (k *KVM) MemExtents(id hv.VMID) ([]uisr.PageExtent, error) {
	proc, ok := k.procs[id]
	if !ok {
		return nil, fmt.Errorf("kvm: no VM %d", id)
	}
	return proc.vm.Space.Extents(), nil
}

// Footprint implements hv.Hypervisor.
func (k *KVM) Footprint(id hv.VMID) (hv.Footprint, error) {
	proc, ok := k.procs[id]
	if !ok {
		return hv.Footprint{}, fmt.Errorf("kvm: no VM %d", id)
	}
	return hv.Footprint{
		GuestBytes:   proc.vm.Space.Bytes(),
		VMStateBytes: hw.CountFrames(proc.stateFrames) * hw.PageSize4K,
		MgmtBytes:    uint64(len(proc.vcpus)*48 + 128), // task structs + vm list entry
	}, nil
}

// EnableDirtyLog implements hv.Hypervisor (KVM_MEM_LOG_DIRTY_PAGES).
func (k *KVM) EnableDirtyLog(id hv.VMID) error {
	if err := k.Barrier(Version, "dirty-log"); err != nil {
		return err
	}
	proc, ok := k.procs[id]
	if !ok {
		return fmt.Errorf("kvm: no VM %d", id)
	}
	proc.vm.Space.EnableDirtyLog()
	return nil
}

// DisableDirtyLog implements hv.Hypervisor.
func (k *KVM) DisableDirtyLog(id hv.VMID) error {
	proc, ok := k.procs[id]
	if !ok {
		return fmt.Errorf("kvm: no VM %d", id)
	}
	proc.vm.Space.DisableDirtyLog()
	return nil
}

// FetchAndClearDirty implements hv.Hypervisor.
func (k *KVM) FetchAndClearDirty(id hv.VMID) ([]hw.GFN, error) {
	proc, ok := k.procs[id]
	if !ok {
		return nil, fmt.Errorf("kvm: no VM %d", id)
	}
	return proc.vm.Space.FetchAndClearDirty(), nil
}

// MgmtStateBytes implements hv.Hypervisor.
func (k *KVM) MgmtStateBytes() uint64 {
	var total uint64
	for _, proc := range k.procs {
		total += uint64(len(proc.vcpus)*48 + 128)
	}
	return total
}

// CPUShares returns the kvmtool process's cgroup cpu.shares (KVM's own
// management-state representation of the neutral UISR weight).
func (k *KVM) CPUShares(id hv.VMID) (int, error) {
	proc, ok := k.procs[id]
	if !ok {
		return 0, fmt.Errorf("kvm: no VM %d", id)
	}
	return proc.cpuShares, nil
}

// Memslots returns the VM's slot table (KVM-specific API for tests).
func (k *KVM) Memslots(id hv.VMID) (int, error) {
	proc, ok := k.procs[id]
	if !ok {
		return 0, fmt.Errorf("kvm: no VM %d", id)
	}
	return len(proc.memslots), nil
}

// IOAPICPinsDropped reports how many IOAPIC pins the §4.2.1 compatibility
// fix disconnected when this VM's state was restored.
func (k *KVM) IOAPICPinsDropped(id hv.VMID) (int, error) {
	proc, ok := k.procs[id]
	if !ok {
		return 0, fmt.Errorf("kvm: no VM %d", id)
	}
	return proc.ioapicPinsDropped, nil
}

// AttachGuest binds a guest stack to a restored VM and rebinds its memory.
func (k *KVM) AttachGuest(id hv.VMID, g *guest.Guest) error {
	if err := k.Barrier(Version, "attach-guest"); err != nil {
		return err
	}
	proc, ok := k.procs[id]
	if !ok {
		return fmt.Errorf("kvm: no VM %d", id)
	}
	proc.vm.Guest = g
	g.Rebind(proc.vm.Space)
	return nil
}
