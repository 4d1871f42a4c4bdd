// Package nova models a NOVA-style microhypervisor re-engineered for
// HyperTP compliance — the third member of the datacenter's hypervisor
// pool (§3.1: "operators can have several hypervisors in their
// repertoire"). Microhypervisors are the paper's §6 *preventive*
// approach (tiny TCB); combining one with HyperTP gives the policy an
// escape even when a flaw like VENOM's shared QEMU hits both mainstream
// hypervisors at once.
//
// Its internal state format is distinct from both the Xen and KVM models:
//
//   - per-vCPU state lives in fixed 1 KiB UTCB snapshots (the NOVA
//     user-thread-control-block layout: an Mtd field-presence bitmap, a
//     selector-ordered segment array, then registers);
//   - MSRs are kept in an index-sorted array (NOVA's canonical order);
//   - guest memory is tracked by a delegation page table (DPT) of typed
//     capability ranges rather than a p2m or memslots;
//   - the platform is minimal: 24-pin IOAPIC, an RTC passthrough shadow,
//     and *no* 8254 PIT, HPET or ACPI PM timer (paravirtual time), so
//     transplants into NOVA drop those with the documented §4.2.1-style
//     compatibility events and transplants out re-synthesize defaults.
package nova

import (
	"fmt"
	"sort"

	"hypertp/internal/guest"
	"hypertp/internal/hv"
	"hypertp/internal/hw"
	"hypertp/internal/uisr"
)

// HVResidentBytes is the microhypervisor plus its root task: an order of
// magnitude below the monolithic stacks, per its design goal.
const HVResidentBytes = 96 << 20

// Version is the modeled release label.
const Version = "nova-mh-1.0"

// utcb is one vCPU's state snapshot in NOVA's layout. Field groups are
// guarded by the Mtd (message transfer descriptor) bitmap, as in NOVA's
// IPC state transfer.
type utcb struct {
	Mtd uint64 // which field groups are valid

	// Segment array in NOVA's selector order:
	// ES, CS, SS, DS, FS, GS, LDTR, TR — each (sel, ar, limit, base).
	Segs [8]novaSeg

	GPR  [16]uint64 // rax..r15 in architectural encoding order
	RIP  uint64
	RFL  uint64
	CR   [5]uint64 // cr0, cr2, cr3, cr4, cr8
	EFER uint64
	GDTR uisr.DTable
	IDTR uisr.DTable

	FPU   [512]byte
	XCR0  uint64
	XHead [64]byte
	XExt  [504]byte

	APICBase uint64
	LAPIC    [uisr.NumLAPICRegs]uint32

	MTRR uisr.MTRRState

	// MSR array, index-sorted (NOVA's canonical order).
	MSRs []uisr.MSR
}

type novaSeg struct {
	Sel   uint16
	Ar    uint16
	Limit uint32
	Base  uint64
}

// mtd bits for the field groups this model transfers.
const (
	mtdGPR uint64 = 1 << iota
	mtdSegs
	mtdCR
	mtdDT
	mtdFPU
	mtdXSave
	mtdAPIC
	mtdMTRR
	mtdMSRs

	mtdAll = mtdGPR | mtdSegs | mtdCR | mtdDT | mtdFPU | mtdXSave | mtdAPIC | mtdMTRR | mtdMSRs
)

// dptRange is one delegation-page-table entry: a typed capability over a
// guest-physical range.
type dptRange struct {
	GFNBase uint64
	MFNBase uint64
	Order   uint8
	Rights  uint8 // rwx bits; always 7 for guest RAM here
}

// protectionDomain is NOVA's per-VM container.
type protectionDomain struct {
	vm         *hv.VM
	utcbs      []*utcb
	dpt        []dptRange
	ioapic     [uisr.KVMIOAPICPins]uint64 // 24 pins, like KVM
	scPriority int
	rtc        uisr.RTC
	// drops records platform devices detached on the way in.
	drops struct {
		PIT, HPET, PMTimer bool
	}
	ioapicPinsDropped int
	stateFrames       []hw.FrameRange
	devices           []uisr.EmulatedDevice
}

// NOVA is the microhypervisor model.
type NOVA struct {
	hv.CrashState
	machine  *hw.Machine
	pds      map[hv.VMID]*protectionDomain
	nextID   hv.VMID
	hvRanges []hw.FrameRange
	order    []hv.VMID
}

var (
	_ hv.Hypervisor = (*NOVA)(nil)
	_ hv.Crashable  = (*NOVA)(nil)
)

// freezeVCPUs stops every protection domain's vCPUs in place for the
// fail-stop and hang models.
func (n *NOVA) freezeVCPUs() {
	for _, pd := range n.pds {
		pd.vm.SetPaused(true)
	}
}

// Crash implements hv.Crashable.
func (n *NOVA) Crash(reason string) bool {
	first := n.MarkCrashed(reason)
	n.freezeVCPUs()
	return first
}

// Hang implements hv.Crashable.
func (n *NOVA) Hang(reason string) bool {
	first := n.MarkHung(reason)
	n.freezeVCPUs()
	return first
}

// Fence implements hv.Crashable.
func (n *NOVA) Fence(reason string) {
	n.MarkCrashed(reason)
	n.freezeVCPUs()
}

// Boot instantiates the microhypervisor on the machine.
func Boot(m *hw.Machine) (*NOVA, error) {
	ranges, err := m.Mem.AllocRanges(HVResidentBytes/hw.PageSize4K, hw.OwnerHV, -1)
	if err != nil {
		return nil, fmt.Errorf("nova: boot reservation: %w", err)
	}
	return &NOVA{
		machine:  m,
		pds:      make(map[hv.VMID]*protectionDomain),
		nextID:   1,
		hvRanges: ranges,
	}, nil
}

// Kind implements hv.Hypervisor.
func (n *NOVA) Kind() hv.Kind { return hv.KindNOVA }

// Name implements hv.Hypervisor.
func (n *NOVA) Name() string { return Version }

// Machine implements hv.Hypervisor.
func (n *NOVA) Machine() *hw.Machine { return n.machine }

// CreateVM implements hv.Hypervisor.
func (n *NOVA) CreateVM(cfg hv.Config) (*hv.VM, error) {
	if err := n.Barrier(Version, "create"); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	id := n.nextID
	n.nextID++
	st := uisr.SyntheticVM(cfg.Name, uint32(id), cfg.VCPUs, cfg.MemBytes, cfg.Seed)
	if cfg.Weight > 0 {
		st.Weight = uint16(cfg.Weight)
	}
	// A NOVA-born guest has NOVA's platform: 24 pins, no legacy timers.
	st.IOAPIC.NumPins = uisr.KVMIOAPICPins
	st.HasPIT, st.HasHPET, st.HasPMTimer = false, false, false
	return n.instantiate(id, cfg, st, hv.RestoreOptions{Mode: hv.RestoreAllocate,
		InPlaceCompatible: cfg.InPlaceCompatible}, nil, true)
}

// RestoreUISR implements hv.Hypervisor.
func (n *NOVA) RestoreUISR(st *uisr.VMState, opts hv.RestoreOptions) (*hv.VM, error) {
	if err := n.Barrier(Version, "restore"); err != nil {
		return nil, err
	}
	if err := st.Validate(); err != nil {
		return nil, err
	}
	id := n.nextID
	n.nextID++
	cfg := hv.Config{
		Name:              st.Name,
		VCPUs:             len(st.VCPUs),
		MemBytes:          st.MemBytes,
		HugePages:         st.HugePages,
		InPlaceCompatible: opts.InPlaceCompatible,
		Weight:            int(st.Weight),
	}
	vm, err := n.instantiate(id, cfg, st, opts, st.MemMap, false)
	if err != nil {
		return nil, err
	}
	vm.SetPaused(true)
	return vm, nil
}

func (n *NOVA) instantiate(id hv.VMID, cfg hv.Config, st *uisr.VMState,
	opts hv.RestoreOptions, adopt []uisr.PageExtent, fresh bool) (*hv.VM, error) {

	var space *hv.AddressSpace
	var err error
	switch opts.Mode {
	case hv.RestoreAdopt:
		if len(adopt) == 0 {
			return nil, fmt.Errorf("nova: adopt restore without memory map for %q", cfg.Name)
		}
		space, err = hv.NewAddressSpace(n.machine.Mem, adopt)
		if err == nil {
			err = space.Retag(hw.OwnerGuest, int(id))
		}
	case hv.RestoreAllocate:
		space, err = hv.AllocAddressSpace(n.machine.Mem, int(id), cfg.MemBytes, cfg.HugePages)
	default:
		err = fmt.Errorf("nova: unknown restore mode %d", opts.Mode)
	}
	if err != nil {
		return nil, err
	}

	weight := int(st.Weight)
	if weight == 0 {
		weight = uisr.DefaultWeight
	}
	pd := &protectionDomain{devices: append([]uisr.EmulatedDevice(nil), st.Devices...)}
	// Scheduling-context priority, rebuilt from the neutral weight.
	pd.scPriority = weight
	for i := range st.VCPUs {
		pd.utcbs = append(pd.utcbs, utcbFromUISR(&st.VCPUs[i]))
	}
	// IOAPIC: narrow to 24 pins (same fix as the KVM direction).
	pins := int(st.IOAPIC.NumPins)
	if pins > uisr.KVMIOAPICPins {
		pd.ioapicPinsDropped = pins - uisr.KVMIOAPICPins
		pins = uisr.KVMIOAPICPins
	}
	copy(pd.ioapic[:], st.IOAPIC.Redir[:pins])
	pd.rtc = st.RTC
	// NOVA has no legacy timers at all: record every drop.
	pd.drops.PIT = st.HasPIT
	pd.drops.HPET = st.HasHPET
	pd.drops.PMTimer = st.HasPMTimer

	// DPT from the address space extents.
	for _, e := range space.Extents() {
		pd.dpt = append(pd.dpt, dptRange{GFNBase: e.GFN, MFNBase: e.MFN, Order: e.Order, Rights: 7})
	}

	// VM_i State frames: one UTCB page per vCPU + DPT pages.
	stateBytes := len(pd.utcbs)*1024 + len(pd.dpt)*16
	frames := (stateBytes + hw.PageSize4K - 1) / hw.PageSize4K
	if frames == 0 {
		frames = 1
	}
	pd.stateFrames, err = n.machine.Mem.AllocRanges(frames, hw.OwnerVMState, int(id))
	if err != nil {
		// Don't leak the guest space: free fresh allocations, leave
		// adopted PRAM memory intact for the restore retry.
		if opts.Mode == hv.RestoreAllocate {
			_ = space.Release()
		}
		return nil, err
	}

	vm := &hv.VM{ID: id, Config: cfg, Space: space}
	pd.vm = vm
	n.pds[id] = pd
	n.rebuildOrder()

	if fresh {
		drivers := guest.DefaultDrivers()
		for _, name := range cfg.PassthroughDevices {
			drivers = append(drivers, &guest.Driver{Name: name, Class: guest.DevicePassthrough})
		}
		vm.Guest = guest.New(cfg.Name, space, drivers...)
	}
	return vm, nil
}

func (n *NOVA) rebuildOrder() {
	n.order = n.order[:0]
	for id := range n.pds {
		n.order = append(n.order, id)
	}
	sort.Slice(n.order, func(i, j int) bool { return n.order[i] < n.order[j] })
}

// DestroyVM implements hv.Hypervisor.
func (n *NOVA) DestroyVM(id hv.VMID) error {
	if err := n.Barrier(Version, "destroy"); err != nil {
		return err
	}
	pd, ok := n.pds[id]
	if !ok {
		return fmt.Errorf("nova: no protection domain %d", id)
	}
	if err := pd.vm.Space.Release(); err != nil {
		return err
	}
	if err := n.machine.Mem.FreeRanges(pd.stateFrames); err != nil {
		return err
	}
	delete(n.pds, id)
	n.rebuildOrder()
	return nil
}

// ReleaseVMState frees VM_i State, leaving guest memory in place.
func (n *NOVA) ReleaseVMState(id hv.VMID) error {
	pd, ok := n.pds[id]
	if !ok {
		return fmt.Errorf("nova: no protection domain %d", id)
	}
	if err := n.machine.Mem.FreeRanges(pd.stateFrames); err != nil {
		return err
	}
	pd.stateFrames = nil
	delete(n.pds, id)
	n.rebuildOrder()
	return nil
}

// LookupVM implements hv.Hypervisor.
func (n *NOVA) LookupVM(id hv.VMID) (*hv.VM, bool) {
	pd, ok := n.pds[id]
	if !ok {
		return nil, false
	}
	return pd.vm, true
}

// VMs implements hv.Hypervisor.
func (n *NOVA) VMs() []*hv.VM {
	out := make([]*hv.VM, 0, len(n.pds))
	for _, id := range n.order {
		out = append(out, n.pds[id].vm)
	}
	return out
}

// Pause implements hv.Hypervisor.
func (n *NOVA) Pause(id hv.VMID) error { return n.setPaused(id, true) }

// Resume implements hv.Hypervisor.
func (n *NOVA) Resume(id hv.VMID) error { return n.setPaused(id, false) }

func (n *NOVA) setPaused(id hv.VMID, paused bool) error {
	if err := n.Barrier(Version, "pause-control"); err != nil {
		return err
	}
	pd, ok := n.pds[id]
	if !ok {
		return fmt.Errorf("nova: no protection domain %d", id)
	}
	if pd.vm.Paused() == paused {
		return fmt.Errorf("nova: domain %d already paused=%v", id, paused)
	}
	pd.vm.SetPaused(paused)
	return nil
}

// SaveUISR implements hv.Hypervisor.
func (n *NOVA) SaveUISR(id hv.VMID) (*uisr.VMState, error) {
	pd, ok := n.pds[id]
	if !ok {
		return nil, fmt.Errorf("nova: no protection domain %d", id)
	}
	if !pd.vm.Paused() {
		return nil, fmt.Errorf("nova: domain %d must be paused before state save", id)
	}
	st := &uisr.VMState{
		Name:             pd.vm.Config.Name,
		VMID:             uint32(id),
		MemBytes:         pd.vm.Config.MemBytes,
		HugePages:        pd.vm.Config.HugePages,
		SourceHypervisor: "nova",
		Devices:          append([]uisr.EmulatedDevice(nil), pd.devices...),
	}
	for i, u := range pd.utcbs {
		v, err := utcbToUISR(uint32(i), u)
		if err != nil {
			return nil, fmt.Errorf("nova: vCPU %d: %w", i, err)
		}
		st.VCPUs = append(st.VCPUs, v)
	}
	st.Weight = uint16(pd.scPriority)
	st.IOAPIC.NumPins = uisr.KVMIOAPICPins
	copy(st.IOAPIC.Redir[:uisr.KVMIOAPICPins], pd.ioapic[:])
	st.RTC = pd.rtc
	// HasPIT/HasHPET/HasPMTimer stay false: NOVA emulates none of them.
	return st, nil
}

// MemExtents implements hv.Hypervisor (DPT in extent form).
func (n *NOVA) MemExtents(id hv.VMID) ([]uisr.PageExtent, error) {
	pd, ok := n.pds[id]
	if !ok {
		return nil, fmt.Errorf("nova: no protection domain %d", id)
	}
	out := make([]uisr.PageExtent, len(pd.dpt))
	for i, r := range pd.dpt {
		out[i] = uisr.PageExtent{GFN: r.GFNBase, MFN: r.MFNBase, Order: r.Order}
	}
	return out, nil
}

// Footprint implements hv.Hypervisor.
func (n *NOVA) Footprint(id hv.VMID) (hv.Footprint, error) {
	pd, ok := n.pds[id]
	if !ok {
		return hv.Footprint{}, fmt.Errorf("nova: no protection domain %d", id)
	}
	return hv.Footprint{
		GuestBytes:   pd.vm.Space.Bytes(),
		VMStateBytes: hw.CountFrames(pd.stateFrames) * hw.PageSize4K,
		MgmtBytes:    uint64(len(pd.utcbs)*64 + 96), // scheduling contexts + pd entry
	}, nil
}

// EnableDirtyLog implements hv.Hypervisor.
func (n *NOVA) EnableDirtyLog(id hv.VMID) error {
	if err := n.Barrier(Version, "dirty-log"); err != nil {
		return err
	}
	pd, ok := n.pds[id]
	if !ok {
		return fmt.Errorf("nova: no protection domain %d", id)
	}
	pd.vm.Space.EnableDirtyLog()
	return nil
}

// DisableDirtyLog implements hv.Hypervisor.
func (n *NOVA) DisableDirtyLog(id hv.VMID) error {
	pd, ok := n.pds[id]
	if !ok {
		return fmt.Errorf("nova: no protection domain %d", id)
	}
	pd.vm.Space.DisableDirtyLog()
	return nil
}

// FetchAndClearDirty implements hv.Hypervisor.
func (n *NOVA) FetchAndClearDirty(id hv.VMID) ([]hw.GFN, error) {
	pd, ok := n.pds[id]
	if !ok {
		return nil, fmt.Errorf("nova: no protection domain %d", id)
	}
	return pd.vm.Space.FetchAndClearDirty(), nil
}

// MgmtStateBytes implements hv.Hypervisor.
func (n *NOVA) MgmtStateBytes() uint64 {
	var total uint64
	for _, pd := range n.pds {
		total += uint64(len(pd.utcbs)*64 + 96)
	}
	return total
}

// AttachGuest implements hv.Hypervisor.
func (n *NOVA) AttachGuest(id hv.VMID, g *guest.Guest) error {
	if err := n.Barrier(Version, "attach-guest"); err != nil {
		return err
	}
	pd, ok := n.pds[id]
	if !ok {
		return fmt.Errorf("nova: no protection domain %d", id)
	}
	pd.vm.Guest = g
	g.Rebind(pd.vm.Space)
	return nil
}

// SCPriority returns a protection domain's scheduling-context priority
// (NOVA's management-state representation of the neutral UISR weight).
func (n *NOVA) SCPriority(id hv.VMID) (int, error) {
	pd, ok := n.pds[id]
	if !ok {
		return 0, fmt.Errorf("nova: no protection domain %d", id)
	}
	return pd.scPriority, nil
}

// PlatformDrops reports the legacy devices detached when this VM was
// restored onto the microhypervisor.
func (n *NOVA) PlatformDrops(id hv.VMID) (pit, hpet, pmtimer bool, err error) {
	pd, ok := n.pds[id]
	if !ok {
		return false, false, false, fmt.Errorf("nova: no protection domain %d", id)
	}
	return pd.drops.PIT, pd.drops.HPET, pd.drops.PMTimer, nil
}

// --- UISR converters ---------------------------------------------------------

func utcbFromUISR(v *uisr.VCPU) *utcb {
	u := &utcb{Mtd: mtdAll}
	// NOVA's selector order: ES, CS, SS, DS, FS, GS, LDTR, TR.
	segs := []uisr.Segment{v.SRegs.ES, v.SRegs.CS, v.SRegs.SS, v.SRegs.DS,
		v.SRegs.FS, v.SRegs.GS, v.SRegs.LDT, v.SRegs.TR}
	for i, s := range segs {
		u.Segs[i] = novaSeg{Sel: s.Selector, Ar: s.Attr, Limit: s.Limit, Base: s.Base}
	}
	u.GPR = [16]uint64{
		v.Regs.RAX, v.Regs.RCX, v.Regs.RDX, v.Regs.RBX,
		v.Regs.RSP, v.Regs.RBP, v.Regs.RSI, v.Regs.RDI,
		v.Regs.R8, v.Regs.R9, v.Regs.R10, v.Regs.R11,
		v.Regs.R12, v.Regs.R13, v.Regs.R14, v.Regs.R15,
	}
	u.RIP, u.RFL = v.Regs.RIP, v.Regs.RFLAGS
	u.CR = [5]uint64{v.SRegs.CR0, v.SRegs.CR2, v.SRegs.CR3, v.SRegs.CR4, v.SRegs.CR8}
	u.EFER = v.SRegs.EFER
	u.GDTR, u.IDTR = v.SRegs.GDT, v.SRegs.IDT
	u.FPU = v.FPU.Data
	u.XCR0, u.XHead, u.XExt = v.XSave.XCR0, v.XSave.Header, v.XSave.Extended
	u.APICBase = v.LAPIC.Base
	u.LAPIC = v.LAPIC.Regs
	u.MTRR = v.MTRR
	u.MSRs = append([]uisr.MSR(nil), v.MSRs...)
	sort.Slice(u.MSRs, func(i, j int) bool { return u.MSRs[i].Index < u.MSRs[j].Index })
	return u
}

func utcbToUISR(id uint32, u *utcb) (uisr.VCPU, error) {
	if u.Mtd != mtdAll {
		return uisr.VCPU{}, fmt.Errorf("utcb mtd %#x incomplete (want %#x)", u.Mtd, mtdAll)
	}
	v := uisr.VCPU{ID: id}
	seg := func(i int) uisr.Segment {
		s := u.Segs[i]
		return uisr.Segment{Selector: s.Sel, Attr: s.Ar, Limit: s.Limit, Base: s.Base}
	}
	v.SRegs.ES, v.SRegs.CS, v.SRegs.SS, v.SRegs.DS = seg(0), seg(1), seg(2), seg(3)
	v.SRegs.FS, v.SRegs.GS, v.SRegs.LDT, v.SRegs.TR = seg(4), seg(5), seg(6), seg(7)
	v.Regs = uisr.Regs{
		RAX: u.GPR[0], RCX: u.GPR[1], RDX: u.GPR[2], RBX: u.GPR[3],
		RSP: u.GPR[4], RBP: u.GPR[5], RSI: u.GPR[6], RDI: u.GPR[7],
		R8: u.GPR[8], R9: u.GPR[9], R10: u.GPR[10], R11: u.GPR[11],
		R12: u.GPR[12], R13: u.GPR[13], R14: u.GPR[14], R15: u.GPR[15],
		RIP: u.RIP, RFLAGS: u.RFL,
	}
	v.SRegs.CR0, v.SRegs.CR2, v.SRegs.CR3, v.SRegs.CR4, v.SRegs.CR8 =
		u.CR[0], u.CR[1], u.CR[2], u.CR[3], u.CR[4]
	v.SRegs.EFER = u.EFER
	v.SRegs.GDT, v.SRegs.IDT = u.GDTR, u.IDTR
	v.SRegs.APICBase = u.APICBase
	v.FPU.Data = u.FPU
	v.XSave.XCR0, v.XSave.Header, v.XSave.Extended = u.XCR0, u.XHead, u.XExt
	v.LAPIC.Base = u.APICBase
	v.LAPIC.Regs = u.LAPIC
	v.LAPIC.ID = u.LAPIC[2] >> 24
	v.MTRR = u.MTRR
	v.MSRs = append([]uisr.MSR(nil), u.MSRs...)
	return v, nil
}
