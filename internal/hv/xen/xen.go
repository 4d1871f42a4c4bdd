package xen

import (
	"fmt"
	"sort"

	"hypertp/internal/guest"
	"hypertp/internal/hv"
	"hypertp/internal/hw"
	"hypertp/internal/uisr"
)

// HVResidentBytes is the memory the Xen hypervisor plus dom0 pin at boot
// (Xen heap, dom0 kernel and userspace). It is HV State in the Fig. 2
// taxonomy: wiped and rebuilt by every micro-reboot.
const HVResidentBytes = 192 << 20

// domain is Xen's per-VM bookkeeping: the VM_i State in Fig. 2 terms.
type domain struct {
	vm *hv.VM
	// ctxBlob is the domain's platform state in Xen's HVM context
	// format. This — not any neutral struct — is Xen's source of truth.
	ctxBlob []byte
	// p2m is the superpage-aware physical-map metadata (extent form).
	p2m []uisr.PageExtent
	// p2mFrames hold the p2m structures themselves (OwnerVMState).
	p2mFrames []hw.FrameRange
	// ctxFrames hold the context blob (OwnerVMState).
	ctxFrames []hw.FrameRange
	// eventChannels is the domain's event channel port table.
	eventChannels []evtchn
	// devices are the emulation-state snapshots of the domain's
	// device models (QEMU/demu side).
	devices []uisr.EmulatedDevice
	// weight is the credit-scheduler weight (VM Management State).
	weight int
}

type evtchn struct {
	Port   int
	Kind   string // "virq", "interdomain"
	Target int
}

// Xen is the type-I hypervisor model.
type Xen struct {
	hv.CrashState
	machine  *hw.Machine
	domains  map[hv.VMID]*domain
	nextID   hv.VMID
	hvRanges []hw.FrameRange
	// runq is the credit scheduler's run queue: VM Management State,
	// rebuilt from VM_i State after transplant, never translated.
	runq []hv.VMID
	gen  int
}

// Version is the modeled Xen release (the paper's testbed).
const Version = "xen-4.12.1"

var (
	_ hv.Hypervisor = (*Xen)(nil)
	_ hv.Crashable  = (*Xen)(nil)
)

// Boot instantiates Xen on the machine, reserving its HV State resident
// set. It must be called on a machine whose previous hypervisor state was
// wiped (fresh boot or post-kexec).
func Boot(m *hw.Machine) (*Xen, error) {
	ranges, err := m.Mem.AllocRanges(HVResidentBytes/hw.PageSize4K, hw.OwnerHV, -1)
	if err != nil {
		return nil, fmt.Errorf("xen: boot reservation: %w", err)
	}
	return &Xen{
		machine:  m,
		domains:  make(map[hv.VMID]*domain),
		nextID:   1, // dom0 is the host; guests start at domid 1
		hvRanges: ranges,
		gen:      m.Generation(),
	}, nil
}

// Kind implements hv.Hypervisor.
func (x *Xen) Kind() hv.Kind { return hv.KindXen }

// Name implements hv.Hypervisor.
func (x *Xen) Name() string { return Version }

// Machine implements hv.Hypervisor.
func (x *Xen) Machine() *hw.Machine { return x.machine }

// freezeVCPUs stops every domain's vCPUs in place — the fail-stop and
// hang models both leave the guests exactly where the scheduler dropped
// them, which is what makes pause-less salvage capture possible.
func (x *Xen) freezeVCPUs() {
	for _, dom := range x.domains {
		dom.vm.SetPaused(true)
	}
}

// Crash implements hv.Crashable: Xen fail-stops and every domain's
// vCPUs freeze with guest memory and VM_i State intact.
func (x *Xen) Crash(reason string) bool {
	first := x.MarkCrashed(reason)
	x.freezeVCPUs()
	return first
}

// Hang implements hv.Crashable: the toolstack wedges; vCPUs freeze but
// only missed heartbeats reveal it.
func (x *Xen) Hang(reason string) bool {
	first := x.MarkHung(reason)
	x.freezeVCPUs()
	return first
}

// Fence implements hv.Crashable.
func (x *Xen) Fence(reason string) {
	x.MarkCrashed(reason)
	x.freezeVCPUs()
}

// CreateVM implements hv.Hypervisor: it builds a new HVM domain with
// synthetic-but-deterministic platform state (standing in for a booted
// guest), allocates its guest memory, and installs its VM_i State.
func (x *Xen) CreateVM(cfg hv.Config) (*hv.VM, error) {
	if err := x.Barrier(Version, "create"); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	id := x.nextID
	x.nextID++

	// Synthesize the running guest's platform state in neutral form,
	// then convert it into Xen's own format — CreateVM exercises the
	// from_uisr path, transplant exercises to_uisr.
	st := uisr.SyntheticVM(cfg.Name, uint32(id), cfg.VCPUs, cfg.MemBytes, cfg.Seed)
	st.IOAPIC.NumPins = uisr.XenIOAPICPins
	if cfg.Weight > 0 {
		st.Weight = uint16(cfg.Weight)
	}
	return x.instantiate(id, cfg, st, hv.RestoreOptions{Mode: hv.RestoreAllocate,
		InPlaceCompatible: cfg.InPlaceCompatible}, nil, true)
}

// RestoreUISR implements hv.Hypervisor (the InPlaceTP / MigrationTP
// restore side).
func (x *Xen) RestoreUISR(st *uisr.VMState, opts hv.RestoreOptions) (*hv.VM, error) {
	if err := x.Barrier(Version, "restore"); err != nil {
		return nil, err
	}
	if err := st.Validate(); err != nil {
		return nil, err
	}
	id := x.nextID
	x.nextID++
	cfg := hv.Config{
		Name:              st.Name,
		VCPUs:             len(st.VCPUs),
		MemBytes:          st.MemBytes,
		HugePages:         st.HugePages,
		InPlaceCompatible: opts.InPlaceCompatible,
		Weight:            int(st.Weight),
	}
	vm, err := x.instantiate(id, cfg, st, opts, st.MemMap, false)
	if err != nil {
		return nil, err
	}
	// Restored VMs come back paused; the engine resumes them at the
	// end of the workflow (Fig. 3 step 7).
	vm.SetPaused(true)
	return vm, nil
}

// instantiate is the shared create/restore path. fresh marks a brand-new
// VM (CreateVM) that gets its own guest software stack attached.
func (x *Xen) instantiate(id hv.VMID, cfg hv.Config, st *uisr.VMState,
	opts hv.RestoreOptions, adopt []uisr.PageExtent, fresh bool) (*hv.VM, error) {

	// 1. Guest memory: adopt in place or allocate fresh.
	var space *hv.AddressSpace
	var err error
	switch opts.Mode {
	case hv.RestoreAdopt:
		if len(adopt) == 0 {
			return nil, fmt.Errorf("xen: adopt restore without memory map for %q", cfg.Name)
		}
		space, err = hv.NewAddressSpace(x.machine.Mem, adopt)
		if err == nil {
			err = space.Retag(hw.OwnerGuest, int(id))
		}
	case hv.RestoreAllocate:
		space, err = hv.AllocAddressSpace(x.machine.Mem, int(id), cfg.MemBytes, cfg.HugePages)
	default:
		err = fmt.Errorf("xen: unknown restore mode %d", opts.Mode)
	}
	if err != nil {
		return nil, err
	}
	// From here on the space (and any VM_i State frames already
	// allocated) must not leak on failure. Freshly allocated guest
	// memory is released; adopted memory keeps its PRAM-preserved
	// contents and guest tag so the engine's restore retry can adopt
	// it again.
	undoSpace := func() {
		if opts.Mode == hv.RestoreAllocate {
			_ = space.Release()
		}
	}

	// 2. Platform state: UISR → Xen HVM context blob (from_uisr path),
	// with the §4.2.1 IOAPIC widening fix applied as needed.
	ctx, err := fromUISR(st)
	if err != nil {
		undoSpace()
		return nil, err
	}
	blob := marshalContext(ctx)

	weight := int(st.Weight)
	if weight == 0 {
		weight = uisr.DefaultWeight
	}
	dom := &domain{
		p2m:     space.Extents(),
		ctxBlob: blob,
		devices: append([]uisr.EmulatedDevice(nil), st.Devices...),
		// The credit-scheduler weight: VM Management State rebuilt from
		// the neutral value.
		weight: weight,
	}
	// 3. VM_i State frames: the context blob and the p2m structures
	// live in hypervisor memory tagged OwnerVMState, so the memory
	// census (Fig. 2) and PRAM wipe semantics are real.
	dom.ctxFrames, err = x.writeToFrames(blob, int(id))
	if err != nil {
		undoSpace()
		return nil, err
	}
	p2mBytes := len(dom.p2m) * 8 // one 8-byte entry per extent in Xen's table
	dom.p2mFrames, err = x.machine.Mem.AllocRanges(framesFor(p2mBytes), hw.OwnerVMState, int(id))
	if err != nil {
		_ = x.machine.Mem.FreeRanges(dom.ctxFrames)
		undoSpace()
		return nil, err
	}
	// 4. Event channels: store ports for console, xenstore and one
	// per-vCPU timer (re-created, Xen-specific).
	dom.eventChannels = []evtchn{{Port: 1, Kind: "interdomain", Target: 0}, {Port: 2, Kind: "interdomain", Target: 0}}
	for i := 0; i < cfg.VCPUs; i++ {
		dom.eventChannels = append(dom.eventChannels, evtchn{Port: 3 + i, Kind: "virq", Target: i})
	}

	vm := &hv.VM{ID: id, Config: cfg, Space: space}
	vm.Config.Name = cfg.Name
	dom.vm = vm
	x.domains[id] = dom
	x.rebuildRunq()

	if fresh {
		drivers := guest.DefaultDrivers()
		for _, name := range cfg.PassthroughDevices {
			drivers = append(drivers, &guest.Driver{Name: name, Class: guest.DevicePassthrough})
		}
		vm.Guest = guest.New(cfg.Name, space, drivers...)
	}
	return vm, nil
}

// writeToFrames stores blob into freshly allocated VM_i State frames.
func (x *Xen) writeToFrames(blob []byte, vmid int) ([]hw.FrameRange, error) {
	frames, err := x.machine.Mem.AllocRanges(framesFor(len(blob)), hw.OwnerVMState, vmid)
	if err != nil {
		return nil, err
	}
	if err := x.machine.Mem.WriteRanges(frames, blob); err != nil {
		_ = x.machine.Mem.FreeRanges(frames)
		return nil, err
	}
	return frames, nil
}

func framesFor(n int) int {
	if n == 0 {
		return 1
	}
	return (n + hw.PageSize4K - 1) / hw.PageSize4K
}

// rebuildRunq reconstructs the credit scheduler queue from the domain set
// — the paper's point that VM Management State is rebuilt from VM_i
// State, never translated.
func (x *Xen) rebuildRunq() {
	x.runq = x.runq[:0]
	for id := range x.domains {
		x.runq = append(x.runq, id)
	}
	sort.Slice(x.runq, func(i, j int) bool { return x.runq[i] < x.runq[j] })
}

// DestroyVM implements hv.Hypervisor.
func (x *Xen) DestroyVM(id hv.VMID) error {
	if err := x.Barrier(Version, "destroy"); err != nil {
		return err
	}
	dom, ok := x.domains[id]
	if !ok {
		return fmt.Errorf("xen: no domain %d", id)
	}
	if err := dom.vm.Space.Release(); err != nil {
		return err
	}
	for _, frames := range [][]hw.FrameRange{dom.ctxFrames, dom.p2mFrames} {
		if err := x.machine.Mem.FreeRanges(frames); err != nil {
			return err
		}
	}
	delete(x.domains, id)
	x.rebuildRunq()
	return nil
}

// ReleaseVMState frees only the VM_i State frames of a domain, leaving
// guest memory in place — the InPlaceTP source-side teardown before
// micro-reboot.
func (x *Xen) ReleaseVMState(id hv.VMID) error {
	dom, ok := x.domains[id]
	if !ok {
		return fmt.Errorf("xen: no domain %d", id)
	}
	for _, frames := range [][]hw.FrameRange{dom.ctxFrames, dom.p2mFrames} {
		if err := x.machine.Mem.FreeRanges(frames); err != nil {
			return err
		}
	}
	dom.ctxFrames, dom.p2mFrames = nil, nil
	delete(x.domains, id)
	x.rebuildRunq()
	return nil
}

// LookupVM implements hv.Hypervisor.
func (x *Xen) LookupVM(id hv.VMID) (*hv.VM, bool) {
	dom, ok := x.domains[id]
	if !ok {
		return nil, false
	}
	return dom.vm, true
}

// VMs implements hv.Hypervisor, ordered by id.
func (x *Xen) VMs() []*hv.VM {
	out := make([]*hv.VM, 0, len(x.domains))
	for _, id := range x.runq {
		out = append(out, x.domains[id].vm)
	}
	return out
}

// Pause implements hv.Hypervisor.
func (x *Xen) Pause(id hv.VMID) error { return x.setPaused(id, true) }

// Resume implements hv.Hypervisor.
func (x *Xen) Resume(id hv.VMID) error { return x.setPaused(id, false) }

func (x *Xen) setPaused(id hv.VMID, paused bool) error {
	if err := x.Barrier(Version, "pause-control"); err != nil {
		return err
	}
	dom, ok := x.domains[id]
	if !ok {
		return fmt.Errorf("xen: no domain %d", id)
	}
	if dom.vm.Paused() == paused {
		return fmt.Errorf("xen: domain %d already paused=%v", id, paused)
	}
	dom.vm.SetPaused(paused)
	return nil
}

// SaveUISR implements hv.Hypervisor: the to_uisr path, reading the
// domain's context blob (as xc_domain_hvm_getcontext would) and
// translating it to UISR.
func (x *Xen) SaveUISR(id hv.VMID) (*uisr.VMState, error) {
	dom, ok := x.domains[id]
	if !ok {
		return nil, fmt.Errorf("xen: no domain %d", id)
	}
	if !dom.vm.Paused() {
		return nil, fmt.Errorf("xen: domain %d must be paused before state save", id)
	}
	ctx, err := parseContext(dom.ctxBlob)
	if err != nil {
		return nil, fmt.Errorf("xen: domain %d context: %w", id, err)
	}
	st, err := toUISR(ctx)
	if err != nil {
		return nil, err
	}
	st.Name = dom.vm.Config.Name
	st.VMID = uint32(id)
	st.MemBytes = dom.vm.Config.MemBytes
	st.HugePages = dom.vm.Config.HugePages
	st.Devices = append([]uisr.EmulatedDevice(nil), dom.devices...)
	st.Weight = uint16(dom.weight)
	return st, nil
}

// MemExtents implements hv.Hypervisor.
func (x *Xen) MemExtents(id hv.VMID) ([]uisr.PageExtent, error) {
	dom, ok := x.domains[id]
	if !ok {
		return nil, fmt.Errorf("xen: no domain %d", id)
	}
	return dom.p2m, nil
}

// Footprint implements hv.Hypervisor.
func (x *Xen) Footprint(id hv.VMID) (hv.Footprint, error) {
	dom, ok := x.domains[id]
	if !ok {
		return hv.Footprint{}, fmt.Errorf("xen: no domain %d", id)
	}
	return hv.Footprint{
		GuestBytes:   dom.vm.Space.Bytes(),
		VMStateBytes: (hw.CountFrames(dom.ctxFrames) + hw.CountFrames(dom.p2mFrames)) * hw.PageSize4K,
		MgmtBytes:    uint64(len(dom.eventChannels)*32 + 64), // runq entry + evtchn table
	}, nil
}

// EnableDirtyLog implements hv.Hypervisor (logdirty mode).
func (x *Xen) EnableDirtyLog(id hv.VMID) error {
	if err := x.Barrier(Version, "dirty-log"); err != nil {
		return err
	}
	dom, ok := x.domains[id]
	if !ok {
		return fmt.Errorf("xen: no domain %d", id)
	}
	dom.vm.Space.EnableDirtyLog()
	return nil
}

// DisableDirtyLog implements hv.Hypervisor.
func (x *Xen) DisableDirtyLog(id hv.VMID) error {
	dom, ok := x.domains[id]
	if !ok {
		return fmt.Errorf("xen: no domain %d", id)
	}
	dom.vm.Space.DisableDirtyLog()
	return nil
}

// FetchAndClearDirty implements hv.Hypervisor.
func (x *Xen) FetchAndClearDirty(id hv.VMID) ([]hw.GFN, error) {
	dom, ok := x.domains[id]
	if !ok {
		return nil, fmt.Errorf("xen: no domain %d", id)
	}
	return dom.vm.Space.FetchAndClearDirty(), nil
}

// MgmtStateBytes implements hv.Hypervisor.
func (x *Xen) MgmtStateBytes() uint64 {
	var total uint64
	for _, dom := range x.domains {
		total += uint64(len(dom.eventChannels)*32 + 64)
	}
	return total
}

// EventChannels returns the port table of a domain (Xen-specific API,
// used in tests to check the rebuilt management state).
func (x *Xen) EventChannels(id hv.VMID) ([]int, error) {
	dom, ok := x.domains[id]
	if !ok {
		return nil, fmt.Errorf("xen: no domain %d", id)
	}
	ports := make([]int, len(dom.eventChannels))
	for i, e := range dom.eventChannels {
		ports[i] = e.Port
	}
	return ports, nil
}

// ContextBlob returns a copy of the domain's raw HVM context (the
// Xen-internal format), for format-level tests.
func (x *Xen) ContextBlob(id hv.VMID) ([]byte, error) {
	dom, ok := x.domains[id]
	if !ok {
		return nil, fmt.Errorf("xen: no domain %d", id)
	}
	return append([]byte(nil), dom.ctxBlob...), nil
}

// CreditWeight returns a domain's credit-scheduler weight (Xen's own
// management-state representation of the neutral UISR weight).
func (x *Xen) CreditWeight(id hv.VMID) (int, error) {
	dom, ok := x.domains[id]
	if !ok {
		return 0, fmt.Errorf("xen: no domain %d", id)
	}
	return dom.weight, nil
}

// RunQueue returns the credit scheduler's queue (VM Management State).
func (x *Xen) RunQueue() []hv.VMID { return append([]hv.VMID(nil), x.runq...) }

// AttachGuest binds a guest stack to a restored VM and rebinds its memory.
func (x *Xen) AttachGuest(id hv.VMID, g *guest.Guest) error {
	if err := x.Barrier(Version, "attach-guest"); err != nil {
		return err
	}
	dom, ok := x.domains[id]
	if !ok {
		return fmt.Errorf("xen: no domain %d", id)
	}
	dom.vm.Guest = g
	g.Rebind(dom.vm.Space)
	return nil
}
