package hv

import (
	"cmp"
	"fmt"
	"slices"

	"hypertp/internal/guest"
	"hypertp/internal/hterr"
	"hypertp/internal/hw"
	"hypertp/internal/uisr"
)

// Format is the one thing the hypervisor models differ in (§3.1, §4.2):
// how VM_i State is held. Everything else a hypervisor does — the VM
// table, lifecycle, guest-memory attach, pause, dirty log, crash model,
// and placing the state in frames — is the Chassis, written once. Each
// model package implements Format on an unexported type, so none of this
// reaches its public method set.
type Format interface {
	Kind() Kind
	// Version is the full release label, e.g. "xen-4.12.1".
	Version() string
	// ResidentBytes is the HV State the hypervisor pins at boot (Fig. 2):
	// wiped and rebuilt by every micro-reboot.
	ResidentBytes() uint64
	// NativeBorn turns a synthetic guest's platform into the one a guest
	// booted on this hypervisor has (IOAPIC width, which timers exist).
	NativeBorn(st *uisr.VMState)
	// FromUISR is the from_uisr family's translation: st, over the guest
	// memory map mm, in the hypervisor's own per-VM format. It is pure —
	// no frame allocated, no slice of st kept — so one State may back
	// every VM restored from st over mm; the Chassis places it.
	FromUISR(st *uisr.VMState, mm uisr.MemMap) (State, error)
}

// State is one VM's VM_i State in its hypervisor's own format. What
// FromUISR translated is never written after; Place binds it to frames.
type State interface {
	// ToUISR is the to_uisr family: platform state, scheduling weight
	// and SourceHypervisor. The Chassis fills in identity, memory size
	// and devices.
	ToUISR() (*uisr.VMState, error)
	// Layout is how many OwnerVMState frames the state occupies, and how
	// many bytes at their start it keeps there (0: the frames stay
	// unwritten).
	Layout() (frames, size int)
	// Fill writes those size bytes into b.
	Fill(b []byte)
	// Place returns the state placed in frames: the state itself, or,
	// when shared (kept for other restores), a copy sharing its slices.
	Place(frames []hw.FrameRange, shared bool) State
	// Frames are the OwnerVMState frames the state is placed in.
	Frames() []hw.FrameRange
	// MgmtBytes sizes the VM Management State (scheduler entries etc.)
	// this VM accounts for: rebuilt, never translated.
	MgmtBytes() uint64
}

// Translation keeps a from_uisr result for restores of one state over one
// memory map: State, Pages, the capture of the frames its bytes were
// first filled into, which later placements install by reference, and
// Runs, the map's frames as coalesced runs, which later adoptions retag.
// A restore given one sets what it lacks; its owner releases Pages.
type Translation struct {
	State State
	Pages hw.Pages
	Runs  []hw.FrameRange
}

// FramesFor is the number of 4 KiB frames a format needs to hold n bytes
// of VM_i State: at least one.
func FramesFor(n int) int {
	return max(1, (n+hw.PageSize4K-1)/hw.PageSize4K)
}

// slot is one row of the VM table.
type slot struct {
	vm    *VM
	state State
	// devices are the emulation-state snapshots of the VM's device
	// models; every format carries them through opaquely.
	devices []uisr.EmulatedDevice
}

// Chassis is a hypervisor: normal VM lifecycle plus the UISR save/restore
// hooks of §3.1 (the to_uisr_xxx / from_uisr_xxx families), the
// memory-map export PRAM construction needs, and the crash model. The
// models differ only in the Format they boot it with.
//
// The crash model is ReHype's: a fail-stop or a control-plane hang
// freezes every vCPU, and the guests' memory and the VM_i State
// structures stay intact in place, which is exactly what the emergency
// transplant salvages. Control-plane operations pass the crash barrier;
// salvage reads (SaveUISR, MemExtents, LookupVM, ReleaseVMState,
// DisableDirtyLog, FetchAndClearDirty) do not — reading the frozen
// structures of a downed hypervisor is what emergency recovery does.
type Chassis struct {
	crashed, hung bool
	reason        string // the first failure's cause
	format        Format
	machine       *hw.Machine
	// nextID only grows, so appending to table keeps it ordered by id.
	nextID VMID
	table  []slot
}

// NewChassis boots a hypervisor of format f on the machine, reserving its
// resident set. The machine's previous hypervisor state must have been
// wiped (fresh boot or post-kexec).
func NewChassis(m *hw.Machine, f Format) (*Chassis, error) {
	if _, err := m.Mem.AllocRanges(int(f.ResidentBytes()/hw.PageSize4K), hw.OwnerHV, -1); err != nil {
		return nil, fmt.Errorf("%s: boot reservation: %w", f.Kind(), err)
	}
	// Id 0 is the host (dom0 in Xen terms); guests start at 1.
	return &Chassis{format: f, machine: m, nextID: 1}, nil
}

// Kind is the hypervisor family.
func (c *Chassis) Kind() Kind { return c.format.Kind() }

// Name is the full version label, e.g. "xen-4.12.1".
func (c *Chassis) Name() string { return c.format.Version() }

// Machine is the host the hypervisor runs on.
func (c *Chassis) Machine() *hw.Machine { return c.machine }

// freezeVCPUs stops every VM's vCPUs in place — the fail-stop and hang
// models both leave the guests exactly where the scheduler dropped them,
// which is what makes pause-less salvage capture possible.
func (c *Chassis) freezeVCPUs() {
	for _, s := range c.table {
		s.vm.paused = true
	}
}

// Crash fail-stops the hypervisor: every VM's vCPUs freeze with guest
// memory and VM_i State intact. Reports whether this call was the failing
// one (false when already down, or fencing a hang: first failure wins).
func (c *Chassis) Crash(reason string) bool {
	first := !c.crashed && !c.hung
	if first {
		c.reason = reason
	}
	c.crashed, c.hung = true, false
	c.freezeVCPUs()
	return first
}

// Hang wedges the control plane without fail-stopping: vCPUs freeze but
// the failure is only observable as missed heartbeats. Recovery must
// Fence before salvaging. Reports whether this call was the failing one.
func (c *Chassis) Hang(reason string) bool {
	first := !c.crashed && !c.hung
	if first {
		c.hung, c.reason = true, reason
	}
	c.freezeVCPUs()
	return first
}

// Fence forces a hung hypervisor into the fail-stopped state so its
// structures can be salvaged. A no-op when already crashed.
func (c *Chassis) Fence(reason string) { c.Crash(reason) }

// Crashed reports whether the hypervisor has fail-stopped.
func (c *Chassis) Crashed() bool { return c.crashed }

// Hung reports whether the hypervisor is wedged but not yet fenced.
func (c *Chassis) Hung() bool { return c.hung }

// CrashReason returns the recorded failure cause, "" while healthy.
func (c *Chassis) CrashReason() string { return c.reason }

// guard is the crash barrier of control-plane operation op: it fails with
// an ErrHypervisorCrashed-classified error while the hypervisor is down.
func (c *Chassis) guard(op string) error {
	if !c.crashed && !c.hung {
		return nil
	}
	state := "crashed"
	if c.hung { // a fence clears hung, so the two never hold together
		state = "hung"
	}
	return hterr.HypervisorCrashed(fmt.Errorf("%s: %s: hypervisor %s: %s", c.format.Version(), op, state, c.reason))
}

// find locates a VM's row in the id-ordered table.
func (c *Chassis) find(id VMID) (int, bool) {
	return slices.BinarySearchFunc(c.table, id, func(s slot, id VMID) int { return cmp.Compare(s.vm.ID, id) })
}

// lookup is find for the callers to which an unknown id is an error.
func (c *Chassis) lookup(id VMID) (*slot, error) {
	i, ok := c.find(id)
	if !ok {
		return nil, fmt.Errorf("%s: no VM %d", c.format.Kind(), id)
	}
	return &c.table[i], nil
}

// StateOf returns a VM's State as its format's own type, for the models'
// format-specific accessors. It fails when the VM is unknown or c runs
// another format.
func StateOf[T State](c *Chassis, id VMID) (T, error) {
	var zero T
	s, err := c.lookup(id)
	if err != nil {
		return zero, err
	}
	st, ok := s.state.(T)
	if !ok {
		return zero, fmt.Errorf("%s: VM %d holds no %T", c.format.Kind(), id, zero)
	}
	return st, nil
}

// CreateVM creates a VM with synthetic-but-deterministic platform state
// (standing in for a booted guest) and its own guest software stack. The state is synthesized in neutral form and
// handed to the format — CreateVM exercises from_uisr, transplant
// exercises to_uisr.
func (c *Chassis) CreateVM(cfg Config) (*VM, error) {
	if err := c.guard("create"); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	id := c.takeID()
	st := uisr.SyntheticVM(cfg.Name, uint32(id), cfg.VCPUs, cfg.MemBytes, cfg.Seed)
	c.format.NativeBorn(st)
	if cfg.Weight > 0 {
		st.Weight = uint16(cfg.Weight)
	}
	vm, err := c.instantiate(id, cfg, st, RestoreAllocate, nil)
	if err != nil {
		return nil, err
	}
	vm.Guest = guest.New(cfg.Name, vm.Space, guest.DefaultDrivers(cfg.PassthroughDevices...)...)
	return vm, nil
}

// RestoreUISR translates a UISR image into the format's own state and
// instantiates the VM (the InPlaceTP / MigrationTP restore side). In
// RestoreAdopt mode the state's MemMap extents identify the in-place
// frames to adopt; in RestoreAllocate mode fresh frames are allocated.
// Restored VMs come back paused; the engine resumes them at the end of
// the workflow (Fig. 3 step 7).
func (c *Chassis) RestoreUISR(st *uisr.VMState, opts RestoreOptions) (*VM, error) {
	if err := c.guard("restore"); err != nil {
		return nil, err
	}
	if err := st.Validate(); err != nil {
		return nil, err
	}
	cfg := Config{
		Name:              st.Name,
		VCPUs:             len(st.VCPUs),
		MemBytes:          st.MemBytes,
		HugePages:         st.HugePages,
		InPlaceCompatible: opts.InPlaceCompatible,
		Weight:            int(st.Weight),
	}
	vm, err := c.instantiate(c.takeID(), cfg, st, opts.Mode, opts.Translation)
	if err != nil {
		return nil, err
	}
	vm.paused = true
	return vm, nil
}

// takeID consumes the next VM id. Callers take it once the request is
// validated and before anything can fail on memory, so a failed
// instantiate still uses its id up.
func (c *Chassis) takeID() VMID {
	id := c.nextID
	c.nextID++
	return id
}

// instantiate is the shared create/restore path: guest memory first, then
// the format's VM_i State frames (frame placement is part of every
// digest). A non-nil tr keeps the translation across restores (place).
func (c *Chassis) instantiate(id VMID, cfg Config, st *uisr.VMState, mode RestoreMode, tr *Translation) (*VM, error) {
	mem, kind := c.machine.Mem, c.format.Kind()
	var space *AddressSpace
	var err error
	switch mode {
	case RestoreAdopt:
		// InPlaceTP: re-adopt the PRAM-preserved frames where they lie.
		if st.MemMap.Len() == 0 {
			return nil, fmt.Errorf("%s: adopt restore without memory map for %q", kind, cfg.Name)
		}
		space, err = NewAddressSpace(mem, st.MemMap)
		if err == nil {
			err = space.Retag(hw.OwnerGuest, int(id), tr)
		}
	case RestoreAllocate:
		space, err = AllocAddressSpace(mem, int(id), cfg.MemBytes, cfg.HugePages)
	default:
		err = fmt.Errorf("%s: unknown restore mode %d", kind, mode)
	}
	if err != nil {
		return nil, err
	}
	state, err := c.place(st, id, space.Extents(), tr)
	if err != nil {
		// Freshly allocated guest memory is released; adopted memory
		// keeps its preserved contents and guest tag so the engine's
		// restore retry can adopt it again.
		if mode == RestoreAllocate {
			_ = space.Release()
		}
		return nil, err
	}
	vm := &VM{ID: id, Config: cfg, Space: space}
	c.table = append(c.table, slot{vm: vm, state: state,
		devices: append([]uisr.EmulatedDevice(nil), st.Devices...)})
	return vm, nil
}

// place runs from_uisr's two halves: the format's translation of st over
// mm, unless tr holds it, then its placement — the state's OwnerVMState
// frames claimed for id at once, in the format's order and count, and its
// bytes filled, or installed from tr's capture. On error it holds no frame.
func (c *Chassis) place(st *uisr.VMState, id VMID, mm uisr.MemMap, tr *Translation) (State, error) {
	var state State
	if tr != nil {
		state = tr.State
	}
	if state == nil {
		var err error
		if state, err = c.format.FromUISR(st, mm); err != nil {
			return nil, err
		}
	}
	mem := c.machine.Mem
	n, size := state.Layout()
	frames, err := mem.AllocRanges(n, hw.OwnerVMState, int(id))
	if err != nil {
		return nil, err
	}
	if size > 0 && (tr == nil || mem.InstallPages(frames, tr.Pages) != nil) {
		if err := mem.FillRanges(frames, size, state.Fill); err != nil {
			_ = mem.FreeRanges(frames)
			return nil, err
		}
		if tr != nil {
			tr.Pages.Release()
			tr.Pages, _ = mem.SharePages(frames)
		}
	}
	if tr != nil {
		tr.State = state
	}
	return state.Place(frames, tr != nil), nil
}

// DestroyVM releases a VM's guest memory and VM_i State.
func (c *Chassis) DestroyVM(id VMID) error {
	if err := c.guard("destroy"); err != nil {
		return err
	}
	s, err := c.lookup(id)
	if err != nil {
		return err
	}
	if err := s.vm.Space.Release(); err != nil {
		return err
	}
	return c.ReleaseVMState(id)
}

// ReleaseVMState frees only the VM_i State frames of a VM and drops it
// from the table, leaving guest memory in place — the InPlaceTP
// source-side teardown before micro-reboot.
func (c *Chassis) ReleaseVMState(id VMID) error {
	s, err := c.lookup(id)
	if err != nil {
		return err
	}
	if err := c.machine.Mem.FreeRanges(s.state.Frames()); err != nil {
		return err
	}
	i, _ := c.find(id)
	c.table = slices.Delete(c.table, i, i+1)
	return nil
}

// LookupVM finds a VM by id.
func (c *Chassis) LookupVM(id VMID) (*VM, bool) {
	i, ok := c.find(id)
	if !ok {
		return nil, false
	}
	return c.table[i].vm, true
}

// VMs is a snapshot of the VM table, ordered by id, for callers that
// create or destroy VMs while they walk it.
func (c *Chassis) VMs() []*VM {
	out := make([]*VM, len(c.table))
	for i, s := range c.table {
		out[i] = s.vm
	}
	return out
}

// VMCount is the number of VMs.
func (c *Chassis) VMCount() int { return len(c.table) }

// EachVM calls visit for every VM in id order until it returns false;
// visit must not create or destroy VMs here.
func (c *Chassis) EachVM(visit func(*VM) bool) {
	for i := range c.table {
		if !visit(c.table[i].vm) {
			return
		}
	}
}

// Pause stops a VM's vCPUs.
func (c *Chassis) Pause(id VMID) error { return c.setPaused(id, true) }

// Resume restarts a paused VM's vCPUs.
func (c *Chassis) Resume(id VMID) error { return c.setPaused(id, false) }

func (c *Chassis) setPaused(id VMID, paused bool) error {
	if err := c.guard("pause-control"); err != nil {
		return err
	}
	s, err := c.lookup(id)
	if err != nil {
		return err
	}
	if s.vm.paused == paused {
		return fmt.Errorf("%s: VM %d already paused=%v", c.format.Kind(), id, paused)
	}
	s.vm.paused = paused
	return nil
}

// SaveUISR translates a paused VM's VM_i State from the format into UISR,
// without the memory map (see MemExtents).
func (c *Chassis) SaveUISR(id VMID) (*uisr.VMState, error) {
	s, err := c.lookup(id)
	if err != nil {
		return nil, err
	}
	if !s.vm.paused {
		return nil, fmt.Errorf("%s: VM %d must be paused before state save", c.format.Kind(), id)
	}
	st, err := s.state.ToUISR()
	if err != nil {
		return nil, err
	}
	st.Name = s.vm.Config.Name
	st.VMID = uint32(id)
	st.MemBytes = s.vm.Config.MemBytes
	st.HugePages = s.vm.Config.HugePages
	st.Devices = append([]uisr.EmulatedDevice(nil), s.devices...)
	return st, nil
}

// MemExtents exports the VM's GFN→MFN map in PRAM extent form.
func (c *Chassis) MemExtents(id VMID) (uisr.MemMap, error) {
	s, err := c.lookup(id)
	if err != nil {
		return uisr.MemMap{}, err
	}
	return s.vm.Space.Extents(), nil
}

// Footprint reports the VM's memory-separation census.
func (c *Chassis) Footprint(id VMID) (Footprint, error) {
	s, err := c.lookup(id)
	if err != nil {
		return Footprint{}, err
	}
	return Footprint{
		GuestBytes:   s.vm.Space.Bytes(),
		VMStateBytes: hw.CountFrames(s.state.Frames()) * hw.PageSize4K,
		MgmtBytes:    s.state.MgmtBytes(),
	}, nil
}

// EnableDirtyLog starts dirty logging, for the migration pre-copy loop.
func (c *Chassis) EnableDirtyLog(id VMID) error {
	if err := c.guard("dirty-log"); err != nil {
		return err
	}
	s, err := c.lookup(id)
	if err != nil {
		return err
	}
	s.vm.Space.EnableDirtyLog()
	return nil
}

// DisableDirtyLog stops dirty logging.
func (c *Chassis) DisableDirtyLog(id VMID) error {
	s, err := c.lookup(id)
	if err != nil {
		return err
	}
	s.vm.Space.DisableDirtyLog()
	return nil
}

// FetchAndClearDirty returns and resets the pages dirtied since the last call.
func (c *Chassis) FetchAndClearDirty(id VMID) ([]hw.GFN, error) {
	s, err := c.lookup(id)
	if err != nil {
		return nil, err
	}
	return s.vm.Space.FetchAndClearDirty(), nil
}

// MgmtStateBytes reports the size of the VM Management State (scheduler
// queues etc.), which is rebuilt, never translated.
func (c *Chassis) MgmtStateBytes() uint64 {
	var total uint64
	for _, s := range c.table {
		total += s.state.MgmtBytes()
	}
	return total
}

// AttachGuest binds a guest software stack to a restored VM and rebinds
// the guest's memory accessor (Fig. 3 ❻).
func (c *Chassis) AttachGuest(id VMID, g *guest.Guest) error {
	if err := c.guard("attach-guest"); err != nil {
		return err
	}
	s, err := c.lookup(id)
	if err != nil {
		return err
	}
	s.vm.Guest = g
	g.Rebind(s.vm.Space)
	return nil
}
