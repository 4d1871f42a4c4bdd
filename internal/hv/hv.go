// Package hv defines the hypervisor abstraction HyperTP is built against:
// the Hypervisor interface, VM handles, the guest address-space machinery
// (GFN→MFN extents, dirty page tracking), and the Chassis — everything a
// hypervisor model does that is not its state format, written once.
//
// Heterogeneity lives where it matters for the paper: each model
// (internal/hv/xen, kvm, nova) keeps VM_i State in its own format (Xen:
// an HVM context blob of typed save records plus a p2m; KVM: ioctl-shaped
// state sections plus memslots; NOVA: UTCBs plus a DPT), plugged into the
// Chassis as a Format, and only the UISR converters understand more than
// one of them.
package hv

import (
	"fmt"

	"hypertp/internal/guest"
	"hypertp/internal/hw"
	"hypertp/internal/uisr"
)

// Kind identifies a hypervisor family.
type Kind uint8

const (
	// KindXen is the type-I hypervisor model.
	KindXen Kind = iota + 1
	// KindKVM is the type-II hypervisor model.
	KindKVM
	// KindNOVA is the microhypervisor model — the third pool member
	// that gives the transplant policy an escape when a flaw (like
	// VENOM's shared QEMU) hits both mainstream hypervisors at once.
	KindNOVA
)

func (k Kind) String() string {
	switch k {
	case KindXen:
		return "xen"
	case KindKVM:
		return "kvm"
	case KindNOVA:
		return "nova"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// ParseKind is the inverse of Kind.String: the one place a hypervisor
// name (a flag, a vulndb pool member) becomes a Kind.
func ParseKind(name string) (Kind, error) {
	for k := KindXen; k <= KindNOVA; k++ {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("hv: unknown hypervisor %q (want xen, kvm or nova)", name)
}

// VMID identifies a VM within one hypervisor instance (a domid in Xen
// terms, a VM fd in KVM terms).
type VMID int

// Config describes a VM to create.
type Config struct {
	Name     string
	VCPUs    int
	MemBytes uint64
	// HugePages backs the guest with 2 MiB pages (the paper's default).
	HugePages bool
	// Seed makes the VM's synthetic platform state and guest contents
	// deterministic.
	Seed uint64
	// InPlaceCompatible marks the VM as able to undergo InPlaceTP
	// (the §5.4 cluster experiments vary this fraction).
	InPlaceCompatible bool
	// PassthroughDevices lists hardware devices assigned directly to
	// the VM (§4.2.3). Passthrough keeps near-native performance but
	// forbids live migration; InPlaceTP handles it by pausing the
	// device in place (the hardware does not change across the
	// micro-reboot).
	PassthroughDevices []string
	// Weight is the scheduling weight (0 means the 256 default). It is
	// carried through UISR so every hypervisor can rebuild its own
	// scheduler structures from it after a transplant.
	Weight int
}

// Validate checks a Config for structural errors.
func (c *Config) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("hv: VM config has no name")
	}
	if c.VCPUs < 1 || c.VCPUs > uisr.MaxVCPUs {
		return fmt.Errorf("hv: VM %q: VCPUs = %d, want 1 to %d", c.Name, c.VCPUs, uisr.MaxVCPUs)
	}
	if c.MemBytes == 0 || c.MemBytes%hw.PageSize4K != 0 {
		return fmt.Errorf("hv: VM %q: MemBytes = %d not page aligned", c.Name, c.MemBytes)
	}
	if c.HugePages && c.MemBytes%hw.PageSize2M != 0 {
		return fmt.Errorf("hv: VM %q: MemBytes = %d not 2M aligned with huge pages", c.Name, c.MemBytes)
	}
	return nil
}

// VM is the hypervisor-independent view of one running virtual machine.
type VM struct {
	ID     VMID
	Config Config
	Guest  *guest.Guest
	Space  *AddressSpace

	paused bool
}

// Paused reports whether the VM's vCPUs are stopped; Hypervisor.Pause and
// Resume flip it.
func (v *VM) Paused() bool { return v.paused }

// Footprint is the memory-separation census of one VM (Fig. 2): how many
// bytes of each category its presence accounts for.
type Footprint struct {
	GuestBytes   uint64 // Guest State (stays in place)
	VMStateBytes uint64 // VM_i State (translated via UISR)
	MgmtBytes    uint64 // VM Management State (rebuilt)
}

// RestoreMode selects how a VM's guest memory is attached on the restore
// side of a transplant.
type RestoreMode uint8

const (
	// RestoreAdopt re-adopts guest frames in place using the saved
	// memory map (InPlaceTP via PRAM).
	RestoreAdopt RestoreMode = iota + 1
	// RestoreAllocate allocates fresh frames; contents arrive via the
	// migration stream (MigrationTP).
	RestoreAllocate
)

// RestoreOptions parameterizes Hypervisor.RestoreUISR.
type RestoreOptions struct {
	Mode RestoreMode
	// InPlaceCompatible is carried over from the source VM config.
	InPlaceCompatible bool
}

// Hypervisor is a HyperTP-compliant hypervisor: normal VM lifecycle plus
// the UISR save/restore hooks of §3.1 (the to_uisr_xxx / from_uisr_xxx
// families) and the memory-map export PRAM construction needs.
type Hypervisor interface {
	Kind() Kind
	// Name is the full version label, e.g. "xen-4.12.1".
	Name() string
	Machine() *hw.Machine

	CreateVM(cfg Config) (*VM, error)
	DestroyVM(id VMID) error
	LookupVM(id VMID) (*VM, bool)
	// VMs is a snapshot of the VM table, ordered by id, for callers that
	// create or destroy VMs while they walk it.
	VMs() []*VM
	VMCount() int
	// EachVM calls visit for every VM in id order until it returns
	// false; visit must not create or destroy VMs here. It allocates
	// nothing, given a visitor built once: a func literal handed to an
	// interface method is itself heap-allocated.
	EachVM(visit func(*VM) bool)

	Pause(id VMID) error
	Resume(id VMID) error

	// SaveUISR translates the VM's VM_i State from the hypervisor's
	// internal format into UISR (without the memory map; see
	// MemExtents).
	SaveUISR(id VMID) (*uisr.VMState, error)
	// RestoreUISR translates a UISR image into the hypervisor's
	// internal format and instantiates the VM. In RestoreAdopt mode the
	// state's MemMap extents identify the in-place frames to adopt; in
	// RestoreAllocate mode fresh frames are allocated.
	RestoreUISR(st *uisr.VMState, opts RestoreOptions) (*VM, error)

	// MemExtents exports the VM's GFN→MFN map in PRAM extent form.
	MemExtents(id VMID) ([]uisr.PageExtent, error)

	// Footprint reports the VM's memory-separation census.
	Footprint(id VMID) (Footprint, error)

	// Dirty logging, used by the migration pre-copy loop.
	EnableDirtyLog(id VMID) error
	DisableDirtyLog(id VMID) error
	FetchAndClearDirty(id VMID) ([]hw.GFN, error)

	// MgmtStateBytes reports the size of the hypervisor's VM Management
	// State (scheduler queues etc.), which is rebuilt, never translated.
	MgmtStateBytes() uint64

	// AttachGuest binds a guest software stack to a restored VM and
	// rebinds the guest's memory accessor (Fig. 3 ❻).
	AttachGuest(id VMID, g *guest.Guest) error
}

// Crashable is implemented by hypervisors that model fail-stop crashes
// and control-plane hangs (the ReHype failure model the reactive
// recovery path is built on). Crash and Hang freeze every vCPU; the
// guests' memory and the hypervisor's VM_i State structures stay intact
// in place, which is exactly what the emergency transplant salvages.
type Crashable interface {
	// Crash fail-stops the hypervisor. Reports whether this call was the
	// failing one (false when already down: first crash wins).
	Crash(reason string) bool
	// Hang wedges the control plane without fail-stopping: vCPUs freeze
	// but the failure is only observable as missed heartbeats. Recovery
	// must Fence before salvaging.
	Hang(reason string) bool
	// Fence forces a hung hypervisor into the fail-stopped state so its
	// structures can be salvaged. A no-op when already crashed.
	Fence(reason string)
	// Crashed reports whether the hypervisor has fail-stopped.
	Crashed() bool
	// Hung reports whether the hypervisor is wedged but not fenced.
	Hung() bool
	// CrashReason returns the recorded failure cause, "" while healthy.
	CrashReason() string
}

// CrashState is the Crashable bookkeeping of the Chassis, which adds the
// vCPU freeze on top of markCrashed/markHung.
type CrashState struct {
	crashed bool
	hung    bool
	reason  string
}

// markCrashed records the fail-stop. Reports whether this call is the
// first failure (a fence of a hung hypervisor reports false).
func (c *CrashState) markCrashed(reason string) bool {
	if c.crashed {
		return false
	}
	first := !c.hung
	c.crashed = true
	c.hung = false
	if first {
		c.reason = reason
	}
	return first
}

// markHung records the wedge. Reports whether this call is the first
// failure.
func (c *CrashState) markHung(reason string) bool {
	if c.crashed || c.hung {
		return false
	}
	c.hung = true
	c.reason = reason
	return true
}

// Crashed reports whether the hypervisor has fail-stopped.
func (c *CrashState) Crashed() bool { return c.crashed }

// Hung reports whether the hypervisor is wedged but not yet fenced.
func (c *CrashState) Hung() bool { return c.hung }

// CrashReason returns the recorded failure cause, "" while healthy.
func (c *CrashState) CrashReason() string { return c.reason }
