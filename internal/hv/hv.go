// Package hv defines the hypervisor HyperTP is built against: the
// Chassis — everything a hypervisor model does that is not its state
// format, written once — plus VM handles and the guest address-space
// machinery (GFN→MFN extents, dirty page tracking).
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

// Paused reports whether the VM's vCPUs are stopped; Chassis.Pause and
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

// RestoreOptions parameterizes Chassis.RestoreUISR.
type RestoreOptions struct {
	Mode RestoreMode
	// InPlaceCompatible is carried over from the source VM config.
	InPlaceCompatible bool
	// Translation, when non-nil, is kept for restores of this state over
	// this memory map (RestoreAdopt): what it holds is placed, not built.
	Translation *Translation
}

// Hypervisor is a HyperTP-compliant hypervisor: the Chassis over one
// model's Format. Every model is a Chassis, so the name is an alias.
type Hypervisor = *Chassis
