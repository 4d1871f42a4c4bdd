// Package uisr implements the Unified Intermediate State Representation of
// the paper (§3.1): a hypervisor-independent description of a VM's
// VM_i State — everything needed to restore the VM under any HyperTP
// compliant hypervisor. It plays the role XDR plays for network data:
// each hypervisor only has to understand this one format, not every other
// hypervisor's internals.
//
// The package defines the neutral in-memory structures, a versioned binary
// codec (TLV sections, little-endian), and size accounting used by the
// memory-overhead evaluation (Fig. 14). Converters from/to Xen and KVM
// internal formats live with the respective hypervisor models
// (internal/hv/xen, internal/hv/kvm), mirroring the paper's rule that
// save/restore functions are written by each hypervisor's experts.
package uisr

import "fmt"

// Format constants.
const (
	// Magic identifies a UISR blob ("UISR" little-endian).
	Magic = 0x52534955
	// Version is the current format version.
	Version = 1
)

// MaxVCPUs bounds a VM's vCPU count (Validate, hence Encode and Decode;
// hv.Config) — Xen's HVM_MAX_VCPUS, the widest of the three hypervisors.
const MaxVCPUs = 128

// NumSavedMSRs is the number of model-specific registers captured per
// vCPU. The set covers the union of what Xen's HVM context and KVM's
// KVM_GET_MSRS exchange for a transplantable guest.
const NumSavedMSRs = 160

// NumLAPICRegs is the number of 32-bit architectural LAPIC registers
// captured per vCPU (one per 16-byte stride of the 4 KiB APIC page that is
// architecturally defined).
const NumLAPICRegs = 64

// MaxIOAPICPins is the neutral redirection-table size. Xen implements a
// 48-pin virtual IOAPIC; KVM implements 24 pins. UISR carries up to 48 and
// the KVM restore path applies the paper's §4.2.1 compatibility fix
// (disconnecting pins ≥ 24).
const (
	MaxIOAPICPins = 48
	XenIOAPICPins = 48
	KVMIOAPICPins = 24
)

// Regs is the general-purpose register file of one vCPU.
type Regs struct {
	RAX, RBX, RCX, RDX uint64
	RSI, RDI, RSP, RBP uint64
	R8, R9, R10, R11   uint64
	R12, R13, R14, R15 uint64
	RIP, RFLAGS        uint64
}

// Segment is one segment register in its descriptor-cache form.
type Segment struct {
	Selector uint16
	Attr     uint16
	Limit    uint32
	Base     uint64
}

// DTable is a descriptor-table register (GDTR/IDTR).
type DTable struct {
	Base  uint64
	Limit uint16
}

// SRegs is the system-register state of one vCPU.
type SRegs struct {
	ES, CS, SS, DS, FS, GS, TR, LDT Segment
	GDT, IDT                        DTable
	CR0, CR2, CR3, CR4, CR8         uint64
	EFER, APICBase                  uint64
}

// MSR is one model-specific register entry.
type MSR struct {
	Index uint32
	Value uint64
}

// FPU is the legacy FXSAVE region of one vCPU.
type FPU struct {
	// Data is the 512-byte FXSAVE image.
	Data [512]byte
}

// XSave is the extended state of one vCPU beyond the FXSAVE region.
type XSave struct {
	// XCR0 is extended control register 0 (enabled feature bits).
	XCR0 uint64
	// Header is the 64-byte XSAVE header.
	Header [64]byte
	// Extended is the saved extended region (AVX state in this model).
	Extended [504]byte
}

// LAPIC is one vCPU's local APIC state in the neutral form. Xen stores the
// APIC base and version inside MSR-like records while KVM exposes the full
// register page; UISR carries both views explicitly (Table 2's LAPIC and
// LAPIC_REGS rows).
type LAPIC struct {
	// Base is the IA32_APIC_BASE MSR (holds enable bit and base
	// address).
	Base uint64
	// ID is the APIC id.
	ID uint32
	// Regs are the architectural registers (TPR, LDR, DFR, SVR, ISR,
	// TMR, IRR, LVT entries, timer registers, ...), one 32-bit value per
	// 16-byte stride.
	Regs [NumLAPICRegs]uint32
}

// MTRRState is one vCPU's memory-type-range-register state.
type MTRRState struct {
	DefType  uint64
	Fixed    [11]uint64
	VarBase  [8]uint64
	VarMask  [8]uint64
	Cap      uint64
	Enabled  bool
	FixedEna bool
}

// VCPU is the complete neutral state of one virtual CPU.
type VCPU struct {
	ID    uint32
	Regs  Regs
	SRegs SRegs
	MSRs  []MSR
	FPU   FPU
	XSave XSave
	LAPIC LAPIC
	MTRR  MTRRState
}

// IOAPIC is the VM-wide IO-APIC state.
type IOAPIC struct {
	ID      uint32
	NumPins uint32
	// Redir holds the redirection table entries; only the first NumPins
	// are meaningful.
	Redir [MaxIOAPICPins]uint64
}

// PITChannel is one channel of the 8254 timer.
type PITChannel struct {
	Count     uint32
	Latched   uint32
	Mode      uint8
	BCD       uint8
	Gate      uint8
	OutHigh   uint8
	CountLoad uint64 // virtual time the count was loaded, ns
}

// PIT is the VM-wide programmable interval timer state.
type PIT struct {
	Channels [3]PITChannel
	Speaker  uint8
}

// RTC is the MC146818 real-time clock state (CMOS image plus the index
// port latch). Both hypervisors emulate it, in different layouts.
type RTC struct {
	CMOS  [128]byte
	Index uint8
}

// HPETTimer is one HPET comparator.
type HPETTimer struct {
	Config     uint64
	Comparator uint64
	FSBRoute   uint64
}

// HPET is the high-precision event timer state. Xen's HVM platform
// emulates an HPET; kvmtool does not, so transplanting Xen→KVM drops it
// after notifying the guest (a §4.2.1-style device compatibility fix) and
// KVM→Xen synthesizes a disabled one.
type HPET struct {
	Capability uint64
	Config     uint64
	ISR        uint64
	Counter    uint64
	Timers     [3]HPETTimer
}

// PMTimer is the ACPI power-management timer. Present on Xen's platform,
// absent from kvmtool; handled like HPET.
type PMTimer struct {
	Value  uint32
	BaseNS uint64
}

// PageExtent describes one run of guest-physical memory backed by one
// machine-physical run: the payload of a PRAM page entry (Fig. 4). Order
// is the power-of-two size in base pages (0 → 4 KiB, 9 → 2 MiB), matching
// the paper's "size (in power-of-2 number of pages)".
type PageExtent struct {
	GFN   uint64
	MFN   uint64
	Order uint8
}

// Pages returns the number of 4 KiB pages the extent covers.
func (e PageExtent) Pages() uint64 { return 1 << e.Order }

// EmulatedDevice is the neutral emulation state of one emulated platform
// device (§4.2.3): the VMM on the target side reconstructs its device
// model from this.
type EmulatedDevice struct {
	Kind  string // e.g. "virtio-net", "virtio-blk", "serial"
	Model string // emulation backend that produced the state
	State []byte // opaque device-model snapshot
	// UnplugOnTransplant marks devices (typically NICs) handled by the
	// unplug-and-rescan strategy instead of state translation.
	UnplugOnTransplant bool
}

// VMState is the complete UISR image of one VM's VM_i State, plus the
// memory map needed to re-adopt its Guest State. Guest memory contents are
// NOT part of UISR (they are hypervisor-independent and stay in place or
// are copied by the migration stream).
type VMState struct {
	Name     string
	VMID     uint32
	MemBytes uint64
	// HugePages records whether the guest is backed by 2 MiB pages.
	HugePages bool
	VCPUs     []VCPU
	IOAPIC    IOAPIC
	// HasPIT marks whether the source emulates the 8254 timer. Xen and
	// KVM both do; microhypervisors with paravirtual time may not.
	HasPIT bool
	PIT    PIT
	RTC    RTC
	// HasHPET / HasPMTimer mark platform timers the source hypervisor
	// actually emulates; a target without them applies a documented
	// compatibility drop.
	HasHPET    bool
	HPET       HPET
	HasPMTimer bool
	PMTimer    PMTimer
	// MemMap is the guest-physical → machine-physical map at save time.
	// For InPlaceTP it mirrors the PRAM file contents; for MigrationTP
	// it is omitted from the wire format (pages are re-placed on the
	// destination).
	MemMap MemMap
	// Devices holds emulated device snapshots.
	Devices []EmulatedDevice
	// SourceHypervisor records the producing side, for diagnostics.
	SourceHypervisor string
	// Weight is the VM's neutral scheduling weight (256 = default). It
	// is VM_i State from which each hypervisor *rebuilds* its own
	// management structures (Xen credit weight, host-Linux shares, NOVA
	// scheduling-context priority) — the Fig. 2 rule that VM Management
	// State is reconstructed, never translated.
	Weight uint16
}

// DefaultWeight is the neutral scheduling weight of an unconfigured VM
// (matching Xen's credit-scheduler default).
const DefaultWeight = 256

// SchedWeight is Weight with the unset value read as DefaultWeight: what
// a hypervisor rebuilds its scheduler structures from.
func (s *VMState) SchedWeight() int {
	if s.Weight == 0 {
		return DefaultWeight
	}
	return int(s.Weight)
}

// Validate performs structural sanity checks that both producers
// (to_uisr_*) and consumers (from_uisr_*) rely on.
func (s *VMState) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("uisr: VM has no name")
	}
	if n := len(s.VCPUs); n < 1 || n > MaxVCPUs {
		return fmt.Errorf("uisr: VM %q has %d vCPUs, want 1 to %d", s.Name, n, MaxVCPUs)
	}
	if s.MemBytes == 0 {
		return fmt.Errorf("uisr: VM %q has zero memory", s.Name)
	}
	for i, v := range s.VCPUs {
		if v.ID != uint32(i) {
			return fmt.Errorf("uisr: VM %q vCPU %d has id %d", s.Name, i, v.ID)
		}
	}
	if s.IOAPIC.NumPins > MaxIOAPICPins {
		return fmt.Errorf("uisr: VM %q IOAPIC has %d pins > max %d",
			s.Name, s.IOAPIC.NumPins, MaxIOAPICPins)
	}
	if i := s.MemMap.WideOrder(); i >= 0 {
		return fmt.Errorf("uisr: VM %q memmap extent %d has order %d, want below 64", s.Name, i, s.MemMap.Extents()[i].Order)
	}
	if covered := s.MemMap.Pages() * 4096; s.MemMap.Len() > 0 && covered != s.MemBytes {
		return fmt.Errorf("uisr: VM %q memmap covers %d bytes, MemBytes is %d",
			s.Name, covered, s.MemBytes)
	}
	return nil
}
