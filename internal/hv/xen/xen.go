package xen

import (
	"hypertp/internal/hv"
	"hypertp/internal/hw"
	"hypertp/internal/uisr"
)

// HVResidentBytes is the memory the Xen hypervisor plus dom0 pin at boot
// (Xen heap, dom0 kernel and userspace). It is HV State in the Fig. 2
// taxonomy: wiped and rebuilt by every micro-reboot.
const HVResidentBytes = 192 << 20

// Version is the modeled Xen release (the paper's testbed).
const Version = "xen-4.12.1"

// domain is Xen's per-VM bookkeeping: the VM_i State in Fig. 2 terms.
type domain struct {
	// ctx is the domain's platform state as Xen holds it, parsed: the
	// context it was born with, never written after. Its HVM context
	// blob — the byte contract — is what the first frames hold.
	ctx *domainContext
	// p2m is the superpage-aware physical-map metadata (extent form).
	p2m uisr.MemMap
	// frames hold the context blob, then the p2m structures
	// (OwnerVMState), so the memory census (Fig. 2) and PRAM wipe
	// semantics are real.
	frames []hw.FrameRange
	// eventChannels is the domain's event channel port table.
	eventChannels []evtchn
	// weight is the credit-scheduler weight (VM Management State).
	weight int
}

type evtchn struct {
	Port   int
	Kind   string // "virq", "interdomain"
	Target int
}

// Boot instantiates Xen, the type-I hypervisor model, on the machine,
// reserving its HV State resident set. It must be called on a machine
// whose previous hypervisor state was wiped (fresh boot or post-kexec).
func Boot(m *hw.Machine) (hv.Hypervisor, error) {
	return hv.NewChassis(m, format{})
}

// format is Xen's hv.Format: an HVM context blob plus a p2m per domain.
type format struct{}

func (format) Kind() hv.Kind         { return hv.KindXen }
func (format) Version() string       { return Version }
func (format) ResidentBytes() uint64 { return HVResidentBytes }

func (format) NativeBorn(st *uisr.VMState) { st.IOAPIC.NumPins = uisr.XenIOAPICPins }

// FromUISR builds the domain: UISR → HVM context (with the §4.2.1
// IOAPIC widening fix applied as needed) over the p2m of mm.
func (format) FromUISR(st *uisr.VMState, mm uisr.MemMap) (hv.State, error) {
	ctx, err := fromUISR(st)
	if err != nil {
		return nil, err
	}
	dom := &domain{
		ctx: ctx,
		p2m: mm,
		// The credit-scheduler weight: VM Management State rebuilt from
		// the neutral value.
		weight: st.SchedWeight(),
	}
	// Event channels: store ports for console, xenstore and one per-vCPU
	// timer (re-created, Xen-specific).
	dom.eventChannels = append(make([]evtchn, 0, 2+len(st.VCPUs)),
		evtchn{Port: 1, Kind: "interdomain", Target: 0}, evtchn{Port: 2, Kind: "interdomain", Target: 0})
	for i := range st.VCPUs {
		dom.eventChannels = append(dom.eventChannels, evtchn{Port: 3 + i, Kind: "virq", Target: i})
	}
	return dom, nil
}

// Layout is the context blob's frames, then the p2m's — one 8-byte entry
// per extent in Xen's table — and the blob is what they hold.
func (dom *domain) Layout() (frames, size int) {
	size = contextSize(dom.ctx)
	return hv.FramesFor(size) + hv.FramesFor(dom.p2m.Len()*8), size
}

// Fill marshals the context straight into the domain's frames.
func (dom *domain) Fill(b []byte) { putContext(b, dom.ctx) }

func (dom *domain) Place(frames []hw.FrameRange, shared bool) hv.State {
	if shared {
		cp := *dom
		dom = &cp
	}
	dom.frames = frames
	return dom
}

func (dom *domain) Frames() []hw.FrameRange { return dom.frames }

// ToUISR is the to_uisr path, translating the domain's context to UISR.
// Xen holds the context parsed, and nothing writes it after birth, so
// the save reads it as it is: there is no blob to parse back.
func (dom *domain) ToUISR() (*uisr.VMState, error) {
	st, err := toUISR(dom.ctx)
	if err != nil {
		return nil, err
	}
	st.Weight = uint16(dom.weight)
	return st, nil
}

// MgmtBytes counts the runq entry and the evtchn table.
func (dom *domain) MgmtBytes() uint64 { return uint64(len(dom.eventChannels)*32 + 64) }

// EventChannels returns the port table of a domain (Xen-specific API,
// used in tests to check the rebuilt management state).
func EventChannels(h hv.Hypervisor, id hv.VMID) ([]int, error) {
	dom, err := hv.StateOf[*domain](h, id)
	if err != nil {
		return nil, err
	}
	ports := make([]int, len(dom.eventChannels))
	for i, e := range dom.eventChannels {
		ports[i] = e.Port
	}
	return ports, nil
}

// ContextBlob returns the domain's raw HVM context (the Xen-internal
// format) as its frames hold it, for format-level tests.
func ContextBlob(h hv.Hypervisor, id hv.VMID) ([]byte, error) {
	dom, err := hv.StateOf[*domain](h, id)
	if err != nil {
		return nil, err
	}
	image, err := h.Machine().Mem.ReadRanges(dom.frames, nil)
	if err != nil {
		return nil, err
	}
	return image[:contextSize(dom.ctx)], nil
}

// CreditWeight returns a domain's credit-scheduler weight (Xen's own
// management-state representation of the neutral UISR weight).
func CreditWeight(h hv.Hypervisor, id hv.VMID) (int, error) {
	dom, err := hv.StateOf[*domain](h, id)
	if err != nil {
		return 0, err
	}
	return dom.weight, nil
}

// RunQueue returns the credit scheduler's queue: VM Management State,
// rebuilt from the domain set, never translated.
func RunQueue(h hv.Hypervisor) []hv.VMID {
	q := make([]hv.VMID, 0, h.VMCount())
	h.EachVM(func(vm *hv.VM) bool {
		q = append(q, vm.ID)
		return true
	})
	return q
}
