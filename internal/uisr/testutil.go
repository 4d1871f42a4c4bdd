package uisr

import "hypertp/internal/simtime"

// SyntheticVM builds a fully populated VMState with deterministic
// pseudo-random register contents derived from seed. It is shared by the
// codec tests here and by higher layers that need a realistic UISR fixture
// (e.g. overhead accounting and fuzzing the converters).
func SyntheticVM(name string, vmid uint32, vcpus int, memBytes uint64, seed uint64) *VMState {
	st := simtime.NewRand(seed)
	s := &VMState{
		Name:             name,
		VMID:             vmid,
		MemBytes:         memBytes,
		HugePages:        true,
		SourceHypervisor: "synthetic",
		Weight:           DefaultWeight,
	}
	s.VCPUs = make([]VCPU, vcpus)
	for i := range s.VCPUs {
		syntheticVCPU(&s.VCPUs[i], uint32(i), st)
	}
	s.IOAPIC = IOAPIC{ID: 0, NumPins: XenIOAPICPins}
	for p := range s.IOAPIC.Redir {
		s.IOAPIC.Redir[p] = st.Uint64()
	}
	s.HasPIT = true
	for c := range s.PIT.Channels {
		ch := &s.PIT.Channels[c]
		ch.Count = uint32(st.Uint64())
		ch.Latched = uint32(st.Uint64())
		ch.Mode = uint8(st.Uint64() % 6)
		ch.Gate = uint8(st.Uint64() % 2)
	}
	fill(st, s.RTC.CMOS[:])
	s.RTC.Index = uint8(st.Uint64() % 128)
	s.HasHPET = true
	s.HPET = HPET{
		Capability: 0x8086a201, Config: 1,
		ISR: 0, Counter: st.Uint64(),
	}
	for i := range s.HPET.Timers {
		s.HPET.Timers[i] = HPETTimer{Config: st.Uint64() & 0x7f00, Comparator: st.Uint64()}
	}
	s.HasPMTimer = true
	s.PMTimer = PMTimer{Value: uint32(st.Uint64()), BaseNS: st.Uint64()}
	s.Devices = []EmulatedDevice{
		{Kind: "virtio-blk", Model: "synthetic", State: randBytes(st, 96)},
		{Kind: "virtio-net", Model: "synthetic", UnplugOnTransplant: true},
		{Kind: "serial", Model: "synthetic", State: randBytes(st, 24)},
	}
	return s
}

// syntheticVCPU populates v, one vCPU of a SyntheticVM, in place.
func syntheticVCPU(v *VCPU, id uint32, st *simtime.Rand) {
	v.ID = id
	v.Regs = Regs{
		RAX: st.Uint64(), RBX: st.Uint64(), RCX: st.Uint64(), RDX: st.Uint64(),
		RSI: st.Uint64(), RDI: st.Uint64(), RSP: st.Uint64(), RBP: st.Uint64(),
		R8: st.Uint64(), R9: st.Uint64(), R10: st.Uint64(), R11: st.Uint64(),
		R12: st.Uint64(), R13: st.Uint64(), R14: st.Uint64(), R15: st.Uint64(),
		RIP: st.Uint64(), RFLAGS: st.Uint64() | 0x2,
	}
	seg := func() Segment {
		return Segment{
			Selector: uint16(st.Uint64()),
			// Bits 8-11 of the attribute word are reserved in the
			// architectural descriptor layout and carried by
			// neither hypervisor format.
			Attr:  uint16(st.Uint64()) & 0xf0ff,
			Limit: uint32(st.Uint64()),
			Base:  st.Uint64(),
		}
	}
	v.SRegs = SRegs{
		ES: seg(), CS: seg(), SS: seg(), DS: seg(), FS: seg(), GS: seg(),
		TR: seg(), LDT: seg(),
		GDT: DTable{Base: st.Uint64(), Limit: uint16(st.Uint64())},
		IDT: DTable{Base: st.Uint64(), Limit: uint16(st.Uint64())},
		CR0: st.Uint64() | 1, CR2: st.Uint64(), CR3: st.Uint64() &^ 0xfff,
		CR4: st.Uint64(), CR8: st.Uint64() & 0xf,
		EFER: st.Uint64() | (1 << 10), APICBase: 0xfee00000 | (1 << 11),
	}
	v.MSRs = make([]MSR, NumSavedMSRs)
	for m := range v.MSRs {
		v.MSRs[m] = MSR{Index: uint32(0xc0000000 + m), Value: st.Uint64()}
	}
	fill(st, v.FPU.Data[:])
	v.XSave.XCR0 = 0x7
	fill(st, v.XSave.Header[:])
	fill(st, v.XSave.Extended[:])
	v.LAPIC.Base = 0xfee00000 | (1 << 11)
	v.LAPIC.ID = id
	for r := range v.LAPIC.Regs {
		v.LAPIC.Regs[r] = uint32(st.Uint64())
	}
	// The architectural ID register mirrors the ID field (the converters
	// keep the two coherent, so fixtures must too).
	v.LAPIC.Regs[2] = id << 24
	v.MTRR = MTRRState{
		DefType: 6, Cap: 0x508, Enabled: true, FixedEna: true,
	}
	for i := range v.MTRR.Fixed {
		v.MTRR.Fixed[i] = st.Uint64()
	}
	for i := range v.MTRR.VarBase {
		v.MTRR.VarBase[i] = st.Uint64() &^ 0xfff
		v.MTRR.VarMask[i] = st.Uint64() | (1 << 11)
	}
}

// fill draws out's bytes from r, eight per step, in place.
func fill(r *simtime.Rand, out []byte) {
	for i := 0; i < len(out); i += 8 {
		v := r.Uint64()
		for j := 0; j < 8 && i+j < len(out); j++ {
			out[i+j] = byte(v >> (8 * j))
		}
	}
}

func randBytes(r *simtime.Rand, n int) []byte {
	out := make([]byte, n)
	fill(r, out)
	return out
}
