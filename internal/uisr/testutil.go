package uisr

// SyntheticVM builds a fully populated VMState with deterministic
// pseudo-random register contents derived from seed. It is shared by the
// codec tests here and by higher layers that need a realistic UISR fixture
// (e.g. overhead accounting and fuzzing the converters).
func SyntheticVM(name string, vmid uint32, vcpus int, memBytes uint64, seed uint64) *VMState {
	st := splitmix(seed)
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
		s.IOAPIC.Redir[p] = st.next()
	}
	s.HasPIT = true
	for c := range s.PIT.Channels {
		ch := &s.PIT.Channels[c]
		ch.Count = uint32(st.next())
		ch.Latched = uint32(st.next())
		ch.Mode = uint8(st.next() % 6)
		ch.Gate = uint8(st.next() % 2)
	}
	st.fill(s.RTC.CMOS[:])
	s.RTC.Index = uint8(st.next() % 128)
	s.HasHPET = true
	s.HPET = HPET{
		Capability: 0x8086a201, Config: 1,
		ISR: 0, Counter: st.next(),
	}
	for i := range s.HPET.Timers {
		s.HPET.Timers[i] = HPETTimer{Config: st.next() & 0x7f00, Comparator: st.next()}
	}
	s.HasPMTimer = true
	s.PMTimer = PMTimer{Value: uint32(st.next()), BaseNS: st.next()}
	s.Devices = []EmulatedDevice{
		{Kind: "virtio-blk", Model: "synthetic", State: st.bytes(96)},
		{Kind: "virtio-net", Model: "synthetic", UnplugOnTransplant: true},
		{Kind: "serial", Model: "synthetic", State: st.bytes(24)},
	}
	return s
}

// syntheticVCPU populates v, one vCPU of a SyntheticVM, in place.
func syntheticVCPU(v *VCPU, id uint32, st *sm) {
	v.ID = id
	v.Regs = Regs{
		RAX: st.next(), RBX: st.next(), RCX: st.next(), RDX: st.next(),
		RSI: st.next(), RDI: st.next(), RSP: st.next(), RBP: st.next(),
		R8: st.next(), R9: st.next(), R10: st.next(), R11: st.next(),
		R12: st.next(), R13: st.next(), R14: st.next(), R15: st.next(),
		RIP: st.next(), RFLAGS: st.next() | 0x2,
	}
	seg := func() Segment {
		return Segment{
			Selector: uint16(st.next()),
			// Bits 8-11 of the attribute word are reserved in the
			// architectural descriptor layout and carried by
			// neither hypervisor format.
			Attr:  uint16(st.next()) & 0xf0ff,
			Limit: uint32(st.next()),
			Base:  st.next(),
		}
	}
	v.SRegs = SRegs{
		ES: seg(), CS: seg(), SS: seg(), DS: seg(), FS: seg(), GS: seg(),
		TR: seg(), LDT: seg(),
		GDT: DTable{Base: st.next(), Limit: uint16(st.next())},
		IDT: DTable{Base: st.next(), Limit: uint16(st.next())},
		CR0: st.next() | 1, CR2: st.next(), CR3: st.next() &^ 0xfff,
		CR4: st.next(), CR8: st.next() & 0xf,
		EFER: st.next() | (1 << 10), APICBase: 0xfee00000 | (1 << 11),
	}
	v.MSRs = make([]MSR, NumSavedMSRs)
	for m := range v.MSRs {
		v.MSRs[m] = MSR{Index: uint32(0xc0000000 + m), Value: st.next()}
	}
	st.fill(v.FPU.Data[:])
	v.XSave.XCR0 = 0x7
	st.fill(v.XSave.Header[:])
	st.fill(v.XSave.Extended[:])
	v.LAPIC.Base = 0xfee00000 | (1 << 11)
	v.LAPIC.ID = id
	for r := range v.LAPIC.Regs {
		v.LAPIC.Regs[r] = uint32(st.next())
	}
	// The architectural ID register mirrors the ID field (the converters
	// keep the two coherent, so fixtures must too).
	v.LAPIC.Regs[2] = id << 24
	v.MTRR = MTRRState{
		DefType: 6, Cap: 0x508, Enabled: true, FixedEna: true,
	}
	for i := range v.MTRR.Fixed {
		v.MTRR.Fixed[i] = st.next()
	}
	for i := range v.MTRR.VarBase {
		v.MTRR.VarBase[i] = st.next() &^ 0xfff
		v.MTRR.VarMask[i] = st.next() | (1 << 11)
	}
}

// sm is a tiny splitmix64 used only for deterministic fixtures. It is
// duplicated from internal/simtime to keep this package dependency-free.
type sm struct{ s uint64 }

func splitmix(seed uint64) *sm { return &sm{s: seed} }

func (r *sm) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// fill draws out's bytes, eight per step, in place.
func (r *sm) fill(out []byte) {
	for i := 0; i < len(out); i += 8 {
		v := r.next()
		for j := 0; j < 8 && i+j < len(out); j++ {
			out[i+j] = byte(v >> (8 * j))
		}
	}
}

func (r *sm) bytes(n int) []byte {
	out := make([]byte, n)
	r.fill(out)
	return out
}
