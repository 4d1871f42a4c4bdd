package checkpoint

import (
	"testing"

	"hypertp/internal/hv"
	"hypertp/internal/hv/kvm"
	"hypertp/internal/hv/xen"
	"hypertp/internal/hw"
	"hypertp/internal/simtime"
)

func newXenWithVM(t *testing.T) (hv.Hypervisor, *hv.VM) {
	t.Helper()
	clock := simtime.NewClock()
	x, err := xen.Boot(hw.NewMachine(clock, hw.M1()))
	if err != nil {
		t.Fatal(err)
	}
	vm, err := x.CreateVM(hv.Config{
		Name: "ckpt", VCPUs: 2, MemBytes: 64 << 20, HugePages: true,
		Seed: 19, InPlaceCompatible: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Guest.WriteWorkingSet(0, 120); err != nil {
		t.Fatal(err)
	}
	return x, vm
}

func TestSaveRequiresPause(t *testing.T) {
	x, vm := newXenWithVM(t)
	if _, err := Save(x, vm.ID); err == nil {
		t.Fatal("save of running VM accepted")
	}
	if _, err := Save(x, 99); err == nil {
		t.Fatal("unknown VM accepted")
	}
}

func TestSaveRestoreSameHypervisorKind(t *testing.T) {
	x, vm := newXenWithVM(t)
	g := vm.Guest
	sumBefore, _ := vm.Space.ChecksumAll()
	x.Pause(vm.ID)
	img, err := Save(x, vm.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(img.Pages) == 0 {
		t.Fatal("no pages captured")
	}
	if !img.InPlaceCompatible {
		t.Fatal("compatibility flag lost")
	}
	// The source VM is untouched by Save.
	if _, ok := x.LookupVM(vm.ID); !ok {
		t.Fatal("Save disturbed the source VM")
	}

	// Cold-restore on a different machine running the same kind.
	clock2 := simtime.NewClock()
	x2, err := xen.Boot(hw.NewMachine(clock2, hw.M1()))
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(x2, img)
	if err != nil {
		t.Fatal(err)
	}
	if !restored.Paused() {
		t.Fatal("restored VM not paused")
	}
	if err := x2.AttachGuest(restored.ID, g); err != nil {
		t.Fatal(err)
	}
	if err := g.Verify(); err != nil {
		t.Fatalf("guest state lost: %v", err)
	}
	sumAfter, _ := restored.Space.ChecksumAll()
	if sumBefore != sumAfter {
		t.Fatal("restored image differs")
	}
}

func TestColdHeterogeneousRestore(t *testing.T) {
	// Suspend on Xen, resume on KVM — no live link involved.
	x, vm := newXenWithVM(t)
	g := vm.Guest
	x.Pause(vm.ID)
	img, err := Save(x, vm.ID)
	if err != nil {
		t.Fatal(err)
	}
	clock2 := simtime.NewClock()
	k, err := kvm.Boot(hw.NewMachine(clock2, hw.M1()))
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(k, img)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.AttachGuest(restored.ID, g); err != nil {
		t.Fatal(err)
	}
	if err := g.Verify(); err != nil {
		t.Fatalf("guest state lost crossing hypervisors cold: %v", err)
	}
	if err := k.Resume(restored.ID); err != nil {
		t.Fatal(err)
	}
}

func TestSerializeDeserializeRoundTrip(t *testing.T) {
	x, vm := newXenWithVM(t)
	x.Pause(vm.ID)
	img, err := Save(x, vm.ID)
	if err != nil {
		t.Fatal(err)
	}
	data, err := Serialize(img)
	if err != nil {
		t.Fatal(err)
	}
	wantLen, err := img.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != wantLen {
		t.Fatalf("serialized %d bytes, Bytes() says %d", len(data), wantLen)
	}
	back, err := Deserialize(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.State.Name != img.State.Name || len(back.Pages) != len(img.Pages) {
		t.Fatal("round trip lost content")
	}
	if !back.InPlaceCompatible {
		t.Fatal("flag lost")
	}
	for i := range img.Pages {
		if back.Pages[i].GFN != img.Pages[i].GFN {
			t.Fatal("page GFNs differ")
		}
		for j := range img.Pages[i].Data {
			if back.Pages[i].Data[j] != img.Pages[i].Data[j] {
				t.Fatal("page bytes differ")
			}
		}
	}
}

func TestDeserializeRejectsCorruption(t *testing.T) {
	x, vm := newXenWithVM(t)
	x.Pause(vm.ID)
	img, _ := Save(x, vm.ID)
	data, _ := Serialize(img)

	// Flip a byte anywhere: the checksum must catch it.
	for _, idx := range []int{0, 5, len(data) / 2, len(data) - 9} {
		bad := append([]byte(nil), data...)
		bad[idx] ^= 0x40
		if _, err := Deserialize(bad); err == nil {
			t.Fatalf("corruption at %d accepted", idx)
		}
	}
	// Truncations.
	for _, cut := range []int{0, 10, len(data) - 1} {
		if _, err := Deserialize(data[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestRestoreRejectsEmpty(t *testing.T) {
	clock := simtime.NewClock()
	x, _ := xen.Boot(hw.NewMachine(clock, hw.M1()))
	if _, err := Restore(x, nil); err == nil {
		t.Fatal("nil image accepted")
	}
	if _, err := Restore(x, &Image{}); err == nil {
		t.Fatal("empty image accepted")
	}
}

func TestFullSuspendResumeCycleFreesSource(t *testing.T) {
	// The orchestrator-style cycle: Suspend a running VM (pause, save,
	// serialize, destroy), then (time passes) Resume it elsewhere. The
	// source machine gets its memory back.
	x, vm := newXenWithVM(t)
	g := vm.Guest
	data, err := Suspend(x, vm.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got := x.Machine().Mem.CountByOwner()[hw.OwnerGuest]; got != 0 {
		t.Fatalf("%d guest frames remain after Suspend", got)
	}
	if _, err := Suspend(x, vm.ID); err == nil {
		t.Fatal("Suspend of a destroyed VM accepted")
	}

	k, _ := kvm.Boot(hw.NewMachine(simtime.NewClock(), hw.M1()))
	restored, err := Resume(k, data, g)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Paused() {
		t.Fatal("Resume left the VM paused")
	}
	if err := g.Verify(); err != nil {
		t.Fatalf("state lost across the full cycle: %v", err)
	}
	data[len(data)-1] ^= 1
	if _, err := Resume(k, data, nil); err == nil {
		t.Fatal("Resume of a corrupted image accepted")
	}
}
