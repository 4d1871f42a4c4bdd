package experiments

import (
	"fmt"

	"hypertp/internal/hv"
	"hypertp/internal/hw"
	"hypertp/internal/obs"
	"hypertp/internal/par"
	"hypertp/internal/pram"
	"hypertp/internal/uisr"
)

// Fig14Point is one x-axis point of the memory-overhead sweeps.
type Fig14Point struct {
	X         int
	PRAMBytes uint64
	UISRBytes uint64
}

// Fig14 holds all three panels of Fig. 14.
type Fig14 struct {
	VCPUs  []Fig14Point // UISR grows with vCPUs; PRAM constant
	Memory []Fig14Point // PRAM grows with memory; UISR constant
	VMs    []Fig14Point // PRAM grows with VM count
}

// Figure14 reproduces Fig. 14: the PRAM and UISR memory overheads across
// the Fig. 7 sweeps, measured on the real structures.
func Figure14() (*Fig14, []*obs.Table, error) {
	out := &Fig14{}

	uisrSize := func(vcpus int) (uint64, error) {
		st := uisr.SyntheticVM("vm", 1, vcpus, GiBytes(1), Seed)
		st.Devices = nil // Fig. 14 measures platform state
		n, err := uisr.EncodedSize(st)
		return uint64(n), err
	}
	pramSize := func(nVMs, memGiB int) (uint64, error) {
		mem := hw.NewPhysMem(GiBytes(int(32)))
		var files []pram.File
		for v := 0; v < nVMs; v++ {
			space, err := hv.AllocAddressSpace(mem, v+1, GiBytes(memGiB), true)
			if err != nil {
				return 0, err
			}
			files = append(files, pram.File{
				Name: fmt.Sprintf("vm-%02d", v), VMID: uint32(v + 1),
				Extents: space.Extents(),
			})
		}
		s, err := pram.Build(mem, files, pram.BuildOptions{})
		if err != nil {
			return 0, err
		}
		return s.MetadataBytes(), nil
	}

	// Every point builds its own structures on its own PhysMem, so the
	// three sweeps fan out on the par worker pool.
	onePRAM, err := pramSize(1, 1)
	if err != nil {
		return nil, nil, err
	}
	oneUISR, err := uisrSize(1)
	if err != nil {
		return nil, nil, err
	}
	out.VCPUs, err = par.Map(sweepValues[SweepVCPUs], func(_ int, v int) (Fig14Point, error) {
		u, err := uisrSize(v)
		return Fig14Point{X: v, PRAMBytes: onePRAM, UISRBytes: u}, err
	})
	if err != nil {
		return nil, nil, err
	}
	out.Memory, err = par.Map(sweepValues[SweepMemory], func(_ int, g int) (Fig14Point, error) {
		p, err := pramSize(1, g)
		return Fig14Point{X: g, PRAMBytes: p, UISRBytes: oneUISR}, err
	})
	if err != nil {
		return nil, nil, err
	}
	out.VMs, err = par.Map(sweepValues[SweepVMs], func(_ int, n int) (Fig14Point, error) {
		p, err := pramSize(n, 1)
		return Fig14Point{X: n, PRAMBytes: p, UISRBytes: uint64(n) * oneUISR}, err
	})
	if err != nil {
		return nil, nil, err
	}

	render := func(title, xlabel string, pts []Fig14Point) *obs.Table {
		tab := &obs.Table{
			Title:   title,
			Headers: []string{xlabel, "PRAM structures (KB)", "UISR formats (KB)"},
		}
		for _, pt := range pts {
			tab.AddRow(fmt.Sprint(pt.X),
				fmt.Sprintf("%.1f", float64(pt.PRAMBytes)/1024),
				fmt.Sprintf("%.1f", float64(pt.UISRBytes)/1024))
		}
		return tab
	}
	tabs := []*obs.Table{
		render("Figure 14: memory overhead — sweep vCPUs (1 GiB VM)", "vcpus", out.VCPUs),
		render("Figure 14: memory overhead — sweep memory size (1 vCPU)", "GiB", out.Memory),
		render("Figure 14: memory overhead — sweep VM count (1 vCPU / 1 GiB each)", "VMs", out.VMs),
	}
	return out, tabs, nil
}
