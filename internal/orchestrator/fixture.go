package orchestrator

import (
	"fmt"
	"time"

	"hypertp/internal/hv"
	"hypertp/internal/hw"
	"hypertp/internal/simnet"
	"hypertp/internal/simtime"
)

// NewFleet stands up the stock all-Xen fleet the CLIs and tests respond
// on: slimmed M1 hosts (6 usable vCPUs, 2 GiB) on a 10 Gbps fabric, and
// 64 MiB one-vCPU VMs, every fourth one InPlaceTP-incompatible, so a CVE
// response mixes in-place transplants with evacuations.
func NewFleet(hosts, vms int) (*Nova, error) {
	clock := simtime.NewClock()
	nova := NewNova(clock, simnet.NewLink(clock, "fabric", simnet.Gbps10, 100*time.Microsecond))
	for i := 0; i < hosts; i++ {
		prof := hw.M1()
		prof.Name = fmt.Sprintf("host-%03d", i)
		prof.RAMBytes = 2 * hw.GiB
		d, err := NewLibvirtDriver(clock, hw.NewMachine(clock, prof), hv.KindXen)
		if err != nil {
			return nil, err
		}
		if err := nova.AddNode(prof.Name, d); err != nil {
			return nil, err
		}
	}
	for i := 0; i < vms; i++ {
		_, err := nova.BootVM(hv.Config{
			Name: fmt.Sprintf("vm-%04d", i), VCPUs: 1, MemBytes: 64 << 20,
			HugePages: true, Seed: 7 + uint64(i), InPlaceCompatible: i%4 != 3,
		})
		if err != nil {
			return nil, fmt.Errorf("boot vm %d: %w", i, err)
		}
	}
	return nova, nil
}
