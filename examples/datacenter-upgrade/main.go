// Datacenter upgrade: the §5.4 scenario — a 10-host cluster running 100
// VMs must leave its vulnerable hypervisor. The BtrPlace-style planner
// rolls the upgrade host group by host group, and the fraction of
// InPlaceTP-compatible VMs decides how much of the work becomes
// seconds-scale in-place transplants instead of minutes of migration.
//
//	go run ./examples/datacenter-upgrade
package main

import (
	"fmt"
	"log"
	"time"

	"hypertp/internal/cluster"
	"hypertp/internal/sched"
)

func main() {
	model := cluster.DefaultExecutionModel()

	fmt.Println("rolling upgrade of 10 hosts x 10 VMs (1 vCPU / 4 GB each)")
	fmt.Println("workload mix: 30% streaming, 30% cpu+mem, 40% idle")
	fmt.Println()

	var baseline time.Duration
	for _, pct := range []int{0, 20, 40, 60, 80} {
		c, err := cluster.New(cluster.Config{
			Hosts: 10, VMsPerHost: 10, StreamFrac: 0.3, CPUFrac: 0.3,
		})
		if err != nil {
			log.Fatal(err)
		}
		c.SetInPlaceCompatibleFraction(float64(pct)/100, 42)

		plan, err := c.PlanUpgrade(1, nil)
		if err != nil {
			log.Fatal(err)
		}
		if err := c.Validate(); err != nil {
			log.Fatal(err)
		}
		res, err := plan.Execute(model, nil, sched.Serial())
		if err != nil {
			log.Fatal(err)
		}
		if pct == 0 {
			baseline = res.TotalTime
		}
		gain := (1 - float64(res.TotalTime)/float64(baseline)) * 100
		fmt.Printf("%3d%% InPlaceTP-compatible: %3d migrations, total %8v (gain %3.0f%%)\n",
			pct, res.Migrations, res.TotalTime.Round(time.Second), gain)

		// Show the worst-travelled VM at the all-migration level.
		if pct == 0 {
			worst, hops := 0, 0
			for id := 0; id < c.VMCount(); id++ {
				vm, _ := c.VM(id)
				if vm.Migrations > hops {
					worst, hops = id, vm.Migrations
				}
			}
			vm, _ := c.VM(worst)
			fmt.Printf("      (cascade: %s migrated %d times before settling)\n", vm.Name, hops)
		}
	}

	fmt.Println()
	fmt.Println("paper's Fig. 13: 154 → 25 migrations and ~80% less upgrade time at 80% compatibility")
}
