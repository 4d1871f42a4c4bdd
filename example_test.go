package hypertp_test

import (
	"fmt"
	"log"
	"strings"
	"time"

	"hypertp"
	"hypertp/internal/cluster"
	"hypertp/internal/core"
	"hypertp/internal/hv"
	"hypertp/internal/hw"
	"hypertp/internal/obs"
	"hypertp/internal/orchestrator"
	"hypertp/internal/sched"
	"hypertp/internal/simnet"
	"hypertp/internal/simtime"
	"hypertp/internal/vulndb"
	"hypertp/internal/workload"
)

// Quickstart: boot a Xen host, run a VM with real data in guest memory,
// transplant the host to KVM in place, and verify nothing was lost.
func Example_quickstart() {
	sim := hypertp.NewSimulation()

	// A machine like the paper's M1 testbed, running Xen.
	host, err := sim.NewHost(hypertp.M1(), hypertp.KindXen)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("booted %s\n", host.HypervisorName())

	// One small VM, like the paper's 1 vCPU / 1 GB reference guest.
	vm, err := host.CreateVM(hypertp.VMConfig{
		Name: "web-frontend", VCPUs: 1, MemBytes: 1 << 30,
		HugePages: true, Seed: 42,
	})
	if err != nil {
		log.Fatal(err)
	}
	// The guest writes real bytes into its memory.
	if err := vm.Guest.WriteWorkingSet(0, 512); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("VM %q running, %d bytes of guest data written\n",
		vm.Config.Name, vm.Guest.WrittenBytes())

	// A critical Xen-only CVE drops. Ask the policy where to go.
	db := hypertp.LoadVulnDB()
	target, err := host.SelectTransplantTarget(db, "CVE-2016-6258")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CVE-2016-6258 is critical on Xen; policy says transplant to %v\n", target)

	// Transplant the whole host in place (InPlaceTP, Fig. 3).
	report, err := host.TransplantWith(target, hypertp.Default())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntransplanted %s → %s\n", report.Source, report.Target)
	fmt.Printf("  PRAM (pre-pause): %v\n", report.PRAM)
	fmt.Printf("  translation:      %v\n", report.Translation)
	fmt.Printf("  micro-reboot:     %v\n", report.Reboot)
	fmt.Printf("  restoration:      %v\n", report.Restoration)
	fmt.Printf("  downtime:         %v   (paper: ~1.7s on M1)\n", report.Downtime)

	// The guest never noticed: every byte is still there.
	for _, vm := range host.VMs() {
		if err := vm.Guest.Verify(); err != nil {
			log.Fatalf("guest state lost: %v", err)
		}
		fmt.Printf("VM %q verified on %s: all %d bytes intact\n",
			vm.Config.Name, host.HypervisorName(), vm.Guest.WrittenBytes())
	}
	// Output:
	// booted xen-4.12.1
	// VM "web-frontend" running, 32768 bytes of guest data written
	// CVE-2016-6258 is critical on Xen; policy says transplant to kvm
	//
	// transplanted xen-4.12.1 → kvm
	//   PRAM (pre-pause): 450ms
	//   translation:      80ms
	//   micro-reboot:     1.52s
	//   restoration:      120ms
	//   downtime:         1.72s   (paper: ~1.7s on M1)
	// VM "web-frontend" verified on linux-5.3.1/kvm+kvmtool: all 32768 bytes intact
}

// printChart prints a rendered chart line by line without trailing
// blanks, which an example's output block cannot hold.
func printChart(chart string) {
	for _, line := range strings.Split(strings.TrimRight(chart, "\n"), "\n") {
		fmt.Println(strings.TrimRight(line, " "))
	}
}

// Redis under transplant: the Fig. 11 scenario. A Redis server in a
// 2 vCPU / 8 GB VM is transplanted from Xen to KVM mid-run, once with
// InPlaceTP (a ~9 s service gap, then +37% throughput on KVM) and once
// with MigrationTP (a long degraded pre-copy window, negligible
// downtime).
func Example_redisTransplant() {
	// First measure the real transplant timings for this VM shape.
	sim := hypertp.NewSimulation()
	host, err := sim.NewHost(hypertp.M1(), hypertp.KindXen)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := host.CreateVM(hypertp.VMConfig{
		Name: "redis", VCPUs: 2, MemBytes: 8 << 30, HugePages: true, Seed: 7,
	}); err != nil {
		log.Fatal(err)
	}
	rep, err := host.TransplantWith(hypertp.KindKVM, hypertp.Default())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("InPlaceTP of the 2 vCPU / 8 GB Redis VM: downtime %v, with network %v\n\n",
		rep.Downtime, rep.NetworkDowntime)

	// Drive the redis-benchmark timeline through the measured gap.
	redis := workload.Redis()
	inplaceQPS, _, err := workload.Timelines(redis, workload.Schedule{
		Kind:  workload.InPlaceTP,
		Total: 200 * time.Second, Step: time.Second,
		GapStart: 50 * time.Second,
		GapEnd:   50*time.Second + rep.NetworkDowntime,
	}, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("InPlaceTP (Redis QPS; gap = downtime + NIC reinit):")
	printChart(obs.RenderSeries(72, 10, inplaceQPS))

	migQPS, _, err := workload.Timelines(redis, workload.Schedule{
		Kind:  workload.MigrationTP,
		Total: 260 * time.Second, Step: time.Second,
		DegradeStart: 46 * time.Second,
		DegradeEnd:   124 * time.Second,
	}, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nMigrationTP (Redis QPS; degraded during pre-copy, no visible gap):")
	printChart(obs.RenderSeries(72, 10, migQPS))

	gap := workload.GapSeconds(inplaceQPS, time.Second)
	fmt.Printf("\nobserved InPlaceTP interruption: %.0f s (paper: ~9 s)\n", gap)
	fmt.Printf("post-transplant throughput: ~%.0f QPS vs ~%.0f on Xen (+%.0f%%, paper: +37%%)\n",
		redis.QPSKVM, redis.QPSXen, (redis.QPSKVM/redis.QPSXen-1)*100)
	// Output:
	// InPlaceTP of the 2 vCPU / 8 GB Redis VM: downtime 2.4s, with network 9s
	//
	// InPlaceTP (Redis QPS; gap = downtime + NIC reinit):
	// 4.27e+04 ┤
	//          │                     ***** * * *** ***  ** *** * ** *** **** *** **** **
	//          │                          * * *   *   **  *   * *  *   *    *   *    *
	//          │        *    *
	//          │******** **** ****
	//          │
	//          │
	//          │
	//          │
	//          │
	//          │                  ***
	//          └────────────────────────────────────────────────────────────────────────
	//           0                                                                   200s
	//           * redis-qps (req/s)
	//
	// MigrationTP (Redis QPS; degraded during pre-copy, no visible gap):
	// 4.27e+04 ┤
	//          │                                  *  ******** * *** ** * ************* *
	//          │                                   **        * *   *  * *             *
	//          │  *         *
	//          │** *********
	//          │
	//          │
	//          │             *********************
	//          │
	//          │
	//          │
	//          └────────────────────────────────────────────────────────────────────────
	//           0                                                                   260s
	//           * redis-qps (req/s)
	//
	// observed InPlaceTP interruption: 9 s (paper: ~9 s)
	// post-transplant throughput: ~41100 QPS vs ~30000 on Xen (+37%, paper: +37%)
}

// Vulnerability response: the paper's motivating scenario end to end. A
// critical CVE lands on the datacenter's hypervisor; the operator
// consults the vulnerability database, the policy selects a safe
// replacement, and the OpenStack-like orchestrator upgrades every host —
// evacuating the VMs that cannot take InPlaceTP and transplanting the
// rest in place — closing the vulnerability window in seconds instead of
// the 71-day average patch wait.
func Example_vulnerabilityResponse() {
	// The fleet: three M2-class nodes running Xen, managed Nova-style.
	clock := simtime.NewClock()
	fabric := simnet.NewLink(clock, "fabric", simnet.Gbps10, 100*time.Microsecond)
	nova := orchestrator.NewNova(clock, fabric)
	for _, name := range []string{"node-a", "node-b", "node-c"} {
		driver, err := orchestrator.NewLibvirtDriver(clock, hw.NewMachine(clock, hw.M2()), hv.KindXen)
		if err != nil {
			log.Fatal(err)
		}
		if err := nova.AddNode(name, driver); err != nil {
			log.Fatal(err)
		}
	}

	// A mixed VM population: most support InPlaceTP, a few do not
	// (e.g. passthrough devices pinned to hardware).
	for i := 0; i < 9; i++ {
		compatible := i%3 != 0
		node, err := nova.BootVM(hv.Config{
			Name:  fmt.Sprintf("tenant-vm-%d", i),
			VCPUs: 2, MemBytes: 2 << 30, HugePages: true,
			Seed: uint64(i), InPlaceCompatible: compatible,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("scheduled tenant-vm-%d (inplace=%v) on %s\n", i, compatible, node)
	}

	// Day 0: a critical Xen vulnerability is reported.
	db := vulndb.Load()
	const cve = "CVE-2016-6258"
	rec, _ := db.Lookup(cve)
	fmt.Printf("\nALERT: %s — %s (CVSS %.1f, affects %v)\n",
		rec.ID, rec.Description, rec.CVSS, rec.Affects)

	worthwhile, target := db.TransplantWorthwhile(cve, "xen", []string{"xen", "kvm"})
	if !worthwhile {
		log.Fatal("policy found no safe transplant target")
	}
	fmt.Printf("policy: transplant the fleet xen → %s (patch would take ~%.0f days)\n\n",
		target, db.KVMWindowStats().AverageDays)

	// Upgrade every node with the one-click HostLiveUpgrade API.
	start := clock.Now()
	for _, node := range []string{"node-a", "node-b", "node-c"} {
		up, err := nova.HostLiveUpgrade(node, hv.KindKVM, core.DefaultOptions())
		if err != nil {
			log.Fatal(err)
		}
		dt := "-"
		if up.Report != nil {
			dt = up.Report.Downtime.String()
		}
		fmt.Printf("%s upgraded to kvm: %d VM(s) evacuated, in-place downtime %s, elapsed %v\n",
			node, len(up.EvacuatedVMs), dt, up.Elapsed)
	}
	fmt.Printf("\nfleet secured in %v of virtual time\n", clock.Now()-start)

	// Every VM is accounted for and intact.
	for _, rec := range nova.Records() {
		node, _ := nova.Node(rec.Node)
		var verified bool
		for _, vm := range node.Driver.VMs() {
			if vm.Config.Name == rec.Name {
				if err := vm.Guest.Verify(); err != nil {
					log.Fatalf("VM %s lost state: %v", rec.Name, err)
				}
				verified = true
			}
		}
		fmt.Printf("  %-14s on %-7s hypervisor=%v verified=%v\n",
			rec.Name, rec.Node, rec.Kind, verified)
	}
	// Output:
	// scheduled tenant-vm-0 (inplace=false) on node-a
	// scheduled tenant-vm-1 (inplace=true) on node-b
	// scheduled tenant-vm-2 (inplace=true) on node-b
	// scheduled tenant-vm-3 (inplace=false) on node-a
	// scheduled tenant-vm-4 (inplace=true) on node-b
	// scheduled tenant-vm-5 (inplace=true) on node-b
	// scheduled tenant-vm-6 (inplace=false) on node-a
	// scheduled tenant-vm-7 (inplace=true) on node-b
	// scheduled tenant-vm-8 (inplace=true) on node-b
	//
	// ALERT: CVE-2016-6258 — Xen PV pagetable flaw; patch publicly released 7 days after discovery (CVSS 7.2, affects [xen])
	// policy: transplant the fleet xen → kvm (patch would take ~71 days)
	//
	// node-a upgraded to kvm: 3 VM(s) evacuated, in-place downtime -, elapsed 5.587401104s
	// node-b upgraded to kvm: 0 VM(s) evacuated, in-place downtime 4.317s, elapsed 4.887s
	// node-c upgraded to kvm: 3 VM(s) evacuated, in-place downtime -, elapsed 5.181582135s
	//
	// fleet secured in 15.655983239s of virtual time
	//   tenant-vm-0    on node-a  hypervisor=kvm verified=true
	//   tenant-vm-1    on node-b  hypervisor=kvm verified=true
	//   tenant-vm-2    on node-b  hypervisor=kvm verified=true
	//   tenant-vm-3    on node-a  hypervisor=kvm verified=true
	//   tenant-vm-4    on node-b  hypervisor=kvm verified=true
	//   tenant-vm-5    on node-b  hypervisor=kvm verified=true
	//   tenant-vm-6    on node-a  hypervisor=kvm verified=true
	//   tenant-vm-7    on node-b  hypervisor=kvm verified=true
	//   tenant-vm-8    on node-b  hypervisor=kvm verified=true
}

// Datacenter upgrade: the §5.4 scenario. A 10-host cluster running 100
// VMs must leave its vulnerable hypervisor. The BtrPlace-style planner
// rolls the upgrade host group by host group, and the fraction of
// InPlaceTP-compatible VMs decides how much of the work becomes
// seconds-scale in-place transplants instead of minutes of migration.
func Example_datacenterUpgrade() {
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
	// Output:
	// rolling upgrade of 10 hosts x 10 VMs (1 vCPU / 4 GB each)
	// workload mix: 30% streaming, 30% cpu+mem, 40% idle
	//
	//   0% InPlaceTP-compatible: 165 migrations, total   21m47s (gain   0%)
	//       (cascade: vm-009 migrated 3 times before settling)
	//  20% InPlaceTP-compatible: 124 migrations, total   16m42s (gain  23%)
	//  40% InPlaceTP-compatible:  98 migrations, total   13m29s (gain  38%)
	//  60% InPlaceTP-compatible:  61 migrations, total    8m54s (gain  59%)
	//  80% InPlaceTP-compatible:  28 migrations, total    4m48s (gain  78%)
	//
	// paper's Fig. 13: 154 → 25 migrations and ~80% less upgrade time at 80% compatibility
}

// VENOM escape: the hardest case for hypervisor transplant.
// CVE-2015-3456 (VENOM, the QEMU floppy-controller overflow) was the
// studied period's only common critical vulnerability: it hit Xen and
// KVM at once, because both embed QEMU. With a two-member pool the
// decision policy must refuse; with a microhypervisor in the repertoire
// (no QEMU, tiny TCB) there is an escape hatch, and the fleet can ride
// out the vulnerability window there before returning.
func Example_venomEscape() {
	db := hypertp.LoadVulnDB()
	const venom = "CVE-2015-3456"

	// The policy view.
	if _, err := db.SelectTarget("xen", []string{venom}, []string{"xen", "kvm"}); err != nil {
		fmt.Println("pool {xen, kvm}:      ", err)
	}
	target, err := db.SelectTarget("xen", []string{venom}, hypertp.DefaultPool)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pool {xen, kvm, nova}: escape to %q\n\n", target)

	// Execute it: a Xen host with running guests.
	sim := hypertp.NewSimulation()
	host, err := sim.NewHost(hypertp.M1(), hypertp.KindXen)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		vm, err := host.CreateVM(hypertp.VMConfig{
			Name: fmt.Sprintf("tenant-%d", i), VCPUs: 1, MemBytes: 1 << 30,
			HugePages: true, Seed: uint64(i),
		})
		if err != nil {
			log.Fatal(err)
		}
		if err := vm.Guest.WriteWorkingSet(0, 256); err != nil {
			log.Fatal(err)
		}
	}

	// Day 0: escape to the microhypervisor.
	kind, err := host.SelectTransplantTarget(db, venom)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := host.TransplantWith(kind, hypertp.Default())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("day 0:  %s → %s in %v downtime (microhypervisor boots in %v)\n",
		rep.Source, rep.Target, rep.Downtime, rep.Reboot)
	for _, vm := range host.VMs() {
		if err := vm.Guest.Verify(); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("        all guests verified on %s\n", host.HypervisorName())

	// Weeks later: QEMU is patched everywhere; come home.
	rep, err = host.TransplantWith(hypertp.KindXen, hypertp.Default())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("day 28: %s → %s in %v downtime (two-kernel Xen boot dominates)\n",
		rep.Source, rep.Target, rep.Downtime)
	for _, vm := range host.VMs() {
		if err := vm.Guest.Verify(); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("        all guests verified back on %s\n", host.HypervisorName())
	fmt.Println("\nthe vulnerability window was spent on a hypervisor the flaw cannot reach")
	// Output:
	// pool {xen, kvm}:       vulndb: no hypervisor in pool [xen kvm] avoids all of [CVE-2015-3456]
	// pool {xen, kvm, nova}: escape to "nova"
	//
	// day 0:  xen-4.12.1 → nova in 1.075s downtime (microhypervisor boots in 875ms)
	//         all guests verified on nova-mh-1.0
	// day 28: nova-mh-1.0 → xen in 7.97s downtime (two-kernel Xen boot dominates)
	//         all guests verified back on xen-4.12.1
	//
	// the vulnerability window was spent on a hypervisor the flaw cannot reach
}
