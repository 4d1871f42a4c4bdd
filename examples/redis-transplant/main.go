// Redis under transplant: reproduces the Fig. 11 scenario — a Redis
// server in a 2 vCPU / 8 GB VM is transplanted from Xen to KVM mid-run,
// once with InPlaceTP (a ~9 s service gap, then +37% throughput on KVM)
// and once with MigrationTP (a long degraded pre-copy window, negligible
// downtime).
//
//	go run ./examples/redis-transplant
package main

import (
	"fmt"
	"log"
	"time"

	"hypertp"
	"hypertp/internal/obs"
	"hypertp/internal/workload"
)

func main() {
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
	fmt.Println(obs.RenderSeries(72, 10, inplaceQPS))

	migQPS, _, err := workload.Timelines(redis, workload.Schedule{
		Kind:  workload.MigrationTP,
		Total: 260 * time.Second, Step: time.Second,
		DegradeStart: 46 * time.Second,
		DegradeEnd:   124 * time.Second,
	}, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("MigrationTP (Redis QPS; degraded during pre-copy, no visible gap):")
	fmt.Println(obs.RenderSeries(72, 10, migQPS))

	gap := workload.GapSeconds(inplaceQPS, time.Second)
	fmt.Printf("observed InPlaceTP interruption: %.0f s (paper: ~9 s)\n", gap)
	fmt.Printf("post-transplant throughput: ~%.0f QPS vs ~%.0f on Xen (+%.0f%%, paper: +37%%)\n",
		redis.QPSKVM, redis.QPSXen, (redis.QPSKVM/redis.QPSXen-1)*100)
}
