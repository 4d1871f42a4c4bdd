// Package experiments contains one driver per table and figure of the
// paper's evaluation (§5) plus the §2 vulnerability study and the §4.2.5
// ablations. Each driver builds a fresh simulated testbed, runs the real
// mechanisms (transplant engine, migration engine, cluster planner,
// workload generators) and returns both structured data and a rendered
// plain-text table/plot, so the same code backs the unit tests, their
// allocation budgets and the cmd/benchfig binary.
package experiments

import (
	"fmt"
	"time"

	"hypertp/internal/core"
	"hypertp/internal/hv"
	"hypertp/internal/hw"
	"hypertp/internal/obs"
	"hypertp/internal/simtime"
)

// Seed is the default deterministic seed for every experiment.
const Seed = 20210426 // EuroSys'21 week

// obsFactory, when non-nil, supplies a recorder for every testbed the
// experiment drivers build — the hook the observability-overhead
// benchmark uses to compare instrumented and bare runs of the same
// figures.
var obsFactory func(clock *simtime.Clock) *obs.Recorder

// SetObsFactory installs (or, with nil, removes) the per-testbed
// recorder factory.
func SetObsFactory(fn func(clock *simtime.Clock) *obs.Recorder) { obsFactory = fn }

// testbed is one machine with a booted hypervisor and VMs.
type testbed struct {
	clock  *simtime.Clock
	mach   *hw.Machine
	engine *core.Engine
	hyp    hv.Hypervisor
}

// newTestbed boots kind on a machine of profile p and creates n VMs of
// the given shape.
func newTestbed(p *hw.Profile, kind hv.Kind, n, vcpus int, memBytes uint64) (*testbed, error) {
	clock := simtime.NewClock()
	mach := hw.NewMachine(clock, p)
	engine := core.NewEngine(clock, mach)
	if obsFactory != nil {
		engine.Obs = obsFactory(clock)
	}
	hyp, err := engine.BootHypervisor(kind)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		_, err := hyp.CreateVM(hv.Config{
			Name:  fmt.Sprintf("vm-%02d", i),
			VCPUs: vcpus, MemBytes: memBytes, HugePages: true,
			Seed: Seed + uint64(i), InPlaceCompatible: true,
		})
		if err != nil {
			return nil, err
		}
	}
	return &testbed{clock: clock, mach: mach, engine: engine, hyp: hyp}, nil
}

// runInPlace executes one InPlaceTP with the paper's optimizations.
func runInPlace(p *hw.Profile, from, to hv.Kind, n, vcpus int, memBytes uint64) (*core.InPlaceReport, error) {
	tb, err := newTestbed(p, from, n, vcpus, memBytes)
	if err != nil {
		return nil, err
	}
	_, rep, err := tb.engine.InPlace(tb.hyp, to, core.DefaultOptions())
	return rep, err
}

// secs formats a duration in seconds with 2 decimals.
func secs(d time.Duration) string { return fmt.Sprintf("%.2f", d.Seconds()) }

// ms formats a duration in milliseconds with 2 decimals.
func ms(d time.Duration) string { return fmt.Sprintf("%.2f", float64(d)/float64(time.Millisecond)) }

// GiBytes converts GiB to bytes.
func GiBytes(g int) uint64 { return uint64(g) << 30 }
