// Package hypertp is the public API of the HyperTP reproduction: a
// framework for mitigating hypervisor vulnerability windows by
// transplanting a running host from one hypervisor to another (EuroSys
// 2021, "Mitigating vulnerability windows with hypervisor transplant").
//
// The package wraps the internal engine in a small surface:
//
//	sim := hypertp.NewSimulation()
//	host, _ := sim.NewHost(hypertp.M1(), hypertp.KindXen)
//	vm, _ := host.CreateVM(hypertp.VMConfig{Name: "web", VCPUs: 1,
//	        MemBytes: 1 << 30, HugePages: true})
//	report, _ := host.TransplantWith(hypertp.KindKVM, hypertp.Default())
//	fmt.Println(report.Downtime) // ~1.7s on M1
//
// Everything runs on a deterministic virtual clock: a full transplant
// "takes" milliseconds of wall time while reporting the calibrated
// virtual durations of the paper's testbed.
package hypertp

import (
	"time"

	"hypertp/internal/checkpoint"
	"hypertp/internal/cluster"
	"hypertp/internal/core"
	"hypertp/internal/guest"
	"hypertp/internal/hv"
	"hypertp/internal/hw"
	"hypertp/internal/migration"
	"hypertp/internal/simnet"
	"hypertp/internal/simtime"
	"hypertp/internal/tpcache"
	"hypertp/internal/vulndb"
)

// Re-exported identity types.
type (
	// Kind identifies a hypervisor family.
	Kind = hv.Kind
	// VMConfig describes a VM to create.
	VMConfig = hv.Config
	// VM is a running virtual machine handle.
	VM = hv.VM
	// InPlaceReport is the phase breakdown of one InPlaceTP.
	InPlaceReport = core.InPlaceReport
	// MigrationReport describes one completed MigrationTP.
	MigrationReport = migration.Report
	// Profile describes a machine type.
	Profile = hw.Profile
	// VulnDatabase is the §2 vulnerability study database.
	VulnDatabase = vulndb.Database
	// Cluster is the §5.4 datacenter model.
	Cluster = cluster.Cluster
	// ClusterConfig configures a cluster build.
	ClusterConfig = cluster.Config
)

// Hypervisor kinds. KindNOVA is the microhypervisor pool member that
// gives the decision policy an escape when a flaw (VENOM's shared QEMU)
// hits Xen and KVM at once.
const (
	KindXen  = hv.KindXen
	KindKVM  = hv.KindKVM
	KindNOVA = hv.KindNOVA
)

// Machine profiles of the paper's testbed (Table 3).
var (
	M1          = hw.M1
	M2          = hw.M2
	ClusterNode = hw.ClusterNode
)

// LoadVulnDB loads the §2 vulnerability dataset.
func LoadVulnDB() *VulnDatabase { return vulndb.Load() }

// NewCluster builds a §5.4 cluster model.
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return cluster.New(cfg) }

// Simulation owns the virtual clock all hosts and links share, plus the
// simulation-wide transplant cache.
type Simulation struct {
	clock *simtime.Clock
	seed  uint64
	cache *tpcache.Cache
}

// NewSimulation creates an empty simulation at t=0.
func NewSimulation() *Simulation {
	return &Simulation{clock: simtime.NewClock(), seed: 1, cache: tpcache.New()}
}

// Now returns the current virtual time.
func (s *Simulation) Now() time.Duration { return s.clock.Now() }

// CacheStats is a census of the transplant cache: translation hits and
// misses, poisoned entries, and PRAM snapshot replays.
type CacheStats = tpcache.Stats

// CacheStats reports the simulation-wide transplant cache counters.
// Transplants run with Config.TranslationCache (the default) feed them;
// a simulation that never caches reports zeros.
func (s *Simulation) CacheStats() CacheStats { return s.cache.Stats() }

// Link models a network connection between hosts.
type Link struct {
	link *simnet.Link
}

// NewLink creates a link with the given byte rate and latency.
func (s *Simulation) NewLink(name string, byteRate int64, latency time.Duration) *Link {
	return &Link{link: simnet.NewLink(s.clock, name, byteRate, latency)}
}

// Gbps converts gigabits/second to the byte rate NewLink expects.
func Gbps(g float64) int64 { return int64(g * 1e9 / 8) }

// Host is one simulated physical server running a HyperTP-compliant
// hypervisor.
type Host struct {
	sim    *Simulation
	engine *core.Engine
	hyp    hv.Hypervisor
}

// NewHost boots a machine of the given profile with the given hypervisor.
func (s *Simulation) NewHost(profile *Profile, kind Kind) (*Host, error) {
	machine := hw.NewMachine(s.clock, profile)
	engine := core.NewEngine(s.clock, machine)
	hyp, err := engine.BootHypervisor(kind)
	if err != nil {
		return nil, err
	}
	return &Host{sim: s, engine: engine, hyp: hyp}, nil
}

// Kind reports the hypervisor currently running on the host.
func (h *Host) Kind() Kind { return h.hyp.Kind() }

// HypervisorName reports the full hypervisor version label.
func (h *Host) HypervisorName() string { return h.hyp.Name() }

// CreateVM creates and starts a VM.
func (h *Host) CreateVM(cfg VMConfig) (*VM, error) { return h.hyp.CreateVM(cfg) }

// VMs lists the host's VMs.
func (h *Host) VMs() []*VM { return h.hyp.VMs() }

// TransplantWith performs InPlaceTP — every VM on the host is moved to
// a freshly micro-rebooted hypervisor of the target kind, in place —
// under a unified Config: the config's fault plan is armed across the
// kexec/PRAM/UISR sites and post-handover crashes are recovered under
// its retry policy. On a rolled-back transplant both the report
// (Outcome: rolled-back) and an ErrAborted-classified error are
// returned, and the host keeps running its source hypervisor with every
// VM intact.
func (h *Host) TransplantWith(target Kind, cfg Config) (*InPlaceReport, error) {
	h.engine.Fault = cfg.faultPlan(h.sim.clock)
	h.engine.Retry = cfg.Retry
	defer func() { h.engine.Fault = nil }()
	opts := cfg.engineOptions()
	if cfg.TranslationCache {
		opts.Cache = h.sim.cache
	}
	newHyp, report, err := h.engine.InPlace(h.hyp, target, opts)
	if newHyp != nil {
		h.hyp = newHyp
	}
	return report, err
}

// Checkpoint suspends a VM and serializes it — UISR platform state plus
// every touched guest page — into a durable, self-validating image (the
// §4.5.2 guest-state-saving operation). The VM is destroyed afterwards;
// restore it anywhere with RestoreCheckpoint.
func (h *Host) Checkpoint(vm *VM) ([]byte, error) {
	if !vm.Paused() {
		if err := h.hyp.Pause(vm.ID); err != nil {
			return nil, err
		}
	}
	img, err := checkpoint.Save(h.hyp, vm.ID)
	if err != nil {
		return nil, err
	}
	data, err := checkpoint.Serialize(img)
	if err != nil {
		return nil, err
	}
	if err := h.hyp.DestroyVM(vm.ID); err != nil {
		return nil, err
	}
	return data, nil
}

// RestoreCheckpoint instantiates a checkpoint image on this host (any
// pool hypervisor) and resumes it. Pass the guest stack captured before
// the checkpoint to keep end-to-end verification; nil attaches nothing.
func (h *Host) RestoreCheckpoint(data []byte, g *guest.Guest) (*VM, error) {
	img, err := checkpoint.Deserialize(data)
	if err != nil {
		return nil, err
	}
	vm, err := checkpoint.Restore(h.hyp, img)
	if err != nil {
		return nil, err
	}
	if g != nil {
		if err := h.hyp.AttachGuest(vm.ID, g); err != nil {
			return nil, err
		}
	}
	if err := h.hyp.Resume(vm.ID); err != nil {
		return nil, err
	}
	return vm, nil
}

// MigrateVM performs MigrationTP: one VM is live-migrated over the link
// to the destination host (which may run a different hypervisor). The
// call completes in virtual time before returning.
func (h *Host) MigrateVM(vm *VM, link *Link, dest *Host) (*MigrationReport, error) {
	return h.MigrateVMWith(vm, link, dest, Config{})
}

// MigrateVMWith performs MigrationTP under a unified Config: the
// config's fault plan is armed on the link (loss and sever sites) and
// severed attempts are retried under its retry policy, rolling back to
// the source between attempts. An exhausted retry budget aborts to the
// source (ErrAborted): the VM keeps running where it was.
func (h *Host) MigrateVMWith(vm *VM, link *Link, dest *Host, cfg Config) (*MigrationReport, error) {
	h.sim.seed++
	return core.MigrationTP(h.sim.clock, core.MigrationTPParams{
		Link:   link.link,
		Source: h.hyp,
		Dest:   migration.NewReceiver(h.sim.clock, dest.hyp, h.sim.seed),
		VMID:   vm.ID,
		Fault:  cfg.faultPlan(h.sim.clock),
		Retry:  cfg.Retry,
	})
}

// DefaultPool is the hypervisor repertoire the decision policy consults:
// the two mainstream stacks plus the microhypervisor escape hatch.
var DefaultPool = []string{"xen", "kvm", "nova"}

// SelectTransplantTarget consults the vulnerability database: given an
// active CVE on this host's hypervisor, it returns the transplant target
// the §1 policy picks from DefaultPool, or an error when no pool member
// is safe.
func (h *Host) SelectTransplantTarget(db *VulnDatabase, cveID string) (Kind, error) {
	target, err := db.SelectTarget(h.Kind().String(), []string{cveID}, DefaultPool)
	if err != nil {
		return 0, err
	}
	return hv.ParseKind(target)
}
