// Package fault is the deterministic fault-injection subsystem behind
// the crash-safety story (ReHype's lesson: hypervisor-level recovery is
// only credible when failures are injected at every phase boundary and
// the recovery is verified).
//
// A Plan is seeded and consulted at named injection sites wired through
// the transplant stack: PRAM build/parse, UISR translate/restore, the
// kexec load and handover, hypervisor boot, per-round link abort/loss,
// and cluster host upgrades. Whether a given arming fires is a pure
// function of (seed, site, occurrence), so the same plan produces the
// same faults — and therefore the same recovery paths and reports — for
// any host worker count, which is what the determinism tests pin.
//
// A nil *Plan is valid everywhere and free: every method no-ops, so the
// un-injected fast path costs one nil check.
package fault

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"hypertp/internal/hterr"
	"hypertp/internal/obs"
	"hypertp/internal/simtime"
)

// Site names one registered injection point.
type Site string

// The registered injection sites. Each is armed once per occurrence of
// the named phase boundary.
const (
	// SiteKexecLoad fails staging the target hypervisor image (Fig. 3 ❶).
	SiteKexecLoad Site = "kexec.load"
	// SitePRAMBuild fails PRAM construction (Fig. 3 ❷/❸).
	SitePRAMBuild Site = "pram.build"
	// SiteUISRTranslate fails the VM_i State → UISR translation (Fig. 3 ❸).
	SiteUISRTranslate Site = "uisr.translate"
	// SiteKexecHandover crashes the micro-reboot after the wipe — the
	// machine comes up with only PRAM to recover from (Fig. 3 ❹).
	SiteKexecHandover Site = "kexec.handover"
	// SiteHVBoot fails the target hypervisor's boot (Fig. 3 ❺).
	SiteHVBoot Site = "hv.boot"
	// SitePRAMParse fails the boot-time PRAM re-parse (Fig. 3 ❺).
	SitePRAMParse Site = "pram.parse"
	// SiteUISRRestore crashes mid-restoration on the target (Fig. 3 ❻).
	SiteUISRRestore Site = "uisr.restore"
	// SiteLinkAbort severs an in-flight transfer (one migration round).
	SiteLinkAbort Site = "link.abort"
	// SiteLinkLoss makes a transfer lossy: retransmissions inflate the
	// bytes actually moved.
	SiteLinkLoss Site = "link.loss"
	// SiteClusterHost fails one host's in-place upgrade during a rolling
	// cluster upgrade.
	SiteClusterHost Site = "cluster.host"
	// SiteCacheStale poisons a transplant-cache entry at lookup: the hit
	// is discarded and the engine must fall back to the cold
	// translate-and-encode path.
	SiteCacheStale Site = "cache.stale"
	// SiteHVCrash fail-stops a running hypervisor between operations:
	// vCPUs freeze, guest memory and VM_i State survive in place, and
	// only the reactive emergency path can bring the host back.
	SiteHVCrash Site = "hv.crash"
	// SiteHVCrashDuringTP fail-stops the source hypervisor in the middle
	// of a planned transplant — a double fault: the planned path is
	// abandoned with VMs paused and the emergency path must salvage them.
	SiteHVCrashDuringTP Site = "hv.crash.during_transplant"
	// SiteHVHang wedges a hypervisor without fail-stopping it: vCPUs
	// keep the frozen state but the control plane stops answering, so the
	// detector only sees missed heartbeats and recovery must fence the
	// host (force the fail-stop) before salvaging.
	SiteHVHang Site = "hv.hang"
)

// registry is the ordered universe of sites ParseSites accepts.
var registry = []Site{
	SiteKexecLoad, SitePRAMBuild, SiteUISRTranslate, SiteKexecHandover,
	SiteHVBoot, SitePRAMParse, SiteUISRRestore, SiteLinkAbort,
	SiteLinkLoss, SiteClusterHost, SiteCacheStale,
	SiteHVCrash, SiteHVCrashDuringTP, SiteHVHang,
}

// Sites returns every registered injection site in registry order.
func Sites() []Site {
	return append([]Site(nil), registry...)
}

// Registered reports whether s names a known injection site.
func Registered(s Site) bool {
	for _, r := range registry {
		if r == s {
			return true
		}
	}
	return false
}

// ParseSites parses a comma-separated site list ("pram.build,link.abort").
// The empty string means "all sites".
func ParseSites(csv string) ([]Site, error) {
	if strings.TrimSpace(csv) == "" {
		return nil, nil
	}
	var out []Site
	for _, f := range strings.Split(csv, ",") {
		s := Site(strings.TrimSpace(f))
		if s == "" {
			continue
		}
		if !Registered(s) {
			return nil, fmt.Errorf("fault: unknown site %q (known: %s)", s, siteList())
		}
		out = append(out, s)
	}
	return out, nil
}

func siteList() string {
	names := make([]string, len(registry))
	for i, s := range registry {
		names[i] = string(s)
	}
	return strings.Join(names, ",")
}

// Shot records one fired injection.
type Shot struct {
	Site       Site
	Occurrence int           // 1-based arm count at which the site fired
	At         time.Duration // virtual time, 0 without a clock
}

func (s Shot) String() string {
	return fmt.Sprintf("%s#%d@%v", s.Site, s.Occurrence, s.At)
}

// Plan is a seeded fault plan. Construct with NewPlan, then optionally
// Restrict to a site subset, ForceAt deterministic one-shots, and attach
// a clock/recorder. Plans are safe for concurrent use, though the
// simulator arms sites from its single event-loop goroutine.
type Plan struct {
	mu      sync.Mutex
	seed    uint64
	rate    float64
	enabled map[Site]bool // nil = every registered site
	forced  map[Site]map[int]bool
	counts  map[Site]int
	shots   []Shot
	clock   *simtime.Clock
	rec     *obs.Recorder
}

// NewPlan creates a plan that fires each armed site with probability
// rate, deterministically derived from (seed, site, occurrence). A rate
// of 0 fires nothing except ForceAt one-shots; a rate of 1 fires every
// arm of every enabled site.
func NewPlan(seed uint64, rate float64) *Plan {
	return &Plan{
		seed:   seed,
		rate:   rate,
		forced: make(map[Site]map[int]bool),
		counts: make(map[Site]int),
	}
}

// Restrict limits probabilistic firing to the given sites (ForceAt
// one-shots always fire regardless). No sites removes the restriction.
func (p *Plan) Restrict(sites ...Site) *Plan {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(sites) == 0 {
		p.enabled = nil
		return p
	}
	p.enabled = make(map[Site]bool, len(sites))
	for _, s := range sites {
		p.enabled[s] = true
	}
	return p
}

// ForceAt schedules a deterministic one-shot: the site fires at exactly
// its occurrence-th arm (1-based). The recovery matrix test uses this to
// hit every site once.
func (p *Plan) ForceAt(site Site, occurrence int) *Plan {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	m := p.forced[site]
	if m == nil {
		m = make(map[int]bool)
		p.forced[site] = m
	}
	m[occurrence] = true
	return p
}

// Derive returns an independent child plan for concurrent work item i:
// same rate and site restriction, but a seed mixed from the parent seed
// and the item index (simtime.Mix), a fresh shot log, and no
// clock/recorder/ForceAt inheritance. Fleet-level schedulers hand each
// concurrently-executing host its own derived plan so fault draws do not
// depend on the nondeterministic arming order of a shared stream;
// ForceAt one-shots stay on the parent, which is only armed from the
// scheduler's sequential phases.
func (p *Plan) Derive(i int) *Plan {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	child := NewPlan(simtime.Mix(p.seed+0x9e3779b97f4a7c15*uint64(i)), p.rate)
	if p.enabled != nil {
		child.enabled = make(map[Site]bool, len(p.enabled))
		for s := range p.enabled {
			child.enabled[s] = true
		}
	}
	return child
}

// SetClock timestamps future shots with virtual time.
func (p *Plan) SetClock(c *simtime.Clock) *Plan {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.clock = c
	return p
}

// SetRecorder records every shot as an obs event plus a fault.injected
// counter increment.
func (p *Plan) SetRecorder(rec *obs.Recorder) *Plan {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rec = rec
	return p
}

// roll derives the deterministic uniform sample for one (site,
// occurrence) arm: a SplitMix64 stream keyed by the plan seed and an
// FNV-1a hash of the site name, stepped to the occurrence.
func (p *Plan) roll(site Site, occurrence int) float64 {
	const fnvOffset, fnvPrime = 0xcbf29ce484222325, 0x100000001b3
	h := uint64(fnvOffset)
	for i := 0; i < len(site); i++ {
		h ^= uint64(site[i])
		h *= fnvPrime
	}
	r := simtime.NewRand(p.seed ^ h ^ (uint64(occurrence) * 0x9e3779b97f4a7c15))
	return r.Float64()
}

// Arm consults the plan at one occurrence of site. It returns whether
// the fault fires and a deterministic severity sample in [0, 1) that
// lossy modes scale by. Arm counts the occurrence even when nothing
// fires, so forced occurrences line up with real phase boundaries.
func (p *Plan) Arm(site Site) (fired bool, severity float64) {
	if p == nil {
		return false, 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.counts[site]++
	n := p.counts[site]
	u := p.roll(site, n)
	if p.forced[site][n] {
		fired = true
	} else if p.rate > 0 && (p.enabled == nil || p.enabled[site]) {
		fired = u < p.rate
	}
	if fired {
		at := time.Duration(0)
		if p.clock != nil {
			at = p.clock.Now()
		}
		shot := Shot{Site: site, Occurrence: n, At: at}
		p.shots = append(p.shots, shot)
		if p.rec != nil {
			p.rec.Event("fault.injected", shot.String())
			p.rec.Metrics().Counter("fault.injected", "faults").Add(1)
		}
	}
	return fired, u
}

// Fire arms site and, when the plan says so, returns an error wrapping
// hterr.ErrInjected. The caller's recovery layer adds the outcome class
// (ErrAborted / ErrRetryable / ErrVMLost).
func (p *Plan) Fire(site Site) error {
	fired, _ := p.Arm(site)
	if !fired {
		return nil
	}
	p.mu.Lock()
	n := p.counts[site]
	p.mu.Unlock()
	return hterr.Injected(fmt.Errorf("fault: injected at %s (occurrence %d)", site, n))
}

// Shots returns the fired injections in firing order.
func (p *Plan) Shots() []Shot {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]Shot(nil), p.shots...)
}

// Count returns how many times site has been armed.
func (p *Plan) Count(site Site) int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.counts[site]
}

// FiredSites returns the distinct sites that fired, sorted.
func (p *Plan) FiredSites() []Site {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	set := map[Site]bool{}
	for _, s := range p.shots {
		set[s.Site] = true
	}
	out := make([]Site, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
