package hypertp

import (
	"time"

	"hypertp/internal/cluster"
	"hypertp/internal/core"
	"hypertp/internal/fault"
	"hypertp/internal/simtime"
)

// Fault-injection vocabulary, re-exported from the internal engine.
type (
	// FaultSite names one deterministic injection point (e.g.
	// "kexec.handover", "link.abort"). AllFaultSites lists them.
	FaultSite = fault.Site
	// FaultPlan is a materialized, seeded injection plan; build one
	// with Simulation.NewFaultPlan and pass it to Cluster.PlanUpgrade.
	FaultPlan = fault.Plan
	// RetryPolicy bounds recovery retries with exponential backoff.
	// The zero value means a single attempt.
	RetryPolicy = fault.RetryPolicy
)

// The registered injection sites (see internal/fault for semantics).
const (
	SiteKexecLoad     = fault.SiteKexecLoad
	SitePRAMBuild     = fault.SitePRAMBuild
	SiteUISRTranslate = fault.SiteUISRTranslate
	SiteKexecHandover = fault.SiteKexecHandover
	SiteHVBoot        = fault.SiteHVBoot
	SitePRAMParse     = fault.SitePRAMParse
	SiteUISRRestore   = fault.SiteUISRRestore
	SiteLinkAbort     = fault.SiteLinkAbort
	SiteLinkLoss      = fault.SiteLinkLoss
	SiteClusterHost   = fault.SiteClusterHost
)

// AllFaultSites lists every registered injection site in registry order.
func AllFaultSites() []FaultSite { return fault.Sites() }

// ParseFaultSites parses a comma-separated site list ("" means all).
func ParseFaultSites(csv string) ([]FaultSite, error) { return fault.ParseSites(csv) }

// DefaultRetryPolicy is the engine's standard recovery policy: three
// attempts, 50 ms base backoff, doubling.
func DefaultRetryPolicy() RetryPolicy { return fault.DefaultRetryPolicy() }

// Config is the single options struct for every transplant-class
// operation. It collapses the historical core.Options (the §4.2.5
// InPlaceTP optimization toggles) and cluster.ExecutionModel (the §5.4
// fleet timing model) and adds the fault-injection and recovery
// controls. Build one with Default() and functional overrides:
//
//	cfg := hypertp.NewConfig(
//	        hypertp.WithFaults(42, 0.1),
//	        hypertp.WithRetry(hypertp.DefaultRetryPolicy()))
type Config struct {
	// InPlaceTP optimization toggles (§4.2.5). See core.Options.
	PrepareBeforePause bool
	Parallel           bool
	HugePages          bool
	EarlyRestoration   bool

	// TranslationCache enables the simulation-wide transplant cache:
	// repeat transplants reuse encoded UISR translations and replay
	// PRAM builds instead of recomputing them. Caching is deterministic
	// — reports, guest checksums, and span trees are byte-identical to
	// the cold path; only wall-clock time and the cache counters (see
	// Summary and Simulation.CacheStats) change. On by default.
	TranslationCache bool

	// Fleet execution model (§5.4). See cluster.ExecutionModel.
	LinkByteRate         int64
	PerMigrationOverhead time.Duration
	InPlaceHostTime      time.Duration

	// FaultSeed and FaultRate parameterize deterministic fault
	// injection: each arming of a site rolls a seeded PRNG against
	// FaultRate. A rate of 0 with no forced shots disables injection.
	FaultSeed uint64
	FaultRate float64
	// FaultSites restricts probabilistic injection to the listed sites;
	// empty means every registered site is eligible.
	FaultSites []FaultSite
	// Retry bounds crash recovery and migration retries. The zero
	// value selects the engine default for InPlaceTP recovery and a
	// single attempt for MigrationTP.
	Retry RetryPolicy

	forced []forcedShot
}

type forcedShot struct {
	site FaultSite
	occ  int
}

// Default returns the paper's optimized configuration with fault
// injection disabled and the default retry policy.
func Default() Config {
	o := core.DefaultOptions()
	m := cluster.DefaultExecutionModel()
	return Config{
		PrepareBeforePause:   o.PrepareBeforePause,
		Parallel:             o.Parallel,
		HugePages:            o.HugePages,
		EarlyRestoration:     o.EarlyRestoration,
		TranslationCache:     true,
		LinkByteRate:         m.LinkByteRate,
		PerMigrationOverhead: m.PerMigrationOverhead,
		InPlaceHostTime:      m.InPlaceHostTime,
		Retry:                fault.DefaultRetryPolicy(),
	}
}

// An Option overrides one aspect of a Config.
type Option func(*Config)

// NewConfig builds a Config from Default plus the given overrides.
func NewConfig(opts ...Option) Config {
	cfg := Default()
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// WithoutOptimizations disables every §4.2.5 optimization (the paper's
// de-optimized baseline).
func WithoutOptimizations() Option {
	return func(c *Config) {
		c.PrepareBeforePause = false
		c.Parallel = false
		c.HugePages = false
		c.EarlyRestoration = false
	}
}

// WithFaults enables seeded probabilistic fault injection, optionally
// restricted to the given sites.
func WithFaults(seed uint64, rate float64, sites ...FaultSite) Option {
	return func(c *Config) {
		c.FaultSeed = seed
		c.FaultRate = rate
		c.FaultSites = sites
	}
}

// WithForcedFault schedules one guaranteed injection at the site's
// n-th arming (1-based), regardless of rate or site restriction.
func WithForcedFault(site FaultSite, occurrence int) Option {
	return func(c *Config) {
		c.forced = append(c.forced, forcedShot{site: site, occ: occurrence})
	}
}

// WithRetry overrides the recovery policy.
func WithRetry(policy RetryPolicy) Option {
	return func(c *Config) { c.Retry = policy }
}

// WithTranslationCache enables or disables the transplant cache. Pass
// false to force every transplant down the cold path (the benchmark
// baseline configuration).
func WithTranslationCache(on bool) Option {
	return func(c *Config) { c.TranslationCache = on }
}

// engineOptions lowers the config to the internal InPlaceTP toggles.
func (c Config) engineOptions() core.Options {
	return core.Options{
		PrepareBeforePause: c.PrepareBeforePause,
		Parallel:           c.Parallel,
		HugePages:          c.HugePages,
		EarlyRestoration:   c.EarlyRestoration,
	}
}

// ClusterModel lowers the config to the cluster timing model consumed
// by Plan.Execute.
func (c Config) ClusterModel() cluster.ExecutionModel {
	return cluster.ExecutionModel{
		LinkByteRate:         c.LinkByteRate,
		PerMigrationOverhead: c.PerMigrationOverhead,
		InPlaceHostTime:      c.InPlaceHostTime,
	}
}

// faultPlan materializes the config's fault plan on the given clock, or
// nil when injection is fully disabled (nil plans are free no-ops).
func (c Config) faultPlan(clock *simtime.Clock) *fault.Plan {
	if c.FaultRate == 0 && len(c.forced) == 0 {
		return nil
	}
	p := fault.NewPlan(c.FaultSeed, c.FaultRate).SetClock(clock)
	if len(c.FaultSites) > 0 {
		p.Restrict(c.FaultSites...)
	}
	for _, f := range c.forced {
		p.ForceAt(f.site, f.occ)
	}
	return p
}

// NewFaultPlan materializes cfg's fault plan on this simulation's
// clock — the form Cluster.PlanUpgrade consumes. Returns nil
// (a valid, free no-op) when the config does not enable injection.
func (s *Simulation) NewFaultPlan(cfg Config) *FaultPlan {
	return cfg.faultPlan(s.clock)
}
