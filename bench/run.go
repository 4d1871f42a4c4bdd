package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"hypertp/internal/calib"
	"hypertp/internal/hw"
	"hypertp/internal/par"
)

// env is what every fixture is built from: the run's seed and scale.
type env struct {
	seed uint64
	tiny bool
	// spare is a physical memory no host uses: the PhysMem probes and the
	// CopyContentsTo scratch space land on it, so probing never moves a
	// live host's allocation cursor. Traced runs only.
	spare *hw.PhysMem
}

// fixture is a built workload. One pass is ops() ops in a fixed order;
// every pass does the same work, which is what lets sim_digest compare
// passes and lets counts be reported per op.
type fixture interface {
	ops() int
	// run executes op i of a pass — the timed part — and verifies its
	// outputs. tr and c are nil in the end-to-end run.
	run(i int, tr *tracer, c *counters) (opReport, error)
	// verify checks, untimed, whatever of the last op's outputs run left
	// unchecked because checking costs more than the op.
	verify(tr *tracer) error
	// probe calls, after the timed part of a traced op, the layers the
	// op reaches only through an opaque entry point.
	probe(i int, tr *tracer, c *counters) error
}

// opReport is the virtual-time outcome of one op.
type opReport struct {
	sim       string          // canonical text of the report, hashed into sim_digest
	downtimes []time.Duration // per transplant / per migrated VM / per fleet VM
	totals    []time.Duration // virtual start-to-secured times (the vulnerability window)
}

// counters accumulates the counts the traced run reads from public
// reports. A nil *counters drops everything.
type counters struct {
	sum, max map[string]float64
}

func newCounters() *counters {
	return &counters{sum: map[string]float64{}, max: map[string]float64{}}
}

func (c *counters) add(name string, v float64) {
	if c != nil {
		c.sum[name] += v
	}
}

func (c *counters) peak(name string, v float64) {
	if c != nil && v > c.max[name] {
		c.max[name] = v
	}
}

type config struct {
	workload string
	seed     uint64
	seconds  float64 // > 0: whole passes until this much time is measured
	passes   int     // seconds == 0: this many passes (the workload's default)
	setups   int
	trace    bool
	tiny     bool
	outDir   string
}

// result is one workload's run, as the child process reports it.
type result struct {
	workload  string
	attempted int
	failed    int
	digest    string
	samples   int
	noisy     bool
	metrics   map[string]float64
	problems  []string
}

const defaultSeed = 20210426

// minOps is the fewest timed ops a full-scale run accepts: p90 then has
// at least ten samples beyond it.
const minOps = 120

func (cfg *config) scaleName() string {
	if cfg.tiny {
		return "tiny"
	}
	return "full"
}

// runWorkload is the whole life of one child process: set up (several
// times, for a median), one closed loop of ops from this goroutine, then
// the metrics.
func runWorkload(cfg config, rewriteGolden bool) (*result, error) {
	w := lookupWorkload(cfg.workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	width := min(runtime.NumCPU(), 4)
	e := &env{seed: cfg.seed, tiny: cfg.tiny}
	res := &result{workload: w.name, metrics: map[string]float64{}}

	// Set-up, repeated. Each repetition builds the fixture and runs one
	// discarded pass, so lazy initialisation, first-touch page faults and
	// cache priming are paid before timing. The first repetition runs the
	// par pool at width 1: its per-op reports must match the later ones.
	var (
		fx         fixture
		ref        []opReport
		setupTimes []float64
	)
	// Past the minimum, set-up repeats up to five times as often while it
	// has taken under three seconds in all, so that a 0.1 s set-up gets a
	// median as steady as a 2 s one. The smoke test takes the minimum.
	maxSetups := 5 * cfg.setups
	if cfg.tiny {
		maxSetups = cfg.setups
	}
	setupStart := time.Now()
	for rep := 0; rep < cfg.setups || (rep < maxSetups && time.Since(setupStart) < 3*time.Second); rep++ {
		fx = nil
		runtime.GC()
		if rep == 0 && cfg.setups > 1 {
			par.SetWorkers(1)
		} else {
			par.SetWorkers(width)
		}
		t0 := time.Now()
		if cfg.trace {
			e.spare = hw.NewPhysMem(hw.M1().RAMBytes)
			e.spare.SetPageDedup(true)
		}
		var err error
		if fx, err = w.setup(e); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		reports := make([]opReport, fx.ops())
		for i := range reports {
			if reports[i], err = fx.run(i, nil, nil); err == nil {
				err = fx.verify(nil)
			}
			if err != nil {
				return nil, fmt.Errorf("%s: warm-up op %d: %w", w.name, i, err)
			}
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		if ref == nil {
			ref = reports
		} else if a, b := passDigest(ref), passDigest(reports); a != b {
			res.problems = append(res.problems, fmt.Sprintf(
				"sim_digest differs between set-up passes (par width 1 vs %d): %s vs %s", width, a, b))
		}
	}
	par.SetWorkers(width)
	res.digest = passDigest(ref)

	var tr *tracer
	var ctr *counters
	if cfg.trace {
		tr, ctr = newTracer(), newCounters()
	}

	// The timed loop. In a traced run passes alternate untraced/traced, so
	// the tracing overhead is a paired comparison inside one process.
	var (
		untraced, traced []float64 // op wall, ms
		opWall           time.Duration
		rss              []float64 // resident set after each op, MiB
		heapPeak         uint64
		m0, m1           runtime.MemStats
	)
	runtime.GC()
	runtime.ReadMemStats(&m0)
	ru0 := readRusage()
	loopStart := time.Now()
	for pass := 0; ; pass++ {
		// Every pass starts from a collected heap, so that which ops share
		// their time with a concurrent GC cycle of the fixture's heap (1.9 GB
		// on inplace_warm, a cycle every ~50 ops, ops 4x slower while it
		// runs) is the same in every run. Garbage made within a pass is
		// still collected within it, at the program's own pace.
		runtime.GC()
		tracing := cfg.trace && pass%2 == 1
		for i := 0; i < fx.ops(); i++ {
			var (
				rep opReport
				err error
				dt  time.Duration
			)
			if tracing {
				tr.nextOp()
				t0 := time.Now()
				tr.begin("bench.op")
				rep, err = fx.run(i, tr, ctr)
				tr.end()
				dt = time.Since(t0)
				traced = append(traced, float64(dt)/1e6)
			} else {
				t0 := time.Now()
				rep, err = fx.run(i, nil, nil)
				dt = time.Since(t0)
				untraced = append(untraced, float64(dt)/1e6)
			}
			res.attempted++
			opWall += dt
			rss = append(rss, rssMiB())
			if err == nil {
				var vt *tracer
				if tracing {
					vt = tr
				}
				vt.begin("bench.verify")
				err = fx.verify(vt)
				vt.end()
			}
			switch {
			case err != nil:
				res.failed++
				res.problems = append(res.problems, fmt.Sprintf("pass %d op %d: %v", pass, i, err))
			case rep.sim != ref[i].sim:
				res.failed++
				res.problems = append(res.problems, fmt.Sprintf("pass %d op %d: virtual-time report differs from the set-up pass: %s", pass, i, firstDiff(rep.sim, ref[i].sim)))
			}
			if tracing && err == nil {
				tr.begin("bench.probe")
				perr := fx.probe(i, tr, ctr)
				tr.end()
				if perr != nil {
					return nil, fmt.Errorf("%s: probe after op %d: %w", w.name, i, perr)
				}
			}
		}
		if cfg.trace {
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			heapPeak = max(heapPeak, m.HeapInuse)
			if pass%2 == 0 {
				continue // a traced run ends on a traced pass
			}
		}
		if cfg.seconds > 0 {
			if time.Since(loopStart).Seconds() >= cfg.seconds && (cfg.tiny || len(untraced) >= minOps) {
				break
			}
		} else if pass+1 >= cfg.passes {
			break
		}
	}
	runtime.ReadMemStats(&m1)
	ru1 := readRusage()
	res.samples = len(untraced)

	// Golden check, default seed only: a mismatch means the simulator's
	// results moved, and no host-time number of this run can be compared
	// with the trajectory.
	if rewriteGolden {
		if err := updateGolden(map[string]string{w.name + "/" + cfg.scaleName(): res.digest}); err != nil {
			return nil, err
		}
	} else if cfg.seed == defaultSeed {
		if want, ok := goldenDigests()[w.name+"/"+cfg.scaleName()]; !ok {
			res.problems = append(res.problems, "no golden sim_digest for "+w.name+"/"+cfg.scaleName()+" (run with -update-golden)")
		} else if want != res.digest {
			res.problems = append(res.problems, fmt.Sprintf("sim_digest %s, golden %s", res.digest, want))
		}
	}
	if len(res.problems) > 0 && res.failed == 0 {
		res.failed = res.attempted // a digest mismatch fails every op of the workload
	}

	m := res.metrics
	var downs []float64
	var totals []float64
	for _, r := range ref {
		for _, d := range r.downtimes {
			downs = append(downs, float64(d)/1e6)
		}
		for _, d := range r.totals {
			totals = append(totals, d.Seconds())
		}
	}
	m["sim_downtime_ms_p50"] = percentile(downs, 50)
	m["sim_time_s_p50"] = percentile(totals, 50)
	m["fail_ratio"] = float64(res.failed) / float64(res.attempted)
	m["sim_err_pct_max"] = 0 // reported where the calibration anchors are run: inplace_cold
	if w.name == "inplace_cold" {
		var err error
		if m["sim_err_pct_max"], err = calibError(); err != nil {
			return nil, err
		}
	}

	user := ru1.user - ru0.user
	sys := ru1.sys - ru0.sys
	res.noisy = user+sys > 0 && sys/(user+sys) > 0.5

	if !cfg.trace {
		ops := float64(len(untraced))
		m["op_wall_ms_p50"] = percentile(untraced, 50)
		m["op_wall_ms_p90"] = percentile(untraced, 90)
		m["ops_per_s"] = ops / opWall.Seconds()
		m["alloc_mb_per_op"] = float64(m1.TotalAlloc-m0.TotalAlloc) / ops / (1 << 20)
		m["allocs_per_op"] = float64(m1.Mallocs-m0.Mallocs) / ops
		m["rss_mb_p90"] = percentile(rss, 90)
		m["setup_s"] = percentile(setupTimes, 50)
		return res, nil
	}

	tracedOps := float64(len(traced))
	self, calls := tr.selfTimes()
	for _, d := range perLayer {
		switch {
		case d.perCall:
			m[d.name] = float64(self[d.span]) / 1e6 / float64(max(calls[d.span], 1))
		case d.span != "":
			m[d.name] = float64(self[d.span]) / 1e6 / tracedOps
		case strings.HasSuffix(d.name, "_max"):
			if _, set := m[d.name]; !set {
				m[d.name] = ctr.max[d.name]
			}
		default:
			if _, set := m[d.name]; !set {
				m[d.name] = ctr.sum[d.name] / tracedOps
			}
		}
	}
	if lookups := ctr.sum["tpcache.hits"] + ctr.sum["tpcache.misses"]; lookups > 0 {
		m["tpcache.hit_ratio"] = ctr.sum["tpcache.hits"] / lookups
	}
	m["proc.cpu_user_s"] = user
	m["proc.cpu_sys_s"] = sys
	m["proc.minor_faults"] = float64(ru1.minflt - ru0.minflt)
	m["proc.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	m["proc.gc_pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	m["proc.heap_inuse_peak_mb"] = float64(heapPeak) / (1 << 20)
	m["proc.rss_hwm_mb"] = float64(peakRSSKiB()) / 1024
	m["bench.trace_overhead_pct"] = 100 * (percentile(traced, 50)/percentile(untraced, 50) - 1)

	if err := tr.write(filepath.Join(cfg.outDir, w.name+".spans.jsonl")); err != nil {
		return nil, err
	}
	return res, nil
}

// firstDiff is the first line on which two report texts disagree.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range g {
		if i >= len(w) || g[i] != w[i] {
			return fmt.Sprintf("line %d: got %q, want %q", i+1, g[i], strings.Join(w[min(i, len(w)):min(i+1, len(w))], ""))
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}

// passDigest hashes the virtual-time reports of one pass.
func passDigest(reports []opReport) string {
	h := sha256.New()
	for _, r := range reports {
		fmt.Fprintf(h, "%d:%s\n", len(r.sim), r.sim)
	}
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// calibError is the simulator's worst relative error against the numbers
// the paper prints, over the calibration catalogue.
func calibError() (float64, error) {
	as, err := calib.Assertions()
	if err != nil {
		return 0, fmt.Errorf("calib: %w", err)
	}
	worst := 0.0
	for _, a := range as {
		if a.Want != 0 {
			worst = max(worst, 100*math.Abs(a.Got-a.Want)/math.Abs(a.Want))
		}
	}
	return worst, nil
}

// percentile is the nearest-rank percentile of vals (0 when empty).
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[max(rank, 1)-1]
}

// benchDir is the benchmark's own directory, from the repository root or
// from inside it.
func benchDir() string {
	if _, err := os.Stat("testdata/sim_digest.golden"); err == nil {
		return "."
	}
	return "bench"
}
