package chaos

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"hypertp/internal/simtime"
)

// Trace mutators. Each is a pure function of (cfg, ops, seed): same
// inputs, same mutated trace, on any platform — the determinism that
// makes a fuzz crasher replay byte-for-byte from its input alone. All
// return fresh slices; the input ops are never aliased or modified.
//
// The catalogue mirrors the record/replay fuzzing substrate of IRIS
// (PAPERS.md): reorder within dependency constraints, fault-site
// swaps, seed perturbation, and op splicing from donor traces.

// mutationKind selects one mutator.
type mutationKind int

const (
	// mutReorder swaps adjacent independent ops (disjoint hosts and
	// VMs, neither fleet-wide), exploring interleavings that the
	// generator's single sequential stream never emits.
	mutReorder mutationKind = iota
	// mutFaultSwap permutes the per-op fault-plan seeds among the ops
	// that carry one and re-derives a fraction, moving fault sites
	// between operations without changing the op sequence.
	mutFaultSwap
	// mutSeedPerturb perturbs the trace's base seed and the bounded
	// scalar op fields (workload pages, crash-storm counts).
	mutSeedPerturb
	// mutSplice inserts a short contiguous run of ops generated from a
	// donor trace (Generate under a derived seed) at a random
	// position.
	mutSplice
	numMutationKinds
)

func (k mutationKind) String() string {
	switch k {
	case mutReorder:
		return "reorder"
	case mutFaultSwap:
		return "fault-swap"
	case mutSeedPerturb:
		return "seed-perturb"
	case mutSplice:
		return "splice"
	}
	return "unknown"
}

// mutate applies the mutator chain selected by seed: zero is the
// identity, anything else applies 1–3 mutators drawn from the
// catalogue, each under its own derived sub-seed.
func mutate(cfg Config, ops []Op, seed uint64) (Config, []Op) {
	if seed == 0 || len(ops) == 0 {
		return cfg, append([]Op(nil), ops...)
	}
	rng := simtime.NewRand(seed)
	n := 1 + rng.Intn(3)
	for i := 0; i < n; i++ {
		kind := mutationKind(rng.Intn(int(numMutationKinds)))
		cfg, ops = applyMutation(kind, cfg, ops, rng.Uint64())
	}
	// Splice can push past the replay budget; re-clamp.
	return clampTrace(cfg, ops)
}

// applyMutation runs a single mutator.
func applyMutation(kind mutationKind, cfg Config, ops []Op, seed uint64) (Config, []Op) {
	switch kind {
	case mutReorder:
		return cfg, reorder(ops, seed)
	case mutFaultSwap:
		return cfg, faultSwap(ops, seed)
	case mutSeedPerturb:
		return seedPerturb(cfg, ops, seed)
	case mutSplice:
		return cfg, splice(cfg, ops, seed)
	}
	return cfg, append([]Op(nil), ops...)
}

// fleetWide reports whether an op's effect spans the whole fleet, which
// makes it order-dependent with everything.
func fleetWide(op Op) bool {
	switch op.Kind {
	case OpLinkDown, OpLinkUp, OpRespond, OpRespondFleet,
		OpSweep, OpCrashStorm:
		return true
	}
	return false
}

// entities returns the named hosts and VMs an op touches.
func entities(op Op) (hosts, vms []string) {
	if op.Host != "" {
		hosts = append(hosts, op.Host)
	}
	if op.Kind == OpMigrate && op.Target != "" {
		hosts = append(hosts, op.Target)
	}
	if op.VM != "" {
		vms = append(vms, op.VM)
	}
	return hosts, vms
}

// independent reports whether two adjacent ops may swap: neither is
// fleet-wide and their named hosts and VMs are disjoint.
func independent(a, b Op) bool {
	if fleetWide(a) || fleetWide(b) {
		return false
	}
	ha, va := entities(a)
	hb, vb := entities(b)
	for _, x := range ha {
		for _, y := range hb {
			if x == y {
				return false
			}
		}
	}
	for _, x := range va {
		for _, y := range vb {
			if x == y {
				return false
			}
		}
	}
	return true
}

// reorder performs len(ops) random adjacent swaps, each allowed only
// when the pair is independent. The op multiset is always preserved.
func reorder(ops []Op, seed uint64) []Op {
	out := append([]Op(nil), ops...)
	if len(out) < 2 {
		return out
	}
	rng := simtime.NewRand(seed)
	// A seed-dependent attempt count, so short traces don't always see
	// an even number of swaps undoing each other.
	attempts := 1 + rng.Intn(2*len(out))
	for k := 0; k < attempts; k++ {
		i := rng.Intn(len(out) - 1)
		if independent(out[i], out[i+1]) {
			out[i], out[i+1] = out[i+1], out[i]
		}
	}
	return out
}

// faultSwap rotates the fault-plan seeds among the fault-carrying ops
// and re-derives roughly a quarter of them, so injected fault sites
// move between operations.
func faultSwap(ops []Op, seed uint64) []Op {
	out := append([]Op(nil), ops...)
	rng := simtime.NewRand(seed)
	var idx []int
	for i, op := range out {
		if op.Fault != 0 {
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 {
		return out
	}
	// Deterministic Fisher–Yates over the carriers, then a rotation so
	// even a 2-carrier trace actually moves its seeds.
	seeds := make([]uint64, len(idx))
	for k, i := range idx {
		seeds[k] = out[i].Fault
	}
	for k := len(seeds) - 1; k > 0; k-- {
		j := rng.Intn(k + 1)
		seeds[k], seeds[j] = seeds[j], seeds[k]
	}
	rot := rng.Intn(len(seeds))
	for k, i := range idx {
		s := seeds[(k+rot)%len(seeds)]
		if rng.Intn(4) == 0 {
			s = rng.Uint64() | 1
		}
		out[i].Fault = s
	}
	return out
}

// seedPerturb perturbs the trace seed (which drives harness-internal
// randomness such as migration receive jitter) and the bounded scalar
// op fields, staying inside the generator's own ranges.
func seedPerturb(cfg Config, ops []Op, seed uint64) (Config, []Op) {
	rng := simtime.NewRand(seed)
	cfg.Seed = (cfg.Seed ^ rng.Uint64()) | 1
	out := append([]Op(nil), ops...)
	for i := range out {
		switch out[i].Kind {
		case OpWorkload:
			if rng.Intn(2) == 0 {
				out[i].Pages = 1 + rng.Intn(64)
			}
		case OpCrashStorm:
			if rng.Intn(2) == 0 {
				out[i].Count = 2 + rng.Intn(3)
			}
		}
	}
	return cfg, out
}

// splice inserts a 1–4 op run generated from a donor trace (same fleet
// shape, derived seed) at a random position.
func splice(cfg Config, ops []Op, seed uint64) []Op {
	rng := simtime.NewRand(seed)
	donorCfg := cfg
	donorCfg.Seed = rng.Uint64() | 1
	donorCfg.Ops = 8
	donor := Generate(donorCfg)
	n := 1 + rng.Intn(4)
	start := rng.Intn(len(donor) - n + 1)
	pos := rng.Intn(len(ops) + 1)
	out := make([]Op, 0, len(ops)+n)
	out = append(out, ops[:pos]...)
	out = append(out, donor[start:start+n]...)
	out = append(out, ops[pos:]...)
	return out
}

func genTrace(tb testing.TB, cfg Config) (Config, []Op) {
	tb.Helper()
	ops := Generate(cfg)
	if len(ops) == 0 {
		tb.Fatal("empty generated trace")
	}
	return cfg, ops
}

func opMultiset(ops []Op) []string {
	out := make([]string, len(ops))
	for i, op := range ops {
		out[i] = fmt.Sprintf("%+v", op)
	}
	sort.Strings(out)
	return out
}

// Every mutator must be a pure function of (cfg, ops, seed) and must
// not alias or modify its input.
func TestMutatorsDeterministicAndPure(t *testing.T) {
	cfg, ops := genTrace(t, Config{Seed: 20210426, Ops: 30, Hosts: 4, VMs: 6, FaultRate: 0.2})
	orig := append([]Op(nil), ops...)
	for kind := mutationKind(0); kind < numMutationKinds; kind++ {
		c1, o1 := applyMutation(kind, cfg, ops, 0xfeed)
		c2, o2 := applyMutation(kind, cfg, ops, 0xfeed)
		if !reflect.DeepEqual(o1, o2) || !reflect.DeepEqual(c1, c2) {
			t.Fatalf("%v: same seed produced different mutations", kind)
		}
		if !reflect.DeepEqual(ops, orig) {
			t.Fatalf("%v: mutator modified its input", kind)
		}
		if len(o1) > 0 && &o1[0] == &ops[0] {
			t.Fatalf("%v: mutator aliased its input", kind)
		}
	}
	// The full chain too, including the identity at seed zero.
	_, same := mutate(cfg, ops, 0)
	if !reflect.DeepEqual(same, orig) {
		t.Fatal("mutate(seed=0) is not the identity")
	}
	c1, m1 := mutate(cfg, ops, 77)
	c2, m2 := mutate(cfg, ops, 77)
	if !reflect.DeepEqual(m1, m2) || !reflect.DeepEqual(c1, c2) {
		t.Fatal("Mutate: same seed produced different traces")
	}
	if reflect.DeepEqual(m1, orig) {
		t.Fatal("mutate(seed=77) left the trace untouched")
	}
}

// reorder may only permute — never add, drop, or edit ops — and every
// swap it performs must respect the independence constraint.
func TestReorderPreservesMultisetAndConstraints(t *testing.T) {
	_, ops := genTrace(t, Config{Seed: 7, Ops: 40, Hosts: 4, VMs: 6, FaultRate: 0.3})
	for seed := uint64(1); seed <= 20; seed++ {
		out := reorder(ops, seed)
		if !reflect.DeepEqual(opMultiset(out), opMultiset(ops)) {
			t.Fatalf("seed %d: reorder changed the op multiset", seed)
		}
	}

	// Fleet-wide ops are dependency barriers: the sub-sequence of
	// fleet-wide ops must be untouched by any reorder.
	fleetSeq := func(ops []Op) []string {
		var out []string
		for _, op := range ops {
			if fleetWide(op) {
				out = append(out, fmt.Sprintf("%+v", op))
			}
		}
		return out
	}
	for seed := uint64(1); seed <= 20; seed++ {
		if !reflect.DeepEqual(fleetSeq(reorder(ops, seed)), fleetSeq(ops)) {
			t.Fatalf("seed %d: reorder moved a fleet-wide op", seed)
		}
	}

	// Two ops naming the same host must keep their relative order.
	deps := []Op{
		{Kind: OpQuarantine, Host: "host-00"},
		{Kind: OpReturn, Host: "host-00"},
	}
	for seed := uint64(1); seed <= 50; seed++ {
		if got := reorder(deps, seed); got[0].Kind != OpQuarantine {
			t.Fatalf("seed %d: dependent pair swapped", seed)
		}
	}

	// And a genuinely independent pair must swap for some seed.
	indep := []Op{
		{Kind: OpUpgrade, Host: "host-00"},
		{Kind: OpUpgrade, Host: "host-01"},
	}
	swapped := false
	for seed := uint64(1); seed <= 50 && !swapped; seed++ {
		swapped = reorder(indep, seed)[0].Host == "host-01"
	}
	if !swapped {
		t.Fatal("independent pair never swapped in 50 seeds")
	}
}

// faultSwap moves fault-plan seeds between ops without changing the op
// sequence or the set of fault-carrying positions.
func TestFaultSwapMovesSeedsOnly(t *testing.T) {
	_, ops := genTrace(t, Config{Seed: 3, Ops: 40, Hosts: 4, VMs: 6, FaultRate: 0.5})
	carriers := 0
	for _, op := range ops {
		if op.Fault != 0 {
			carriers++
		}
	}
	if carriers < 2 {
		t.Fatalf("trace has %d fault carriers, need >=2", carriers)
	}
	moved := false
	for seed := uint64(1); seed <= 10; seed++ {
		out := faultSwap(ops, seed)
		if len(out) != len(ops) {
			t.Fatal("fault swap changed trace length")
		}
		for i := range out {
			bare, bareOut := out[i], ops[i]
			bare.Fault, bareOut.Fault = 0, 0
			if !reflect.DeepEqual(bare, bareOut) {
				t.Fatalf("seed %d: op %d changed beyond its fault seed", seed, i)
			}
			if (out[i].Fault == 0) != (ops[i].Fault == 0) {
				t.Fatalf("seed %d: op %d gained or lost its fault plan", seed, i)
			}
			if out[i].Fault != ops[i].Fault {
				moved = true
			}
			if out[i].Fault != 0 && out[i].Fault%2 == 0 {
				t.Fatalf("seed %d: op %d has even fault seed", seed, i)
			}
		}
	}
	if !moved {
		t.Fatal("fault seeds never moved in 10 seeds")
	}
}

// seedPerturb keeps scalar fields inside the generator's own ranges.
func TestSeedPerturbStaysInRange(t *testing.T) {
	cfg, ops := genTrace(t, Config{Seed: 5, Ops: 40, Hosts: 4, VMs: 6, FaultRate: 0.2, Crash: true})
	for seed := uint64(1); seed <= 10; seed++ {
		newCfg, out := seedPerturb(cfg, ops, seed)
		if newCfg.Seed == cfg.Seed {
			t.Fatalf("seed %d: config seed unchanged", seed)
		}
		for i, op := range out {
			if op.Kind == OpWorkload && (op.Pages < 1 || op.Pages > 64) {
				t.Fatalf("seed %d: op %d pages %d out of range", seed, i, op.Pages)
			}
			if op.Kind == OpCrashStorm && (op.Count < 2 || op.Count > 4) {
				t.Fatalf("seed %d: op %d count %d out of range", seed, i, op.Count)
			}
		}
	}
}

// splice grows the trace by 1-4 ops drawn from a donor trace over the
// same fleet shape, preserving the original ops as a subsequence split
// at one point.
func TestSpliceInsertsDonorRun(t *testing.T) {
	cfg, ops := genTrace(t, Config{Seed: 11, Ops: 20, Hosts: 3, VMs: 4})
	for seed := uint64(1); seed <= 10; seed++ {
		out := splice(cfg, ops, seed)
		grown := len(out) - len(ops)
		if grown < 1 || grown > 4 {
			t.Fatalf("seed %d: splice grew trace by %d ops", seed, grown)
		}
		// The original trace must survive as prefix + suffix around the
		// inserted run.
		found := false
		for pos := 0; pos+grown <= len(out) && !found; pos++ {
			found = reflect.DeepEqual(out[:pos], ops[:pos]) &&
				reflect.DeepEqual(out[pos+grown:], ops[pos:])
		}
		if !found {
			t.Fatalf("seed %d: spliced trace does not contain the original as a split subsequence", seed)
		}
	}
}
