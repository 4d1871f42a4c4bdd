package chaos

import (
	"encoding/json"
	"fmt"
)

// bundleVersion gates replay compatibility: a bundle written by one
// build replays only on builds that understand its layout.
const bundleVersion = 1

// Bundle is a self-contained, replayable record of a run: the exact
// config and op list, plus — for failure bundles — what broke.
// Serialized as indented JSON with struct-ordered fields, so identical
// runs produce byte-identical bundles.
//
// Two flavors share the format. A failure bundle (NewBundle) carries
// the violated invariant and its detail so a replay can confirm
// reproduction. A trace bundle (NewTraceBundle) records any run —
// passing or failing — as corpus material for record/replay fuzzing:
// the differential fuzzer mutates recorded op lists and replays them
// under the full invariant auditor. Both replay identically; only the
// failure fields distinguish them.
type Bundle struct {
	Version   int      `json:"version"`
	Config    Config   `json:"config"`
	Ops       []Op     `json:"ops"`
	Invariant string   `json:"invariant,omitempty"`
	Detail    string   `json:"detail,omitempty"`
	Trace     []string `json:"trace,omitempty"`
}

// NewBundle packages a failing run (typically after Shrink) for replay.
func NewBundle(cfg Config, ops []Op, fail *Failure, trace []string) *Bundle {
	b := NewTraceBundle(cfg, ops)
	b.Invariant = fail.Invariant
	b.Detail = fail.Detail
	b.Trace = append([]string(nil), trace...)
	return b
}

// NewTraceBundle packages a recorded op stream — no failure attached —
// as replayable corpus material. The config is normalized through
// withDefaults so the bundle replays on exactly the fleet that
// recorded it.
func NewTraceBundle(cfg Config, ops []Op) *Bundle {
	return &Bundle{
		Version: bundleVersion,
		Config:  cfg.withDefaults(),
		Ops:     append([]Op(nil), ops...),
	}
}

// IsFailure reports whether the bundle records an invariant violation
// (as opposed to a plain recorded trace).
func (b *Bundle) IsFailure() bool { return b.Invariant != "" }

// Marshal renders the bundle deterministically.
func (b *Bundle) Marshal() ([]byte, error) {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// ParseBundle validates and decodes a replay bundle. An op kind outside
// the vocabulary is an error naming the op, not a replay that fails it:
// a bundle recorded by a build with another vocabulary would otherwise
// replay as a different run.
func ParseBundle(data []byte) (*Bundle, error) {
	var b Bundle
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("chaos: bad bundle: %w", err)
	}
	if b.Version != bundleVersion {
		return nil, fmt.Errorf("chaos: bundle version %d, want %d", b.Version, bundleVersion)
	}
	if len(b.Ops) == 0 {
		return nil, fmt.Errorf("chaos: bundle has no ops")
	}
	for i, op := range b.Ops {
		if !knownKind(op.Kind) {
			return nil, fmt.Errorf("chaos: bundle op %d has unknown kind %q", i, op.Kind)
		}
	}
	return &b, nil
}

// Replay re-executes the bundle's ops under its config on a fresh
// fleet. The caller inspects Result.Failure to confirm reproduction.
func (b *Bundle) Replay() (*Result, error) {
	return RunOps(b.Config, b.Ops)
}
