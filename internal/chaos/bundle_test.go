package chaos

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestBundleVersionMismatch: a bundle written by a future (or past)
// layout must be rejected with an error naming both versions, so the
// operator replaying a CI artifact knows it is a build skew, not a
// corrupt file.
func TestBundleVersionMismatch(t *testing.T) {
	res, err := Run(Config{Seed: 7, Ops: 5, FaultRate: 0})
	if err != nil {
		t.Fatal(err)
	}
	b := NewTraceBundle(Config{Seed: 7, Ops: 5}, res.Ops)
	for _, v := range []int{0, bundleVersion - 1, bundleVersion + 1, 99} {
		b.Version = v
		data, err := b.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		_, err = ParseBundle(data)
		if err == nil {
			t.Fatalf("accepted bundle version %d", v)
		}
		if !strings.Contains(err.Error(), fmt.Sprintf("version %d", v)) ||
			!strings.Contains(err.Error(), fmt.Sprintf("want %d", bundleVersion)) {
			t.Fatalf("version-mismatch error %q does not name both versions", err)
		}
	}
}

// TestTraceBundleRoundTrip: a failure-less trace bundle — the corpus
// format the differential fuzzer records and mutates — marshals without
// failure fields, survives a parse round-trip, and replays cleanly.
func TestTraceBundleRoundTrip(t *testing.T) {
	cfg := Config{Seed: 42, Ops: 12, Hosts: 3, VMs: 4}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failure != nil {
		t.Fatalf("fault-free recording run failed: %+v", res.Failure)
	}

	b := NewTraceBundle(cfg, res.Ops)
	if b.IsFailure() {
		t.Fatal("trace bundle claims to be a failure bundle")
	}
	data, err := b.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte(`"invariant"`)) || bytes.Contains(data, []byte(`"detail"`)) {
		t.Fatalf("trace bundle serialized empty failure fields:\n%s", data)
	}

	parsed, err := ParseBundle(data)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.IsFailure() {
		t.Fatal("parsed trace bundle claims to be a failure bundle")
	}
	if !reflect.DeepEqual(parsed.Ops, b.Ops) {
		t.Fatal("ops changed across marshal/parse round-trip")
	}
	replay, err := parsed.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if replay.Failure != nil {
		t.Fatalf("replaying a clean trace bundle failed: %+v", replay.Failure)
	}

	// Failure bundles still carry (and serialize) the violation.
	fb := NewBundle(cfg, res.Ops, &Failure{Invariant: "frame-ownership", Detail: "x"}, nil)
	if !fb.IsFailure() {
		t.Fatal("failure bundle not flagged as one")
	}
	fdata, err := fb.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(fdata, []byte(`"invariant": "frame-ownership"`)) {
		t.Fatalf("failure bundle dropped its invariant:\n%s", fdata)
	}
}

// TestShrinkIdempotence: Shrink claims local minimality — no single op
// removal preserves the failure — so running it on its own output must
// be a fixed point: shrink(shrink(b)) == shrink(b).
func TestShrinkIdempotence(t *testing.T) {
	cfg := soakConfig()
	cfg.Ops = 40
	cfg.FaultRate = 0
	cfg.Break = "leak-frame"
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failure == nil {
		t.Fatal("breaker not caught")
	}

	once, failOnce := Shrink(cfg, res.Ops, res.Failure)
	twice, failTwice := Shrink(cfg, once, failOnce)
	if !reflect.DeepEqual(once, twice) {
		t.Fatalf("shrink is not idempotent:\nonce:  %+v\ntwice: %+v", once, twice)
	}
	if failOnce.Invariant != failTwice.Invariant || failOnce.OpIndex != failTwice.OpIndex {
		t.Fatalf("re-shrinking moved the failure: %+v vs %+v", failOnce, failTwice)
	}
}

// TestBundleUnknownOpKind: a bundle naming an op kind outside the
// vocabulary — one recorded before an op was retired, or a misspelling —
// is rejected with an error naming the kind and the op's index, instead
// of replaying as a run with one op error.
func TestBundleUnknownOpKind(t *testing.T) {
	res, err := Run(Config{Seed: 7, Ops: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"warm-pool-refill", "upgarde", ""} {
		b := NewTraceBundle(Config{Seed: 7, Ops: 5}, res.Ops)
		b.Ops[3].Kind = kind
		data, err := b.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		_, err = ParseBundle(data)
		if err == nil {
			t.Fatalf("accepted op kind %q", kind)
		}
		if want := fmt.Sprintf("op 3 has unknown kind %q", kind); !strings.Contains(err.Error(), want) {
			t.Fatalf("unknown-kind error %q lacks %q", err, want)
		}
	}
}
