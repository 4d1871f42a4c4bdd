GO ?= go

# Packages with fuzz targets and checked-in seed corpora.
FUZZ_PKGS = ./internal/uisr/ ./internal/hv/xen/ ./internal/checkpoint/ \
	./internal/pram/ ./internal/chaos/ ./internal/core/ ./internal/hw/

.PHONY: all build vet fmt-check loc test race check bench benchfig \
	trace-demo slo-demo fault-matrix crash-matrix soak crash-storm \
	soak-short race-check fuzz-seeds calib-check bench-smoke

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt-check fails (listing the offenders) if any file is not gofmt-clean,
# and runs vet so style and static checks gate together.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...

# loc prints the non-test Go line count of every internal/* package
# (sub-packages included) and of the whole tree outside bench/ (a module
# of its own, measured by its own gates), and fails when the total
# exceeds LOC_CEILING or the number of internal/* packages exceeds
# PKG_CEILING. Both are ratchets: a PR that grows the tree raises them in
# the same diff, where a reviewer sees it; a simplicity PR lowers them to
# its own result and cites the before/after in CHANGES.md.
LOC_CEILING = 22230
PKG_CEILING = 27
loc:
	@src() { find "$$@" -name '*.go' ! -name '*_test.go' -not -path './bench/*' -not -path './.bench_build/*'; }; \
	for d in internal/*/; do printf '%6d  %s\n' "$$(src $$d | xargs cat | wc -l)" "$$d"; done; \
	total=$$(src . | xargs cat | wc -l); pkgs=$$(ls -d internal/*/ | wc -l); \
	printf '%6d  total non-test Go lines (ceiling $(LOC_CEILING)), %d internal packages (ceiling $(PKG_CEILING))\n' \
		$$total $$pkgs; \
	[ $$total -le $(LOC_CEILING) ] || { \
		echo "loc: $$total non-test lines exceed the ceiling of $(LOC_CEILING) (Makefile, LOC_CEILING)"; exit 1; }; \
	[ $$pkgs -le $(PKG_CEILING) ] || { \
		echo "loc: $$pkgs internal packages exceed the ceiling of $(PKG_CEILING) (Makefile, PKG_CEILING)"; exit 1; }

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# check is the PR gate: formatting + vet + build + the full suite under
# the race detector (the determinism and pool-stress tests rely on it),
# the allocation budgets without it (the detector drops pooled buffers at
# random, so they skip under it), plus the short chaos soak, the parser
# fuzz seeds and the benchmark module's smoke run.
check: fmt-check
	$(GO) vet ./... && $(GO) build ./... && $(GO) test -race ./...
	$(GO) test -count=1 -run AllocBudget ./...
	$(MAKE) soak-short
	$(MAKE) bench-smoke

# bench-smoke compiles, tests and runs bench/ at its smallest scale.
# bench/ is a module of its own, so `go build ./... && go test ./...`
# never compiles it, yet it calls internal/ packages by name: this is
# the gate that a signature it uses still exists and its goldens hold.
bench-smoke:
	$(GO) vet -C bench ./... && $(GO) test -C bench ./... && bash bench/run.sh -scale tiny

# bench runs every layer benchmark with allocation stats: profiling
# entry points, not a gate. Allocation counts are gated by the tier-1
# *AllocBudget* tests; wall-time claims are made on alternating
# parent/change pairs of bench/run.sh. -run '^$$' keeps plain tests out of
# the timing.
bench:
	$(GO) test -bench . -benchmem -run '^$$' ./...

# matrix runs, under the race detector, the top-level tests of packages
# $(3) that regex $(1) names, and fails unless they pass and at least $(2)
# of them ran: `go test -run` is content with a regex that matches
# nothing, so a renamed test would otherwise leave the gate unnoticed. The
# count beside each regex is how many tests it names today; raise it when
# adding one.
define matrix
	@log=$$(mktemp); \
	$(GO) test -race -count=1 -v -run '$(1)' $(3) >$$log 2>&1; status=$$?; \
	grep -E '^(--- |FAIL|ok|panic:)|^ +--- FAIL' $$log; \
	ran=$$(grep -c '^--- PASS: ' $$log); rm -f $$log; \
	[ $$status -eq 0 ] || exit $$status; \
	[ $$ran -ge $(2) ] || { echo "$@: $$ran top-level tests ran, the gate names $(2): was one renamed or removed?"; exit 1; }
endef

# fault-matrix runs the recovery matrix under the race detector: every
# registered fault-injection site x {InPlaceTP, MigrationTP} must end in
# a checksum-verified full rollback or full completion, plus the
# fault-seed determinism check across worker-pool sizes.
FAULT_MATRIX_RUN = TestRecoveryMatrix|TestFaultDeterminismAcrossWorkers
FAULT_MATRIX_TESTS = 2
fault-matrix:
	$(call matrix,$(FAULT_MATRIX_RUN),$(FAULT_MATRIX_TESTS),./internal/core/)

# crash-matrix is fault-matrix's reactive-recovery counterpart: the
# emergency-transplant paths (spontaneous fail-stop, hang fencing, the
# mid-transplant double fault and its driver self-heal), the
# crash-storm scheduled recovery, and their determinism across
# worker-pool sizes — all under the race detector.
CRASH_MATRIX_RUN = TestEmergency|TestDetect|TestDetector|TestCrashAndRecoverHost|TestHangIsFencedAndRecovered|TestRecoverEmptyDownedHost|TestHostLiveUpgradeSelfHealsDoubleFault|TestRecoverHostFrozenIsRetryable|TestCrashStorm
CRASH_MATRIX_TESTS = 18
crash-matrix:
	$(call matrix,$(CRASH_MATRIX_RUN),$(CRASH_MATRIX_TESTS),./internal/core/ ./internal/orchestrator/ ./internal/reactive/)

# soak runs a long randomized chaos scenario per seed in SOAK_SEEDS: 500
# fleet operations under fault injection with every global invariant
# audited after each step and every span tree as it ends, in bounded
# span memory. On a violation it exits 2 and writes a shrunk replay
# bundle plus the metrics/flight-recorder artifacts (chaos-metrics.json,
# chaos-flight.jsonl). One seed is not a soak: what one seed's op stream
# never reaches, the next one's does.
SOAK_SEEDS ?= 1 2 3 4 5 6 7 8
soak:
	@for s in $(SOAK_SEEDS); do \
		$(GO) run ./cmd/chaoscheck -seed $$s -ops 500 -fault-rate 0.15 || exit $$?; done

# crash-storm is the soak with the reactive-recovery op vocabulary
# enabled: hypervisor fail-stops, hangs, fleet-wide crash storms and
# mid-transplant double faults, every recovery audited for frame
# ownership, guest checksums and Nova bookkeeping.
crash-storm:
	@for s in $(SOAK_SEEDS); do \
		$(GO) run ./cmd/chaoscheck -seed $$s -ops 500 -fault-rate 0.15 -crash || exit $$?; done

# race-check fails fast, with a readable message, when the toolchain
# cannot run `go test -race` (no CGO, or an unsupported platform) —
# otherwise the soak dies minutes in with an opaque linker error.
race-check:
	@$(GO) test -race -count=1 -run '^$$' ./internal/simtime/ >/dev/null 2>&1 || { \
		echo "error: this toolchain cannot run 'go test -race'" >&2; \
		echo "       the race detector needs CGO and a supported platform;" >&2; \
		echo "       run 'CGO_ENABLED=1 $(GO) test -race ./internal/simtime/' to see the underlying failure" >&2; \
		exit 1; }

# fuzz-seeds regenerates the checked-in seed corpora under each fuzz
# package's testdata/fuzz/ from the targets' own f.Add seed lists.
# Commit the result; TestFuzzSeedCorpus fails when they drift.
fuzz-seeds:
	HYPERTP_WRITE_FUZZ_SEEDS=1 $(GO) test -count=1 -run TestFuzzSeedCorpus $(FUZZ_PKGS)

# calib-check evaluates the timing-calibration catalogue: every
# CostModel formula and measured engine run must land on the paper's
# published figure shapes within declared tolerances (internal/calib),
# and a perturbed cost constant must trip the gate (the negative half).
calib-check:
	$(GO) test -count=1 -run TestCalib ./internal/calib/

# soak-short is the tier-1 slice of the chaos harness: the short soak
# under the race detector plus ten seconds of real fuzzing on each parser
# of preserved or stored state (UISR blob, Xen HVM context, PRAM pages,
# checkpoint image), all reading through uisr.Reader, on physical memory
# itself against its per-frame reference model — shared pages carry
# every warm hop's PRAM metadata and UISR blob images — on the memory-map
# summary against the consumers' own checks it replaced, and on the
# converter matrix, whose cached Xen/KVM/NOVA tours install those images
# and answer their decodes from the memo, byte-identical to the cold run.
# Physical memory is fuzzed twice: under the race detector, which finds
# little time to leave the seed corpus in ten seconds, and in a plain
# build, which runs thousands of sequences against the reference model.
soak-short: race-check
	$(GO) test -race -count=1 -run TestChaosSoakShort ./internal/chaos/
	$(GO) test -race -fuzz FuzzDecode -fuzztime 10s ./internal/uisr/
	$(GO) test -race -fuzz FuzzMemMap -fuzztime 10s ./internal/uisr/
	$(GO) test -race -fuzz FuzzParseContext -fuzztime 10s ./internal/hv/xen/
	$(GO) test -race -fuzz FuzzParse -fuzztime 10s ./internal/pram/
	$(GO) test -race -fuzz FuzzDeserialize -fuzztime 10s ./internal/checkpoint/
	$(GO) test -race -fuzz FuzzPhysMemOps -fuzztime 10s ./internal/hw/
	$(GO) test -fuzz FuzzPhysMemOps -fuzztime 10s ./internal/hw/
	$(GO) test -race -fuzz FuzzRoundTrip -fuzztime 10s ./internal/core/

benchfig:
	$(GO) run ./cmd/benchfig

# trace-demo runs one Figure-7 in-place transplant with tracing on and
# verifies the artifact directory: the Chrome trace parses, is
# non-empty, and covers every Fig. 3 workflow step, and the JSONL span
# records pass the span auditor. It then runs the README's degraded
# rolling upgrade (hosts failing at cluster.host) and audits its spans
# too. The trace lands in /tmp/hypertp-trace for opening in Perfetto
# (https://ui.perfetto.dev) or chrome://tracing.
trace-demo:
	$(GO) run ./cmd/tpctl -mode inplace -from xen -to kvm -machine M1 \
		-vms 4 -vcpus 2 -mem-gib 2 -artifact-dir /tmp/hypertp-trace
	$(GO) run ./cmd/tracecheck -require-steps /tmp/hypertp-trace/trace.json
	$(GO) run ./cmd/tracecheck -jsonl /tmp/hypertp-trace/spans.jsonl
	$(GO) run ./cmd/clustersim -hosts 10 -vms-per-host 10 \
		-fault-seed 7 -fault-rate 0.2 -fault-sites cluster.host \
		-artifact-dir /tmp/hypertp-degraded-upgrade
	$(GO) run ./cmd/tracecheck -jsonl /tmp/hypertp-degraded-upgrade/spans.jsonl

# slo-demo runs the fleet CVE response with vulnerability-window SLO
# tracking and prints the remediation-latency report and burn-rate
# verdict; a blown SLO is a non-zero exit. The concurrent response's
# artifacts, the hypertp_slo_* series in metrics.prom among them, land
# in /tmp/hypertp-slo.
slo-demo:
	$(GO) run ./cmd/clustersim -fleet -hosts 20 -fleet-vms 40 \
		-artifact-dir /tmp/hypertp-slo
