# The same commands CI runs (.github/workflows/ci.yml), runnable locally.

GO ?= go
# Packages with real goroutine concurrency; the race detector gates them
# on every change.
RACE_PKGS = ./internal/engine ./internal/core ./internal/wire ./internal/federation ./internal/taskq ./internal/faultnet ./internal/obs ./internal/journal ./internal/event ./internal/trace ./internal/admission
# Packages whose statement coverage must not fall below COVER_FLOOR; the
# scheduling engine and the metrics layer are the paper's core claims,
# the linter is the gate everything else leans on, the journal is what
# crash recovery trusts, the event spine is what every consumer of
# lifecycle state (journal, trace, obs, wire) now rides on, the
# admission plane decides which tasks are turned away at the door, and
# the task store's per-status indexes are what every snapshot reads.
COVER_PKGS = internal/engine internal/metrics internal/lint internal/journal internal/event internal/trace internal/admission internal/taskq
COVER_FLOOR = 70

.PHONY: all build fmt-check lint lint-typed lockorder lockorder-check vet test livebench-test race chaos recovery determinism bench wire-baseline overload overload-baseline fuzz coverage ci

all: build lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Formatting gate: gofmt must have nothing to rewrite anywhere in the tree
# (the live benchmark's build directory aside).
fmt-check:
	@out=$$(find . -name '*.go' -not -path './.bench_build/*' | xargs gofmt -l); \
		[ -z "$$out" ] || { echo "gofmt would rewrite:"; echo "$$out"; exit 1; }

# reactlint is the project-specific suite (docs/LINTING.md). Both tiers:
# syntactic (clock discipline, seeded randomness, lock hygiene, goroutine
# lifecycle, dropped errors, print-debugging) and typed (lock-order
# deadlock detection, hook reentrancy, blocking-under-lock,
# interprocedural clock/RNG taint). Exits non-zero on any finding.
lint: vet
	$(GO) run ./cmd/reactlint ./...

# Just the typed dataflow tier (type-checks the module; slower than the
# syntactic tier, still a few seconds).
lint-typed:
	$(GO) run ./cmd/reactlint -tier typed ./...

# Regenerate the inferred lock-ordering document from the current code.
lockorder:
	$(GO) run ./cmd/reactlint -lockorder-out docs/LOCKORDER.md ./...

# CI gate: docs/LOCKORDER.md must match what the code implies.
lockorder-check:
	@$(GO) run ./cmd/reactlint -lockorder-out /tmp/LOCKORDER.regen.md ./... || true
	@cmp docs/LOCKORDER.md /tmp/LOCKORDER.regen.md || { \
		echo "docs/LOCKORDER.md is out of date; run 'make lockorder' and commit the result"; exit 1; }

test:
	$(GO) test ./...

# The live benchmark is its own module under a `_` directory, so `./...`
# above never reaches it; vet and test it from inside.
livebench-test:
	cd _livebench && $(GO) vet ./... && $(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)

# Fault-injection suite: drives the wire layer through resets, delays,
# partitions, idle-deadline expiry, and a full server restart (via
# internal/faultnet) under the race detector, plus the resilient load
# run. `reactload -chaos` is the same scenario as a live command.
chaos:
	$(GO) test -race -run 'Chaos|Proxy|Resilient' ./internal/wire ./internal/faultnet ./internal/loadgen

# Crash-durability gate: a real reactd with -data-dir is SIGKILLed twice
# mid-run and must recover from its write-ahead journal with zero
# unresolved tasks (docs/PERSISTENCE.md). Skips itself without REACTD_BIN,
# so plain `go test ./...` stays hermetic.
recovery:
	$(GO) build -o /tmp/reactd-recovery ./cmd/reactd
	REACTD_BIN=/tmp/reactd-recovery $(GO) test -race -run TestKillRecovery -count=1 -v ./internal/loadgen

# Two same-seed simulation runs must produce byte-identical reports —
# the reproducibility property the linter exists to protect. Figures
# 3/4 are excluded: they measure real matcher wall time by design.
# Figure 5 is additionally diffed against a checked-in golden file so
# refactors of the scheduling path can't silently shift the numbers.
determinism:
	$(GO) build -o /tmp/reactsim-determinism ./cmd/reactsim
	@for fig in 5 6 7 8 9 10; do \
		/tmp/reactsim-determinism -fig $$fig -quick -seed 7 > /tmp/reactsim-det-a || exit 1; \
		/tmp/reactsim-determinism -fig $$fig -quick -seed 7 > /tmp/reactsim-det-b || exit 1; \
		cmp /tmp/reactsim-det-a /tmp/reactsim-det-b || { echo "fig $$fig NOT deterministic"; exit 1; }; \
		if [ $$fig = 5 ]; then \
			cmp /tmp/reactsim-det-a testdata/golden_fig5_seed7.txt || { echo "fig 5 DIVERGES from testdata/golden_fig5_seed7.txt"; exit 1; }; \
			echo "fig 5: byte-identical + matches golden"; \
		else \
			echo "fig $$fig: byte-identical"; \
		fi; \
	done

# Benchmark gate: first a 1x smoke that the benchmark harnesses still run,
# then the in-process throughput checks against the committed baselines
# (BENCH_engine.json, BENCH_wire.json, and BENCH_overload.json, -40%
# tolerance each, plus the codec's 0 allocs/op encode contract and the
# admission plane's 70%-goodput-at-10x floor). bench_check.json,
# wire_check.json, and overload_check.json are the CI artifacts.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkEngineThroughput|BenchmarkWireEncode' -benchtime 1x .
	$(GO) run ./cmd/reactbench -check -check-out bench_check.json -wire-out wire_check.json -overload-out overload_check.json

# Just the admission overload gate: replay BENCH_overload.json in virtual
# time (deterministic — same numbers on any machine) and enforce the
# goodput floor. docs/ADMISSION.md explains the experiment.
overload:
	$(GO) run ./cmd/reactbench -overload-check -overload-out overload_check.json

# Re-measure the wire grid on this box and rewrite BENCH_wire.json.
wire-baseline:
	$(GO) run ./cmd/reactbench -wire-record

# Re-run the virtual-time overload experiment and rewrite
# BENCH_overload.json (bit-reproducible anywhere).
overload-baseline:
	$(GO) run ./cmd/reactbench -overload-record

# Short fuzz budgets over the frame codec and the journal decoder — the
# nightly workflow's fast leg, runnable locally. FUZZTIME scales it.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzFrameDecode -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz FuzzMessageDecode -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz FuzzJournalDecode -fuzztime $(FUZZTIME) ./internal/journal

# Coverage floor: whole-repo profile (coverage.out is the CI artifact),
# then per-package floors on the packages named in COVER_PKGS.
coverage:
	@$(GO) test -coverprofile=coverage.out ./... > coverage.txt; \
		status=$$?; cat coverage.txt; \
		[ $$status -eq 0 ] || exit $$status
	@for pkg in $(COVER_PKGS); do \
		pct=$$(grep "react/$$pkg" coverage.txt | sed -n 's/.*coverage: \([0-9.]*\)%.*/\1/p'); \
		if [ -z "$$pct" ]; then echo "coverage: no figure for $$pkg"; exit 1; fi; \
		if awk -v p="$$pct" -v f="$(COVER_FLOOR)" 'BEGIN { exit !(p+0 >= f) }'; then \
			echo "coverage: $$pkg $$pct% (floor $(COVER_FLOOR)%)"; \
		else \
			echo "coverage: $$pkg $$pct% BELOW the $(COVER_FLOOR)% floor"; exit 1; \
		fi; \
	done

ci: build fmt-check lint test livebench-test race chaos recovery determinism
