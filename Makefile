# Developer entry points; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test race cover bench-all benchmark-smoke simcheck simlint soak crashtest fuzz lint check figures figures-full examples clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test ./... -race -timeout 15m

# Differential smoke matrix: all models under all engines, clean and
# fault-injected, compared against the sequential reference (seconds).
simcheck:
	$(GO) run ./cmd/simcheck

# Build the simlint multichecker once (CI caches the binary).
bin/simlint: $(shell find internal/analysis cmd/simlint -name '*.go' -not -path '*/testdata/*')
	@mkdir -p bin
	$(GO) build -o bin/simlint ./cmd/simlint

# LINT_FORMAT=json emits machine-readable finding records (waived ones
# included) for CI annotation; the default text output prints only the
# unwaived findings a human must act on. Exit status is identical.
LINT_FORMAT ?= text
simlint: bin/simlint
	./bin/simlint -format $(LINT_FORMAT) ./...

# Randomized soak/chaos run: seeded episode schedule composing the kernel
# fault injectors with live invariant sweeps and the memory valve, failing
# episodes auto-shrunk to .replay artifacts (docs/TESTING.md, "Soaking").
# Defaults match the per-PR CI smoke soak; the nightly run uses a rotating
# seed and a 20-minute budget.
SOAK_SEED ?= 7
SOAK_WALL ?= 90s
soak:
	$(GO) run ./cmd/soaktest -seed $(SOAK_SEED) -wall $(SOAK_WALL) -artifacts soak-artifacts

# Crash-recovery smoke: build a crashpoints-tagged child (with -race),
# SIGKILL it at every registered kill point inside checkpoint publication,
# and require each resumed run to reproduce the uninterrupted recording
# bit-for-bit (docs/TESTING.md, "Crash testing"). The nightly CI job runs
# the randomized variant (-iters) with a rotating seed.
crashtest:
	$(GO) run ./cmd/crashtest -race -artifacts crash-artifacts

# Fuzz smoke: the replay log, the checkpoint file and every model codec
# take attacker-grade input from disk, and the ladder queue holds every
# pending event. Plain `go test` runs only the seed corpora; this explores
# past them for 20 s per target (go test accepts one -fuzz target per
# invocation).
fuzz:
	$(GO) test ./internal/replay -run '^$$' -fuzz '^FuzzReplayCodec$$' -fuzztime 20s
	$(GO) test ./internal/replay -run '^$$' -fuzz '^FuzzCheckpointCodec$$' -fuzztime 20s
	$(GO) test ./internal/simcheck -run '^$$' -fuzz '^FuzzModelCodecs$$' -fuzztime 20s
	$(GO) test ./internal/eventq -run '^$$' -fuzz '^FuzzQueuesDifferential$$' -fuzztime 20s

# Static analysis: gofmt, go vet, and the simlint Time Warp contract
# checkers (docs/ANALYSIS.md). Fails on any unannotated finding.
# (staticcheck would slot in here, but the build environment is offline;
# vet + simlint are the self-contained equivalent.)
lint: simlint
	$(GO) vet ./...
	@fmt_out=$$(gofmt -l . 2>/dev/null); \
	if [ -n "$$fmt_out" ]; then \
	  echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; \
	fi

# Everything a PR must pass: vet, lint, tests, race tests, differential
# matrix, crash-recovery sweep, benchmark smoke test.
check: build lint test race simcheck crashtest benchmark-smoke

cover:
	$(GO) test ./internal/... -cover

# The performance reference under benchmark/ is a module of its own, which
# `go build ./... && go test ./...` never compiles. Its smoke test drives all
# four workloads at toy scale against the sequential oracle (<5 s), so a
# change to the public surface it wraps (routing.Policy, routing.Ctx,
# traffic.Pattern, core.Recycler, ...) fails here. `bash benchmark/run.sh` is
# the measurement; see benchmark/README.md.
benchmark-smoke:
	cd benchmark && $(GO) test ./...

# Every benchmark in every package, human-readable: the per-figure
# miniatures in the root bench_test.go and the package microbenchmarks.
# Nothing gates on these numbers; performance claims go through
# `bash benchmark/run.sh` (benchmark/README.md), allocation ceilings
# through the TestEventPathAllocs / TestLadderSteadyStateAllocs Go tests.
bench-all:
	$(GO) test -bench=. -benchmem ./...

# Regenerate every report figure at quick scale (minutes).
figures:
	$(GO) run ./cmd/figures -fig all

# Report-scale sweeps: N up to 256 — hours of CPU and lots of memory.
figures-full:
	$(GO) run ./cmd/figures -fig all -full

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/optical
	$(GO) run ./examples/pcs
	$(GO) run ./examples/determinism
	$(GO) run ./examples/custommodel
	$(GO) run ./examples/tracing

clean:
	$(GO) clean ./...
