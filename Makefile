GO ?= go

.PHONY: all build vet fmt lint test race bench-smoke bench-record bench-diff bench-evaluate bench-typed bench-typed-record bench-scale bench-scale-record trace-smoke check

# Benchmarks guarded by the >10% regression gate (cmd/benchdiff against
# BENCH_step.json): generation cost, front extraction, and the
# evaluation kernels.
BENCH_GATE = BenchmarkStep|BenchmarkParetoFront|BenchmarkEvaluate

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# gofmt gate: fails listing any file (fixtures included) that is not
# gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# detlint: the determinism/hot-path static analysis suite (internal/lint).
# Prints a per-analyzer findings summary and exits nonzero on any finding.
lint:
	$(GO) run ./cmd/detlint

# -shuffle=on randomizes test execution order each run, so accidental
# inter-test order dependence fails loudly instead of lurking.
test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race -shuffle=on ./...

# One iteration of each Step benchmark: catches benchmarks that no longer
# compile or panic, without paying for a full measurement run. -short
# keeps the smoke fast: the Step pattern also matches the scale-slice
# BenchmarkScaleStep benchmarks, whose 50k/200k-task trace synthesis
# alone costs tens of seconds and which self-skip under -short.
bench-smoke:
	$(GO) test -short -run '^$$' -bench Step -benchtime 1x -benchmem .

# Re-measure the gated benchmarks and refresh the canonical baseline at
# the repo root (BENCH_step.json). -stat median collapses the -count 3
# repeats so one noisy run does not skew the baseline (or, below, fail
# the compare).
bench-record:
	$(GO) test -run '^$$' -bench '$(BENCH_GATE)' -benchtime 500ms -count 3 -benchmem . | tee /tmp/bench_step.txt
	$(GO) run ./cmd/benchdiff -stat median -record BENCH_step.json /tmp/bench_step.txt

# Compare the current tree against the recorded baseline; fails on >10%
# regression in ns/op or allocs/op.
bench-diff:
	$(GO) test -run '^$$' -bench '$(BENCH_GATE)' -benchtime 500ms -count 3 -benchmem . > /tmp/bench_new.txt
	$(GO) run ./cmd/benchdiff -stat median BENCH_step.json /tmp/bench_new.txt

# Evaluation-kernel slice of the regression gate: the task-major session
# sweep and the engine's slot-order evaluation on the large traces.
bench-evaluate:
	$(GO) test -run '^$$' -bench 'BenchmarkEvaluate' -benchtime 500ms -count 3 -benchmem . > /tmp/bench_eval.txt
	$(GO) run ./cmd/benchdiff -stat median BENCH_step.json /tmp/bench_eval.txt

# Long-queue slice of the regression gate (DESIGN.md §12): one
# generation over the datagen-synthesized 50k-task trace, compared
# against BENCH_typed.json. benchdiff's -bench filter scopes the diff to
# this slice so the shared exit-code contract still applies; the looser
# threshold absorbs host-level variance on shared runners while still
# catching structural regressions.
bench-typed:
	$(GO) test -run '^$$' -bench BenchmarkTypedStep -benchtime 300ms -count 3 -benchmem . > /tmp/bench_typed.txt
	$(GO) run ./cmd/benchdiff -stat median -threshold 0.30 -bench BenchmarkTypedStep BENCH_typed.json /tmp/bench_typed.txt

# Refresh the long-queue baseline after an intentional kernel change.
bench-typed-record:
	$(GO) test -run '^$$' -bench BenchmarkTypedStep -benchtime 300ms -count 3 -benchmem . | tee /tmp/bench_typed.txt
	$(GO) run ./cmd/benchdiff -bench BenchmarkTypedStep -record BENCH_typed.json /tmp/bench_typed.txt

# Scale slice of the regression gate: paper-sized populations stepping
# over datagen-synthesized 50k/200k-task instances, the 200k-point
# ε-archive insert stream, and the streaming ε-archive's spill/merge
# pipeline against its in-memory baseline, compared against
# BENCH_scale.json. Minutes of wall clock (trace synthesis dominates),
# so the slice is deliberately not part of make check — run it when
# touching the archive, the arena, or the evaluation path. The root
# package's scale steps run -benchtime 1x with -count 2 to bound the
# cost while still letting benchdiff average; the millisecond-scale
# streaming-archive runs keep 300ms × 3. The 0.30 threshold matches the
# other long-trace slices.
SCALE_GATE = BenchmarkScale|BenchmarkStreamingArchive

bench-scale:
	$(GO) test -run '^$$' -bench BenchmarkScale -benchtime 1x -count 2 -benchmem . > /tmp/bench_scale.txt
	$(GO) test -run '^$$' -bench BenchmarkStreamingArchive -benchtime 300ms -count 3 -benchmem ./internal/moea >> /tmp/bench_scale.txt
	$(GO) run ./cmd/benchdiff -stat median -threshold 0.30 -bench '$(SCALE_GATE)' BENCH_scale.json /tmp/bench_scale.txt

# Refresh the scale baseline after an intentional change to the archive,
# arena, or kernels.
bench-scale-record:
	$(GO) test -run '^$$' -bench BenchmarkScale -benchtime 1x -count 2 -benchmem . | tee /tmp/bench_scale.txt
	$(GO) test -run '^$$' -bench BenchmarkStreamingArchive -benchtime 300ms -count 3 -benchmem ./internal/moea | tee -a /tmp/bench_scale.txt
	$(GO) run ./cmd/benchdiff -bench '$(SCALE_GATE)' -record BENCH_scale.json /tmp/bench_scale.txt

# End-to-end telemetry smoke: run a short traced experiment through
# cmd/tradeoff, then validate the JSONL schema with cmd/tracecheck.
trace-smoke:
	$(GO) run ./cmd/tradeoff -generations 20 -pop 20 -tasks 60 -phase-profile -trace /tmp/trace_smoke.jsonl > /dev/null
	$(GO) run ./cmd/tracecheck /tmp/trace_smoke.jsonl
	$(GO) run ./cmd/tracestat -json /tmp/trace_smoke.jsonl > /dev/null

check: build vet fmt lint race bench-smoke bench-typed trace-smoke
