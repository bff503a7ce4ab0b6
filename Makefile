# Convenience targets for the dsr reproduction.

GO ?= go

.PHONY: all build test vet lint race race-campaign bench bench-baseline bench-check profile evaluate examples dsrlint wcet-check leak-check sched-check telemetry-smoke obs-smoke serve-smoke fuzz clean

all: build lint test race race-campaign dsrlint wcet-check leak-check sched-check telemetry-smoke obs-smoke serve-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static analysis: go vet and the gofmt gate always (every Go file
# outside the benchmark's .bench_build/ scratch tree must be
# gofmt-clean); staticcheck and govulncheck when installed (neither is
# a module dependency — install with:
#   go install honnef.co/go/tools/cmd/staticcheck@latest
#   go install golang.org/x/vuln/cmd/govulncheck@latest).
lint: vet
	@out=$$(gofmt -l . | grep -v '^\.bench_build/'); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go vet ran)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping"; \
	fi

test: vet
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The campaign engine's hard invariant under the race detector: every
# Run* series at Workers=8 must be byte-identical (cycles, counters,
# attribution, telemetry event ordering) to Workers=1, with zero data
# races across the worker pool, the canonical-order merge and the
# capture/replay event path.
race-campaign:
	$(GO) test -race -run 'TestCampaign|TestExecute' ./internal/experiments ./internal/campaign ./internal/serve

# Run the repo's own lint/verification toolchain over the shipped
# programs; non-zero exit on any Error-level diagnostic.
dsrlint: build
	$(GO) run ./cmd/dsrlint -q internal/asm/testdata/uoa.s
	$(GO) run ./cmd/dsrlint -q -builtin control
	$(GO) run ./cmd/dsrlint -q -builtin processing

# Soundness gate for the static WCET analyzer: (1) dsrwcet must produce
# a finite bound for every shipped program in every layout mode, and
# (2) the bound must dominate the observed cycles of every run of a
# 200-run randomised campaign (deterministic and DSR layouts, plus the
# processing app) — the invariant the analysis exists to provide.
wcet-check: build
	$(GO) run ./cmd/dsrwcet -q internal/asm/testdata/uoa.s
	$(GO) run ./cmd/dsrwcet -q -builtin control
	$(GO) run ./cmd/dsrwcet -q -mode dsr-eager -builtin control
	$(GO) run ./cmd/dsrwcet -q -mode dsr-lazy -builtin control
	$(GO) run ./cmd/dsrwcet -q -builtin processing
	$(GO) run ./cmd/dsrwcet -q -mode dsr-eager -builtin processing
	$(GO) run ./cmd/dsrwcet -q cmd/dsrlint/testdata/clean.s
	WCET_RUNS=200 $(GO) test -run 'TestWCETSound' -count=1 -v ./internal/experiments
	$(GO) test -run FuzzWCETSound -count=1 ./internal/analysis/wcet

# Leakage-soundness gate for the side-channel analyzer: (1) dsrleak must
# produce finite channel bounds for every shipped program in every
# layout mode, and (2) over a 200-run campaign under the simulated
# prime+probe and evict+time attackers, the measured leakage (log2 of
# distinct observations) must stay below the static bounds, with the
# det >= lazy >= eager monotonicity chain and a strictly positive DSR
# benefit on the access channel (E8's two verdicts).
leak-check: build
	$(GO) run ./cmd/dsrleak -q -builtin control
	$(GO) run ./cmd/dsrleak -q -mode dsr-eager -builtin control
	$(GO) run ./cmd/dsrleak -q -mode dsr-lazy -builtin control
	$(GO) run ./cmd/dsrleak -q -builtin processing
	$(GO) run ./cmd/dsrleak -q -mode dsr-eager -builtin processing
	$(GO) run ./cmd/dsrleak -q cmd/dsrlint/testdata/clean.s
	LEAK_RUNS=200 $(GO) test -run 'TestLeakSound' -count=1 -v ./internal/experiments
	$(GO) test -run FuzzLeakSound -count=1 ./internal/analysis/leak

# Soundness gate for the schedule-feasibility analyzer: (1) dsrsched
# must certify the case-study frame under the deterministic and the
# full randomizer policies, with a 200-draw membership self-check and a
# JSON round-trip through a file spec; (2) over 200 certified major
# frames (the Layout+Sched E9 cell) every schedule the executive draws
# must fall inside the statically enumerated feasible set with zero
# budget overruns — the invariant the certificate exists to provide;
# (3) the grammar fuzzer's committed corpus must hold.
sched-check: build
	$(GO) run ./cmd/dsrsched -q -builtin casestudy
	$(GO) run ./cmd/dsrsched -q -builtin casestudy -rand -sample 200
	$(GO) run ./cmd/dsrsched -json -builtin casestudy -rand > sched-out.json
	$(GO) run ./cmd/dsrsched -q -rand sched-out.json
	rm -f sched-out.json
	SCHED_FRAMES=200 $(GO) test -run 'TestSchedFeas' -count=1 -v ./internal/experiments
	$(GO) test -run FuzzSchedFeas -count=1 ./internal/analysis/schedfeas

# Telemetry end-to-end smoke: run a reduced campaign with the recorder
# on, then exercise every dsrstat path over the produced artefacts —
# summary, all three conversions, the Chrome trace, and the validator
# (exporter round-trips + trace schema). Artefacts land in
# telemetry-out/ (CI uploads trace.json as a workflow artifact).
telemetry-smoke: build
	rm -rf telemetry-out
	$(GO) run ./cmd/dsrsim -iid -runs 600 -telemetry telemetry-out
	$(GO) run ./cmd/dsrstat summary telemetry-out/telemetry.jsonl
	$(GO) run ./cmd/dsrstat convert -to csv telemetry-out/telemetry.jsonl > /dev/null
	$(GO) run ./cmd/dsrstat convert -to prom telemetry-out/telemetry.csv > /dev/null
	$(GO) run ./cmd/dsrstat convert -to jsonl telemetry-out/telemetry.prom > /dev/null
	$(GO) run ./cmd/dsrstat trace telemetry-out/telemetry.jsonl > /dev/null
	$(GO) run ./cmd/dsrstat validate telemetry-out/telemetry.jsonl

# Observability end-to-end smoke: (1) the in-process gate — a 200-run
# 8-worker campaign with the span tracer, live campaign view and HTTP
# server attached, scraped continuously mid-flight (/metrics must parse
# as Prometheus exposition, /campaign must decode; the finished span
# timeline must validate and yield a worker report); then (2) the CLI
# path — dsrsim with -http and -telemetry run twice, sequentially
# ("before": workers=1) and sharded ("after": workers=8), dsrstat
# workers over both exported span timelines (per-worker utilization +
# bottleneck; the reports land in obs-out/workers-{before,after}.txt
# and CI uploads both), and the validator over spans (schema + Chrome
# trace). The "after" timeline is gated: with copy-on-write platform
# forks, the dominant bottleneck class must no longer be the
# canonical-order merge or per-run platform construction — those were
# the fixed scaling bugs, and their reappearance fails CI.
obs-smoke: build
	rm -rf obs-out
	OBS_RUNS=200 $(GO) test -run 'TestObsSmoke' -count=1 -v ./internal/obs
	$(GO) run ./cmd/dsrsim -fig2 -runs 200 -workers 1 -telemetry obs-out/before
	$(GO) run ./cmd/dsrstat workers obs-out/before/spans.jsonl | tee obs-out/workers-before.txt
	$(GO) run ./cmd/dsrsim -fig2 -runs 200 -workers 8 -telemetry obs-out/after -http 127.0.0.1:0
	$(GO) run ./cmd/dsrstat workers obs-out/after/spans.jsonl | tee obs-out/workers-after.txt
	$(GO) run ./cmd/dsrstat workers -assert-not merge-serialisation,platform-construction obs-out/after/spans.jsonl >/dev/null
	$(GO) run ./cmd/dsrstat validate obs-out/after/spans.jsonl
	$(GO) run ./cmd/dsrstat validate obs-out/after/telemetry.jsonl

# Service end-to-end smoke: (1) the soak suite — six concurrent jobs
# surviving 20+ random hard kills and restarts of the daemon with every
# output surface byte-identical to the CLI path; then (2) the
# real-process gate — build dsrserve and dsrrun, run the daemon as a
# separate process, and drive three jobs through it (one plain via
# `dsrrun -submit`, one cancelled and resubmitted, one interrupted by
# SIGKILL-ing the daemon and finished after a restart), checking every
# report byte-identical to a local dsrrun invocation and the daemon
# exiting cleanly on SIGTERM. The service log lands in
# serve-out/dsrserve.log (CI uploads it as a workflow artifact).
serve-smoke: build
	rm -rf serve-out
	SERVE_SOAK=1 $(GO) test -run 'TestServeSoakKillRestart' -count=1 -v ./internal/serve
	SERVE_SMOKE_OUT=$(abspath serve-out) $(GO) test -run 'TestServeSmoke' -count=1 -v ./internal/serve

# Regenerate every table and figure of the paper at full scale.
evaluate: build
	$(GO) run ./cmd/dsrsim -all -runs 1000

bench:
	$(GO) test -bench=. -benchmem .

# Perf-regression harness (cmd/benchgate): bench-baseline records the
# component microbenchmarks (cache / functional memory / TLB / fetch
# loop) and the campaign benchmarks at pinned iteration counts into
# BENCH_BASELINE.json; bench-check re-runs the suite and fails on >15%
# regression of ns/op or throughput (runs/s, instrs/s).
bench-baseline:
	$(GO) run ./cmd/benchgate -record BENCH_BASELINE.json

bench-check:
	$(GO) run ./cmd/benchgate -check BENCH_BASELINE.json -tolerance 0.15

# CPU/heap profiles of a reduced single-worker campaign; artifacts land
# in profile-out/ (gitignored). Inspect with:
#   go tool pprof -top profile-out/cpu.pprof
#   go tool pprof -http=:8080 profile-out/cpu.pprof
profile:
	mkdir -p profile-out
	$(GO) test -run '^$$' -bench 'BenchmarkCampaignWorkers1$$' -benchtime 1x \
		-cpuprofile profile-out/cpu.pprof -memprofile profile-out/mem.pprof \
		-o profile-out/dsr.test .
	$(GO) tool pprof -top -nodecount 15 profile-out/dsr.test profile-out/cpu.pprof

examples: build
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/hwrand
	$(GO) run ./examples/incremental
	$(GO) run ./examples/spacestudy

# Short fuzzing pass over the parsers (assembler, trace codec) and the
# DSR transform verifier.
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzAssemble -fuzztime=20s -fuzzminimizetime=5s ./internal/asm
	$(GO) test -run=^$$ -fuzz=FuzzDecode -fuzztime=20s -fuzzminimizetime=5s ./internal/rvs
	$(GO) test -run=^$$ -fuzz=FuzzDurations -fuzztime=20s -fuzzminimizetime=5s ./internal/rvs
	$(GO) test -run=^$$ -fuzz=FuzzVerifyTransform -fuzztime=20s -fuzzminimizetime=5s ./internal/core
	$(GO) test -run=^$$ -fuzz=FuzzSeedSchedule -fuzztime=20s -fuzzminimizetime=5s ./internal/campaign
	$(GO) test -run=^$$ -fuzz=FuzzWCETSound -fuzztime=20s -fuzzminimizetime=5s ./internal/analysis/wcet
	$(GO) test -run=^$$ -fuzz=FuzzLeakSound -fuzztime=20s -fuzzminimizetime=5s ./internal/analysis/leak
	$(GO) test -run=^$$ -fuzz=FuzzSchedFeas -fuzztime=20s -fuzzminimizetime=5s ./internal/analysis/schedfeas

clean:
	$(GO) clean ./...
	rm -rf telemetry-out obs-out serve-out
