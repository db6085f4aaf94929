# Convenience targets; `go build ./... && go test ./...` is the tier-1 gate.

.PHONY: test tier1-stress verify check golden ci benchmark seeds bench-emulator bench-emulator-json bench-hostops bench-durable bench-swarm bench-reshard figures trace-demo loc

test:
	go build ./... && go test ./...

# tier1-stress: the three packages whose tests race real goroutines (the
# crash fuzzer, the tree's wall-clock and host linearizability recordings,
# the root package's reshard, merge-scan, live-handle and
# panic-containment tests), 20 uncached runs of each
# (-count=1, a fresh process per run), stopping at the first red. Green
# here at GOMAXPROCS 1, 2 and 4 is what ROADMAP's aim 3 asks of tier-1;
# CI runs the same three under that matrix.
STRESS_RUNS ?= 20
tier1-stress:
	@for i in $$(seq 1 $(STRESS_RUNS)); do \
		echo "tier1-stress: run $$i of $(STRESS_RUNS)"; \
		go test -count=1 ./internal/durable/crashcheck ./internal/core || exit 1; \
		go test -count=1 -run 'TestReshard|TestClusterScan|TestClusterRange|TestManyLiveHandles|TestLibraryGoroutinePanicsContained' . || exit 1; \
	done

# verify: the cheap pre-merge guard — the -run filter check
# (scripts/check-run-filters.sh), vet, build, the race detector over
# the emulator and memory substrate, and a -short race pass over the trees
# and harness (including the wall-clock linearizability recordings).
verify:
	./scripts/verify.sh

# check: the short-mode correctness suite on its own — the complete
# linearizability checker's unit tests plus the tree registry's repro,
# mutant-catch, and fault-coverage tests, and the crash-recovery fuzzer
# over the durability engine (failures print an EUNO_CRASH_REPRO line).
check:
	go test -short ./internal/check/... ./internal/durable/...

# golden: the bit-identical-figures guard — a change that does not mean
# to alter the default (fragile-policy, observer-less, virtual-time) path
# must not move the paper-faithful default figures (fig1, fig8, fig13's
# ablation chain; and the range-query table, for the scan path) by a
# single cycle.
golden:
	./scripts/golden.sh

# ci: what .github/workflows/ci.yml runs — tier-1, verify, the short
# correctness + crash-recovery suites, and the golden-figures guard.
ci: test verify check golden

# benchmark: the repository's one repeatable benchmark (BENCHMARK.json):
# five workloads, end-to-end metrics and the per-layer ladder. bench/ is a
# module of its own; run.sh builds it into .bench_build/. Pass flags with
# ARGS, e.g. make benchmark ARGS="--workload scan-mix --trace 0".
benchmark:
	bash bench/run.sh $(ARGS)

# bench-emulator: host-speed micro-benchmarks of the HTM emulator's
# Load/Store/commit paths, 5 repetitions for benchstat-able output.
bench-emulator:
	go test -run=NONE -bench=HostEmulator -benchmem -count=5 ./internal/htm/

# bench-emulator-json: same suite via eunobench, recorded into the
# checked-in perf-trajectory artifact. Override LABEL to tag the run.
LABEL ?= current
bench-emulator-json:
	go run ./cmd/eunobench -benchjson BENCH_emulator.json -benchlabel $(LABEL) hostbench

# bench-hostops: one get and one put on a 100k-key Euno-B+Tree at host
# speed, 5 repetitions — the price of an operation's TL2 bookkeeping plus
# tree logic.
bench-hostops:
	go test -run=NONE -bench 'HostOps/Euno' -count=5 .

# bench-durable: the durable acknowledgement path alone — a no-op apply
# on the in-memory disk with 16 MiB snapshots, durable-write's 70/30
# put/delete mix, one and two writers — 5 repetitions. It times the WAL's
# own bookkeeping and MemFS, not a device.
bench-durable:
	go test -run=NONE -bench=LogAck -benchmem -count=5 ./internal/durable/

# bench-swarm: the open-loop serving benchmark (Poisson arrivals at a
# calibrated offered rate against the durable 4-shard cluster) plus its
# chaos variant (one shard disk killed and revived mid-run; the artifact
# records the goodput timeline through failure, degraded serving, and
# repair). Sojourn percentiles include queue wait — that is the point.
bench-swarm:
	go run ./cmd/eunobench -benchjson BENCH_swarm.json -benchlabel $(LABEL) swarm
	go run ./cmd/eunobench -benchjson BENCH_swarm.json -benchlabel $(LABEL) swarmchaos

# bench-reshard: open-loop load with a deliberately hot range shard
# through a live 4->8 reshard. The artifact (BENCH_reshard.json, a local
# file: none is checked in, and .gitignore lists it) records the
# goodput/p99 timeline through bulk copy, fenced cutovers, and purge; the
# two ratios under study are migration goodput vs the pre-trigger baseline
# (target >= 0.9) and post-split p99 vs baseline (target < 1).
bench-reshard:
	go run ./cmd/eunobench -benchjson BENCH_reshard.json -benchlabel $(LABEL) reshardchaos

# figures: regenerate every paper figure at quick scale.
figures:
	go run ./cmd/eunobench -quick all

# trace-demo: record the abort-attribution scenario (theta 0.9, one lane
# per tree) as Chrome trace-event JSON; open trace_abortmix.json in
# chrome://tracing or ui.perfetto.dev. The HTM-B+Tree lane shows the
# fallback-lock convoy as stacked fallback spans; 300 ops per thread keep
# the file under 50 MB.
trace-demo:
	go run ./cmd/eunobench -ops 300 -trace trace_abortmix.json abortmix

# seeds: the two seed tables a change to the adaptive tree is judged on,
# as Markdown — quick fig8's Euno cells at θ 0.2, 0.9 and 0.99 on seeds
# 1–9 with the Euno fallback-lock aborts per op (storms) at θ 0.9 and 0.99,
# and sim-contended's three timed metrics on SIM_SEEDS (default "1 2 3").
# BASE=<commit> adds that commit's column beside the working tree's
# (scripts/seeds.sh; ~25 min with a base).
BASE ?=
seeds:
	./scripts/seeds.sh $(BASE)

# loc: non-test Go lines in the places ROADMAP tracks, so "wc -l went
# down" is one command — and, in the options row, the exported fields of
# the public options structs (Options, Durability, Observability and
# every *Options; a struct-typed field counts as one), so "knobs went
# down" is the same command. The last two rows are the line counts of
# EXPERIMENTS.md and DESIGN.md.
loc:
	@for d in . internal/core internal/htm internal/durable internal/harness cmd/eunobench bench; do \
		printf '%-18s %6d\n' $$d $$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go' | xargs cat | wc -l); \
	done
	@printf '%-18s %6d\n' options $$(awk ' \
		/^type ([A-Za-z]*Options|Durability|Observability) struct/ { s = 1; next } \
		s && /^}/ { s = 0 } \
		s && /^\t[A-Z][A-Za-z0-9_]* / { n++ } \
		END { print n }' *.go)
	@for f in EXPERIMENTS.md DESIGN.md; do \
		printf '%-18s %6d\n' $$f $$(wc -l < $$f); \
	done
