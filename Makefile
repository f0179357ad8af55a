# Developer entry points.  Everything runs from the repo root with the
# in-tree package on PYTHONPATH; no install step needed.

PY := PYTHONPATH=src python

.PHONY: test test-pure test-all lint trace fuzz-smoke telemetry-smoke differential line-reach bench-micro check-micro bench bench-check bench-refresh bench-e2e bench-e2e-check bench-compare setup-pairs step-profile fence-margins

# tier-1 gate: unit + integration-differential suites
test:
	$(PY) -m pytest -x -q

# tier-1 as CI's numpy-less test-pure-kernels leg runs it, offline: the pure
# backend, with every numpy import refused by a sys.meta_path finder
test-pure:
	REPRO_KERNELS=pure $(PY) benchmarks/without_numpy.py -x -q

# critical-error lint (rule set in pyproject.toml); CI installs ruff itself
lint:
	ruff check .

# Perfetto trace of the demo query mix -> trace.json
trace:
	$(PY) -m repro trace demo --out trace.json

# fixed-seed fuzzing sweeps of the fault-injection layer (benchmarks/
# fuzz_smoke.py, ~15 s per hash seed); a failure prints the offending seed's
# one-line repro command.  Each sweep's summary (action, fault and checked-
# query counts) must not depend on the hash seed and must equal the committed
# benchmarks/fuzz_smoke.expected; a deliberate move refreshes that file in
# the same diff and says in CHANGES.md which line moved and why
fuzz-smoke:
	mkdir -p .bench_out
	for seed in 1 2; do \
		PYTHONHASHSEED=$$seed $(PY) benchmarks/fuzz_smoke.py \
			> .bench_out/fuzz_smoke.$$seed || exit 1; \
	done
	diff benchmarks/fuzz_smoke.expected .bench_out/fuzz_smoke.1
	diff benchmarks/fuzz_smoke.expected .bench_out/fuzz_smoke.2

# serving telemetry smoke: the telemetry view of a short traced skewed
# serve, schema-validated JSON export (its wire bytes plus the moved bytes
# must equal the metered total exactly), and one EXPLAIN ANALYZE whose
# time/byte attribution must reconcile exactly against the meter
# (repro explain exits non-zero when any reconciliation check fails), and
# repro stats --json through the module entry point, diffed against its
# pinned output (pure kernels, as the golden file was written)
telemetry-smoke:
	$(PY) -m repro top --queries 24 --out telemetry.json
	$(PY) -c "import json; from repro.obs import validate_telemetry; \
	p = validate_telemetry(json.load(open('telemetry.json'))); \
	print('telemetry.json: %d series, %d wire + %d moved = %d bytes reconciled OK' % (len(p['series']), sum(p['series']['wire_bytes']), p['balance']['bytes_moved'], p['total_bytes']))"
	$(PY) -m repro explain "//article//author" > /dev/null && echo "explain: reconciled OK"
	REPRO_KERNELS=pure $(PY) -m repro stats --json | diff - tests/golden/stats.json && echo "stats: golden OK"

# behaviour digests of QueryExecutor (one line per configuration), of
# DhtNetwork (one line per seeded fault script) and of the index write path
# (write_differential.py, one line per configuration: red when a publish
# receipt, removed count, meter total, stored posting or stamp, DPP root
# entry, view block or answer moves): they must not depend on the hash seed
# and must equal the committed benchmarks/differential.digests (a red run
# prints the lines that moved).
# A deliberate behaviour change refreshes that file in the same diff and
# says in CHANGES.md which line moved and why
differential:
	mkdir -p .bench_out
	for seed in 1 2; do \
		( PYTHONHASHSEED=$$seed $(PY) benchmarks/executor_differential.py && \
		  PYTHONHASHSEED=$$seed $(PY) benchmarks/dht_differential.py && \
		  PYTHONHASHSEED=$$seed $(PY) benchmarks/write_differential.py ) \
			> .bench_out/differential.$$seed || exit 1; \
	done
	diff .bench_out/differential.1 .bench_out/differential.2
	diff benchmarks/differential.digests .bench_out/differential.1

# which executable lines of src/repro no run reaches, which functions no
# run enters and which only tier-1 enters: tier-1, every experiment with its
# baseline check, the fuzz-smoke sweeps, the three differentials, the CLI
# smokes and commands, the examples and the four bench workloads under one
# sys.settrace collector (~15 min; not a CI step)
line-reach:
	$(PY) benchmarks/line_reach.py

# everything, including the slow experiment regenerations
test-all:
	$(PY) -m pytest -q tests benchmarks

# micro-benchmarks with the JSON trajectory recorded per PR; commit the
# refreshed BENCH_micro.json alongside perf-relevant changes
bench-micro:
	$(PY) -m pytest benchmarks/test_micro.py --benchmark-only \
		--benchmark-json=BENCH_micro.json

# kernel speedup gate: the numpy backend must beat pure by the ratio
# check_micro.py names per gated bench of BENCH_micro.json (>= 2x; the
# Descendant-filter probe >= 1.5x; skipped when numpy rows are absent)
check-micro:
	$(PY) benchmarks/check_micro.py

# full benchmark harness: benchmarks/test_paper_shapes.py runs every row
# of repro.experiments.EXPERIMENTS under pytest-benchmark, next to the
# micro-benchmarks
bench:
	$(PY) -m pytest benchmarks --benchmark-only

# the experiment gate CI runs (~70 s): every experiment at its documented
# scale; red on a failed shape predicate (a flipped winner in a paper
# figure, named) or on a leaf of BENCH_{blocks,serve,skew,ingest}.json
# outside the 2 % cross-interpreter tolerance (experiment and leaf named)
bench-check:
	$(PY) -m repro run --all --check

# refresh the four committed baselines on purpose (and say in CHANGES.md
# which leaf moved and why).  They hold simulated fields only, so on one
# interpreter the exact local check is
#   make bench-refresh && git diff --exit-code -- 'BENCH_*.json'
bench-refresh:
	$(PY) -m repro run blocks serve skew ingest --write

# the repo benchmark (BENCHMARK.json, bench/README.md): all four workloads,
# end to end and per layer, at seed 0; .bench_out/ is git-ignored
bench-e2e:
	mkdir -p .bench_out
	python3 bench/run.py --seed 0 --out .bench_out/new.json

# the benchmark as a gate: a fresh bench-e2e against the committed seed-0
# BENCH_e2e.json; red when a step, sim-time, byte or message metric moves
# by more than 0.5 % on any workload (the layers that moved most are
# named), when the tracer's extra steps per query (a bench/child.py
# tracer_on run) rise more than 0.5 % above the number in
# benchmarks/e2e_gate.py, or when an op fails.  That count also moves with the
# cost of a cache miss: the slice's untraced pass runs cold, its traced pass
# warm.  Steps hold only on the interpreter and
# numpy the file was measured with (its "meta").  A PR that moves one on purpose
# commits the refreshed file: cp .bench_out/new.json BENCH_e2e.json
bench-e2e-check: bench-e2e
	python3 benchmarks/e2e_gate.py BENCH_e2e.json .bench_out/new.json

# one row per (end-to-end metric, workload) between two bench-e2e results,
# e.g. make bench-compare BASE=/tmp/parent.json NEW=.bench_out/new.json;
# exits non-zero on any "worse"
bench-compare:
	python3 bench/run.py --compare $(BASE) $(NEW)

# set-up host time of this checkout against another (PARENT, e.g. a
# git archive of the parent commit) in PAIRS alternating pairs of fresh
# bench/child.py --mode setup processes per workload: each side's median
# setup_s, this side's win count and both sides' kadop.setup_pysteps, e.g.
# make setup-pairs PARENT=/tmp/parent; a sequential bench-compare reads
# machine drift between its two blocks as a set-up change
PARENT ?=
PAIRS ?= 10
setup-pairs:
	python3 benchmarks/setup_pairs.py $(PARENT) --pairs $(PAIRS)

# where one workload of the repo benchmark spends its interpreter steps,
# per function (bench/ only attributes per layer): top 40 with shares,
# self-checked against a counted run of the benchmark itself, e.g.
# make step-profile WORKLOAD=query_index SCALE=tiny; SEED picks the
# workload seed, e.g. make step-profile WORKLOAD=serve_churn SEED=7; KIND
# (publish, unpublish or query) profiles only that kind of op, per op of
# the kind and without the whole-run check, e.g.
# make step-profile WORKLOAD=ingest KIND=unpublish; INCLUSIVE=1 ranks by the
# steps taken with each function on the stack, callees included, counted
# exactly from call and return events, e.g.
# make step-profile WORKLOAD=ingest KIND=publish INCLUSIVE=1
WORKLOAD ?= query_docphase
SCALE ?= full
SEED ?= 0
KIND ?=
INCLUSIVE ?=
step-profile:
	PYTHONHASHSEED=0 python benchmarks/step_profile.py $(WORKLOAD) --scale $(SCALE) --seed $(SEED) $(if $(KIND),--kind $(KIND)) $(if $(INCLUSIVE),--inclusive)

# the margins of the 2 % fences (bench/metrics.py: layer_checks): for each
# fenced workload at full and tiny scale and each seed of SEEDS, the share
# of steps of sim and balance and the steps/op the workload can still lose
# before each trips, e.g. make fence-margins SEEDS="0 7"; red on the first
# fence that has tripped
SEEDS ?= 0 1 2 3 7
fence-margins:
	@for workload in ingest query_index query_docphase; do \
		for scale in full tiny; do \
			for seed in $(SEEDS); do \
				PYTHONHASHSEED=0 python benchmarks/step_profile.py $$workload \
					--scale $$scale --seed $$seed --fences || exit 1; \
			done; \
		done; \
	done
