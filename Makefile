# Convenience entry points.  Everything runs with PYTHONPATH=src so no
# install step is needed.

PY := PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) python

.PHONY: test bench bench-smoke bench-full bench-repo test-bench profile-fig6 profile-steady profile-service profile-churn profile-setup profile-fig8 results lint-deadcode

# Tier-1: the fast correctness suite (tests/ only).
test:
	$(PY) -m pytest -x -q

# Dead-code lint (scripts/lint_deadcode.py, a pure stdlib AST pass):
# no-op augmented assignments (x += 0), no-effect expression
# statements, self-assignments; then a gate on src/ definitions no
# run reaches (referenced only from tests/, or nowhere).  Such a
# definition fails the target unless the script's ALLOWLIST names it
# with a reason, and an allowlist entry that is no longer reported
# fails it too.
lint-deadcode:
	$(PY) scripts/lint_deadcode.py

# Full benchmark suite (quick-scale figures; REPRO_FULL=1 for paper scale).
bench:
	$(PY) -m pytest -q benchmarks

# Perf regression gate: quick Fig-6 workload, fails unless the warm
# contribution cache beats the uncached path by >= 3x, parallel
# run_many output is bit-identical to sequential, the batch 2-hop
# flows equal a per-source scalar replay, and a 10k-node graph peaks
# under 1% of an n x n float block (the replica speed-up is recorded,
# not gated).
# The population leg gates the SoA scheduler's null-action tick counts
# against per-peer heap entries on each of five repeats and (on
# multi-core runners) the median of the repeats' peers/sec ratios at
# >= 5x at 50k peers, and the vectorised dispersion scan's floats
# against the dict box's loop; the columnar sections record per-tick
# cost and memory (engine identity against the reference runtime is a
# tier-1 test).  The service section
# gates the crash contract: a shard worker SIGKILLed mid-run and
# restarted by the supervisor from its last checkpoint must finish
# bit-identical to the same shard never interrupted (node states,
# RNG positions, summaries), with checkpoint overhead <= 2% of the
# shard's wall time.  The aggregation section gates the inter-shard
# DHT digest exchange: a 4-shard lockstep cluster with one shard
# killed after a checkpoint and restored must finish bit-identical to
# the never-interrupted cluster (all four shards — aggregation couples
# them), and the aggregated cluster's worst cross-shard top-K rank
# distance must beat the isolated-shard baseline at a bounded DHT
# cost (<= 16 routed messages per digest published or pulled).
# Also runs the dead-code lint.  Writes
# BENCH_contribution.json and BENCH_population.json so the perf
# trajectory accumulates per PR.
# Both legs always run; the target fails at the end if either leg
# failed.
bench-smoke: lint-deadcode
	@status=0; \
	$(PY) scripts/bench_contribution.py --check || status=1; \
	$(PY) scripts/bench_population.py --check || status=1; \
	exit $$status

# Paper-scale benchmarks (slower; no gate).  The population leg adds
# the million-peer churn-trace smoke under the SoA engine.
bench-full:
	$(PY) scripts/bench_contribution.py --full
	$(PY) scripts/bench_population.py --full

# The repo benchmark (BENCHMARK.json; see bench/README.md): four
# full-stack workloads, end-to-end metrics plus a per-layer trace, each
# run in its own child process -> bench/out/result.json.  Compare two
# results with `python3 -m bench.run --compare A.json B.json`.
bench-repo:
	python3 -m bench.run

# The harness's own self-tests at tiny sizes (not tier-1).
test-bench:
	python -m pytest bench/tests

# cProfile one paper_fig6 benchmark unit (built through
# bench.workloads.build, seed 7) and print the top 25 functions by self
# time with their call counts.  For finding candidates; measure with
# bench-repo.
profile-fig6:
	python scripts/profile_unit.py paper_fig6 --seed 7

# The same for one steady_vote unit: the bulk vote tick (sample_batch,
# row-to-row ballot merges, payload-pool flushes).
profile-steady:
	python scripts/profile_unit.py steady_vote --seed 7

# The same for one service_cluster unit: the batched gossip tick over
# four shards, checkpoint write/restore, digest publish/pull/merge.
profile-service:
	python scripts/profile_unit.py service_cluster --seed 7

# The same for one churn_population unit: short mixed gossip runs cut
# by trace events (the live-read side of the batched gossip tick).
profile-churn:
	python scripts/profile_unit.py churn_population --seed 7

# cProfile the set-up (bench.workloads.build, the benchmark's setup_s)
# of one unit of workload W instead of its run window.
W ?= steady_vote
profile-setup:
	python scripts/profile_unit.py $(W) --seed 7 --setup

# cProfile one Fig 8 flash-crowd run (SpamAttackExperiment: N trace
# peers, core 30, crowd 60 on its duty cycle, 6 simulated hours, seed
# 7): wall time, tick and batch-handler counts, top functions by self
# time.  `python scripts/profile_fig8.py --peers N --wall` times it
# without the profiler.
N ?= 100
profile-fig8:
	python scripts/profile_fig8.py --peers $(N)

results:
	$(PY) scripts/collect_results.py
