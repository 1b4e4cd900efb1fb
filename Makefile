# Convenience entry points.  Everything runs with PYTHONPATH=src so no
# install step is needed.

PY := PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) python

.PHONY: test bench bench-smoke bench-repo test-bench profile-fig6 profile-steady profile-service profile-churn profile-setup profile-fig8 results lint-deadcode reachability

# Tier-1: the fast correctness suite (tests/ only).
test:
	$(PY) -m pytest -x -q

# Dead-code lint (scripts/lint_deadcode.py, a pure stdlib AST pass):
# no-op augmented assignments (x += 0), no-effect expression
# statements, self-assignments; then a gate on attributes src/ stores
# that no production file loads, unless its WRITE_ONLY_ALLOWLIST names
# them with a reason (a stale entry fails too).
lint-deadcode:
	$(PY) scripts/lint_deadcode.py

# Reachability gate (scripts/reachability.py): runs every production
# entry point -- the four bench workloads at tiny size, the examples,
# `repro experiments all|ablations --quick --jobs 1`, `traces
# generate|stats`, `serve` (plain, --resume, --aggregation), `pytest
# benchmarks` and scripts/profile_fig8.py at 20 peers -- under a
# sys.setprofile hook that follows spawned `serve` and ReplicaPool
# workers, writes results/reachability.json and exits 1 on a src/
# definition no entry point entered (timed only by
# benchmarks/test_microbenchmarks.py counts as not entered) that the
# script's ALLOWLIST does not name, or on a stale entry.  It took
# 254-377 s wall (four runs) on a shared 2-core host, most of it `pytest
# benchmarks` (about twice its unhooked time), so it is not part of
# bench-smoke (under 60 s); tier-1's
# tests/test_repo_consistency.py::test_no_unlisted_test_only_definitions
# gates the committed record instead.  `make results` and `make
# profile-*` are not entry points: check what only they reach by hand.
reachability:
	python scripts/reachability.py

# Full benchmark suite (quick-scale figures; REPRO_FULL=1 for paper scale).
bench:
	$(PY) -m pytest -q benchmarks

# Smoke gate: the dead-code lint, then one short pass of the repo
# benchmark (BENCHMARK.json; see bench/README.md) -- every workload
# once, 5 s windows, no per-layer trace -> bench/out/smoke.json (its
# own file: bench-repo's bench/out/result.json survives).  bench.run
# exits 1 on any failed bench check: same-seed units identical, the
# four-shard restore identity, Fig 6 correct fraction >= 0.9, B_max,
# one vote per voter x moderator.  The contracts the old layer benchmarks gated
# (engine identity, batch flows vs a scalar replay, kill -9 restore of
# one shard and of an aggregating cluster, DHT cost per digest,
# parallel replicas vs sequential) are tier-1 tests.
bench-smoke: lint-deadcode
	python3 -m bench.run --seconds 5 --repeats 1 --no-trace --out bench/out/smoke.json

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
