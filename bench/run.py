"""Benchmark harness.

Three ways in (see ``bench/README.md``):

* ``python3 -m bench.run --workload NAME --seed N --seconds S --trace 0|1``
  measures one workload in this process and prints one JSON result as
  the last line of stdout (the ``BENCHMARK.json`` contract).
* ``python3 -m bench.run [--seed 7] [--workload NAME] [--repeats 3]
  [--no-trace]`` runs every workload, each run in its own fresh child
  process, one at a time, prints every metric by name with its unit
  and writes ``bench/out/result.json``.
* ``python3 -m bench.run --compare A.json B.json`` compares two such
  result files under the benchmark's bounds.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from bench import REPO_ROOT, SRC

SPEC_PATH = REPO_ROOT / "BENCHMARK.json"

#: a run holds at least this many units, whatever ``--seconds`` says, so
#: that one stalled unit cannot be the median ...
MIN_UNITS = 3
#: ... but gives up adding units beyond this multiple of ``--seconds``
MAX_WINDOW_FACTOR = 5
#: set-up is timed at least this many times per run (extra set-ups are
#: built and discarded when the window fits fewer units) ...
MIN_SETUPS = 9
#: ... as long as the extra set-ups stay under this share of ``--seconds``
EXTRA_SETUP_SHARE = 0.05


def load_spec() -> Dict[str, Any]:
    return json.loads(SPEC_PATH.read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------
def measure(
    name: str, seed: int, seconds: float, traced: bool, size: str = "full"
) -> Dict[str, Any]:
    """Repeat one workload's unit (fresh set-up each time, same seed)
    until ``seconds`` of measured window have passed; return medians,
    the program's counters, the check totals and, when ``traced``, the
    per-layer breakdown."""
    from bench import workloads
    from bench.trace import Tracer, Window, layer_metrics

    tracer = Tracer() if traced else None
    setups: List[float] = []
    walls: List[float] = []
    digests: List[str] = []
    checks: Dict[str, List[int]] = {}
    observations: List[Dict[str, Any]] = []

    def set_up():
        gc.collect()
        start = time.perf_counter()
        unit = workloads.build(name, seed, size)
        setups.append(time.perf_counter() - start)
        return unit

    with tracer or contextlib.nullcontext():
        while True:
            unit = set_up()
            try:
                window = Window(tracer)
                unit.run(window)
                if tracer is not None:
                    tracer.phase = "observe"
                obs = unit.observe()
                observations.append(obs)
            finally:
                unit.close()
                if tracer is not None:
                    tracer.phase = "setup"
                    tracer.unit += 1
            del unit
            walls.append(window.seconds)
            digests.append(obs["digest"])
            for check, attempted, failed in obs["checks"]:
                total = checks.setdefault(check, [0, 0])
                total[0] += attempted
                total[1] += failed
            # Stop at the unit count nearest to the requested window.
            measured = sum(walls)
            enough = len(walls) >= MIN_UNITS or measured > MAX_WINDOW_FACTOR * seconds
            if enough and measured + statistics.median(walls) / 2 > seconds:
                break
        extra_start = time.perf_counter()
        while (
            len(setups) < MIN_SETUPS
            and time.perf_counter() - extra_start < EXTRA_SETUP_SHARE * seconds
        ):
            set_up().close()

    units = len(walls)
    if units > 1:
        checks["same_seed_same_end_state"] = [
            units - 1, sum(d != digests[0] for d in digests[1:])
        ]
    wall_s = statistics.median(walls)
    counters = workloads.WORKLOADS[name].counters(observations)
    result: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "traced": traced,
        "units": units,
        "setup_samples": len(setups),
        "wall_samples_s": walls,
        "end_to_end": {
            "setup_s": statistics.median(setups),
            "wall_s": wall_s,
            "ticks_per_s": obs["ticks"] / wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
        "counters": counters,
        "simulated": obs["simulated"],
        "sim_digest": digests[0],
        "checks": {k: {"attempted": a, "failed": f} for k, (a, f) in checks.items()},
        "attempted": sum(a for a, _f in checks.values()),
        "failed": sum(f for _a, f in checks.values()),
    }
    if tracer is not None:
        layers = layer_metrics(tracer, units)
        layers["trace.units"] = units
        ticks = obs["ticks"]
        layers["engine.events_per_tick"] = (
            counters["engine.events_fired"] / ticks if ticks else 0.0
        )
        result["per_layer"] = {**counters, **layers}
        tracer.write_spans(
            workloads.OUT_DIR / f"{name}.spans.jsonl",
            {"workload": name, "seed": seed, "units": units},
        )
    return result


def contract_result(result: Dict[str, Any], spec: Dict[str, Any]) -> Dict[str, Any]:
    """The one-line result ``BENCHMARK.json`` promises: every
    ``end_to_end`` metric untraced, every ``per_layer`` metric traced.
    A layer a workload never enters reports 0."""
    if result["traced"]:
        values = result["per_layer"]
        metrics = {
            m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    else:
        values = result["end_to_end"]
        metrics = {
            m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


# ----------------------------------------------------------------------
# The suite: every workload, each run in a fresh child
# ----------------------------------------------------------------------
def _child(name: str, seed: int, seconds: int, traced: bool) -> Dict[str, Any]:
    """One run in a fresh process, so ``peak_rss_mb`` is this run's own
    and no cache outlives a run; the parent waits, so one core is busy."""
    cmd = [
        sys.executable, "-m", "bench.run", "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(traced)), "--detail",
    ]
    proc = subprocess.run(
        cmd, cwd=REPO_ROOT, stdout=subprocess.PIPE, text=True, check=True
    )
    detail, _contract = proc.stdout.strip().splitlines()[-2:]
    return json.loads(detail)


def _summary(values: List[float], unit: str, bound: float, better: str) -> Dict[str, Any]:
    return {
        "unit": unit,
        "better": better,
        "bound": bound,
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
        "runs": values,
    }


def _git_commit() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def run_suite(
    names: List[str], seed: int, seconds: int, repeats: int, trace: bool
) -> Dict[str, Any]:
    import numpy

    from bench.workloads import WORKLOADS

    spec = load_spec()
    report: Dict[str, Any] = {
        "meta": {
            "seed": seed,
            "seconds": seconds,
            "repeats": repeats,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "git_commit": _git_commit(),
        },
        "workloads": {},
    }
    for name in names:
        runs = [_child(name, seed, seconds, traced=False) for _ in range(repeats)]
        end_to_end = {
            m["name"]: _summary(
                [r["end_to_end"][m["name"]] for r in runs],
                m["unit"], m["bound"], m["better"],
            )
            for m in spec["end_to_end"]
        }
        for metric, (counter, unit, bound) in WORKLOADS[name].suite_metrics.items():
            end_to_end[metric] = _summary(
                [r["counters"][counter] for r in runs], unit, bound, "lower"
            )
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        entry: Dict[str, Any] = {
            "units_per_run": [r["units"] for r in runs],
            "end_to_end": end_to_end,
            "simulated": {
                **runs[0]["simulated"],
                "sim_digest": runs[0]["sim_digest"],
                "sim_digest_ok": int(
                    all(r["sim_digest"] == runs[0]["sim_digest"] for r in runs)
                    and all(
                        r["checks"].get("same_seed_same_end_state", {}).get("failed", 0) == 0
                        for r in runs
                    )
                ),
            },
            "checks": {
                "attempted": attempted,
                "failed": failed,
                "checks_failed_share": failed / attempted,
                "failures": sorted(
                    {k for r in runs for k, c in r["checks"].items() if c["failed"]}
                ),
            },
        }
        if trace:
            traced = _child(name, seed, seconds, traced=True)
            entry["per_layer"] = traced["per_layer"]
            entry["trace_overhead_share"] = (
                traced["per_layer"]["trace.wall_s"] / end_to_end["wall_s"]["median"] - 1
            )
        report["workloads"][name] = entry
        _print_workload(name, entry, {m["name"]: m["unit"] for m in spec["per_layer"]})
    return report


def _print_workload(name: str, entry: Dict[str, Any], units: Dict[str, str]) -> None:
    print(f"== {name}  (units per run {entry['units_per_run']})")
    for metric, s in entry["end_to_end"].items():
        print(
            f"  {metric:<22}{s['median']:>14.4f} {s['unit']:<6}"
            f" min {s['min']:.4f}  max {s['max']:.4f}  n={s['n']}"
        )
    for key, value in entry["simulated"].items():
        print(f"  {key:<22}{value!s:>14}")
    c = entry["checks"]
    print(
        f"  {'checks_failed_share':<22}{c['checks_failed_share']:>14.4f}"
        f"        {c['failed']} of {c['attempted']} {c['failures'] or ''}"
    )
    if "per_layer" in entry:
        print(f"  {'trace_overhead_share':<22}{entry['trace_overhead_share']:>14.4f}")
        for metric, value in sorted(entry["per_layer"].items()):
            if value:
                print(f"    {metric:<34}{value:>16.4f} {units[metric]}")
    sys.stdout.flush()


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="bench.run", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=7, help="default 7; 11 is held out")
    parser.add_argument("--seconds", type=int, help="measured window per run")
    parser.add_argument(
        "--trace", type=int, choices=(0, 1),
        help="measure --workload in this process and print the contract line",
    )
    parser.add_argument("--detail", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--repeats", type=int, default=3, help="untraced runs per workload")
    parser.add_argument("--no-trace", action="store_true", help="skip the traced run")
    parser.add_argument("--out", type=Path, help="result file (default bench/out/result.json)")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT.json", "CHANGE.json"))
    args = parser.parse_args(argv)

    if args.compare:
        from bench.compare import compare_files

        return compare_files(Path(args.compare[0]), Path(args.compare[1]), load_spec())

    if not (SRC / "repro").is_dir():
        print(f"bench: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    from bench.workloads import OUT_DIR, WORKLOADS

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        result = measure(args.workload, args.seed, seconds, traced=bool(args.trace))
        if args.detail:
            print(json.dumps(result))
        print(json.dumps(contract_result(result, spec)))
        return 0

    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    selected = [args.workload] if args.workload else names
    report = run_suite(selected, args.seed, seconds, args.repeats, not args.no_trace)
    out = args.out or OUT_DIR / "result.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    failed = sum(w["checks"]["failed"] for w in report["workloads"].values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
