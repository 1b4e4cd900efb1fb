"""Alternating parent/change pairs of one repo-benchmark workload.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload steady_vote \
        [--pairs 10] [--seed 7] [--metric ticks_per_s]

Each pair runs ``python3 -m bench.run --workload W --no-trace --repeats 1``
once in each checkout (its own ``bench/`` measuring its own ``src/``),
flipping which side goes first every pair.  Prints every end-to-end
metric's median and quartiles per side, whether the simulated digests
agree, and for ``--metric`` the change's win share and whether the
pairing rule holds: the change wins at least 9 of 10 pairs (ties count
for neither) and the medians differ by more than the parent's
interquartile range.  Each pair also prints its change/parent ratio of
``--metric``, and the summary the median of those per-pair ratios: a
drift in host speed moves both runs of a pair together, so the
per-pair ratio is steadier than the ratio of the two sides' medians.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, out: Path) -> dict:
    cmd = [sys.executable, "-m", "bench.run", "--workload", workload, "--seed",
           str(seed), "--no-trace", "--repeats", "1", "--out", str(out)]
    subprocess.run(cmd, cwd=checkout, check=True, stdout=subprocess.DEVNULL)
    return json.loads(out.read_text())["workloads"][workload]


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--metric", default="ticks_per_s")
    args = ap.parse_args()
    sides = {"parent": args.parent, "change": args.change}
    runs = {side: [] for side in sides}
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(args.pairs):
            order = list(sides) if i % 2 == 0 else list(sides)[::-1]
            for side in order:
                out = Path(tmp) / f"{side}.json"
                runs[side].append(run_once(sides[side], args.workload, args.seed, out))
            row = {s: runs[s][-1]["end_to_end"][args.metric]["median"] for s in sides}
            print(f"pair {i + 1:2d} ({order[0]} first): "
                  + "  ".join(f"{s} {v:.4g}" for s, v in row.items())
                  + f"  ratio {row['change'] / row['parent']:.3f}", flush=True)
    for metric in runs["parent"][0]["end_to_end"]:
        cells = []
        for side in sides:
            q1, q2, q3 = quartiles([r["end_to_end"][metric]["median"] for r in runs[side]])
            cells.append(f"{side} {q2:.4g} [{q1:.4g}, {q3:.4g}]")
        print(f"{metric:<20}" + "   ".join(cells))
    digests = {r["simulated"]["sim_digest"] for side in sides for r in runs[side]}
    print(f"sim_digest identical across all runs: {len(digests) == 1}")
    better = runs["parent"][0]["end_to_end"][args.metric]["better"]
    sign = 1 if better == "higher" else -1
    par = [r["end_to_end"][args.metric]["median"] for r in runs["parent"]]
    chg = [r["end_to_end"][args.metric]["median"] for r in runs["change"]]
    wins = sum(sign * (c - p) > 0 for p, c in zip(par, chg))
    p1, p2, p3 = quartiles(par)
    gap = sign * (statistics.median(chg) - p2)
    met = wins >= 0.9 * len(par) and gap > p3 - p1
    pair_ratio = statistics.median(c / p for p, c in zip(par, chg))
    print(f"{args.metric}: change wins {wins}/{len(par)}, median gap {gap:.4g} "
          f"vs parent IQR {p3 - p1:.4g}, ratio {statistics.median(chg) / p2:.3f}, "
          f"median per-pair ratio {pair_ratio:.3f}; "
          f"pairing rule {'met' if met else 'NOT met'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
