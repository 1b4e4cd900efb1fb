"""``--compare PARENT.json CHANGE.json``: one row per workload x
end-to-end metric under the benchmark's bounds.

Verdicts, per row:

* ``regression`` - the change's median is worse than the parent's by
  more than the metric's bound; a simulated statistic differs at all;
  or a correctness check failed.
* ``unresolved`` - the min-max spread of either side's repeats is wider
  than the bound, so the runs cannot tell (never reported as
  unchanged) - unless every run of the change reads better than every
  run of the parent, which is ``improved``.
* ``ok`` - within the bound.

Exit status is non-zero on any regression.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Tuple

Row = Tuple[str, str, str, str, str, str]


def _worse_by(parent: float, change: float, better: str) -> float:
    """Share of the parent's median by which the change is worse
    (negative when it is better)."""
    delta = (change - parent) / parent
    return delta if better == "lower" else -delta


def _timing_row(parent: Dict[str, Any], change: Dict[str, Any]) -> Tuple[str, str]:
    bound, better = parent["bound"], parent["better"]
    worse = _worse_by(parent["median"], change["median"], better)
    spread = max((s["max"] - s["min"]) / s["median"] for s in (parent, change))
    if better == "lower":
        all_better = max(change["runs"]) < min(parent["runs"])
    else:
        all_better = min(change["runs"]) > max(parent["runs"])
    if spread > bound:
        verdict = "improved" if all_better else "unresolved"
    elif worse > bound:
        verdict = "regression"
    else:
        verdict = "ok"
    return verdict, f"{worse:+.1%} worse (bound {bound:.0%}, spread {spread:.1%})"


def compare(parent: Dict[str, Any], change: Dict[str, Any], spec: Dict[str, Any]) -> List[Row]:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    rows: List[Row] = []
    for name, p in parent["workloads"].items():
        c = change["workloads"].get(name)
        if c is None:
            rows.append((name, "*", "", "", "regression", "workload missing from the change"))
            continue
        for metric, ps in p["end_to_end"].items():
            cs = c["end_to_end"][metric]
            # BENCHMARK.json is the authority on bounds it lists.
            ps = {**ps, "bound": bounds.get(metric, ps["bound"])}
            verdict, note = _timing_row(ps, cs)
            rows.append(
                (name, metric, f"{ps['median']:.4f}", f"{cs['median']:.4f}", verdict, note)
            )
        for stat, pv in p["simulated"].items():
            cv = c["simulated"].get(stat)
            same = pv == cv and (stat != "sim_digest_ok" or cv == 1)
            verdict = "ok" if same else "regression"
            rows.append(
                (name, stat, str(pv)[:20], str(cv)[:20], verdict, "simulated: must be identical")
            )
        for side, entry in (("parent", p), ("change", c)):
            share = entry["checks"]["checks_failed_share"]
            if share:
                rows.append(
                    (name, "checks_failed_share", "", f"{share:.6f}", "regression",
                     f"{side}: {entry['checks']['failures']}")
                )
        if not (p["checks"]["failed"] or c["checks"]["failed"]):
            rows.append((name, "checks_failed_share", "0", "0", "ok", "bound 0"))
    return rows


def compare_files(parent_path: Path, change_path: Path, spec: Dict[str, Any]) -> int:
    parent = json.loads(parent_path.read_text(encoding="utf-8"))
    change = json.loads(change_path.read_text(encoding="utf-8"))
    if parent["meta"]["seed"] != change["meta"]["seed"]:
        print("note: the two files used different seeds; simulated statistics will differ")
    rows = compare(parent, change, spec)
    header: Row = ("workload", "metric", "parent", "change", "verdict", "note")
    widths = [max(len(r[i]) for r in [header, *rows]) for i in range(5)]
    for row in [header, *rows]:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)) + "  " + row[5])
    regressions = sum(r[4] == "regression" for r in rows)
    unresolved = sum(r[4] == "unresolved" for r in rows)
    print(f"{regressions} regression(s), {unresolved} unresolved, {len(rows)} rows")
    return 1 if regressions else 0
