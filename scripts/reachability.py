#!/usr/bin/env python
"""Which ``src/`` definitions a production run enters, and a gate on the rest.

    python scripts/reachability.py   # run the entry points, write the record, gate it

Each entry point runs with a ``sitecustomize.py`` first on ``PYTHONPATH``
that calls :func:`install`, so every process it spawns (``ReplicaPool``
and ``serve`` workers) runs the hook too: a ``sys.setprofile`` function
that writes each code object's file, first line and name when the process
first enters it, one flushed line at a time, so a worker ended by
``os._exit``, SIGTERM or SIGKILL has already recorded what it ran.
``results/reachability.json`` maps each ``src/`` function (``module:Qual.name``,
nested ones included) to the entry points that entered it; one entered
only by :data:`TIMED` is timed, not used.  The gate fails on an unentered
definition no :data:`ALLOWLIST` entry covers (an entry covers its name
and a class its members), on an entry covering nothing unentered, and on a
record not holding exactly ``src/``'s definitions: regenerate it after adding,
renaming or deleting one.  No entry point runs ``make results`` (paper scale
only) or ``make profile-*`` (cProfile replaces the hook): check those by hand.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from typing import Dict, List

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
RECORD = REPO / "results" / "reachability.json"
TIMED = "benchmarks/test_microbenchmarks.py"

#: Definitions no production run enters that may stay, each with its reason.
ALLOWLIST = {
    **dict.fromkeys(("IdentityAuthority", "PeerIdentity", "SignedMessage", "canonical_bytes"),
                    "ROADMAP item 2 names the identity helpers as its next caller"),
    **dict.fromkeys(("SybilAttacker", "FakeExperienceColluders", "BarterCastService.inject_record"),
                    "ROADMAP item 11 names it as its next caller"),
    **dict.fromkeys(("MediaClient." + m for m in ("top_moderators", "browse_moderator", "approve",
                                                  "publish")), "documented client API (DESIGN.md)"),
    **dict.fromkeys(("BarterCastService.gossip_tick", "BarterCastService.local_transfer"),
                    "bench/trace.py patches it by name as a layer boundary (ROADMAP item 1)"),
    "SubjectiveGraph.dense": "test_golden_fig6 pins the node order through it",
    "Bitfield.held_indices": "test_golden_fig6's SWARMS pins possession through it",
    "TransferLedger.edges": "test_golden_fig6 pins the ledger through it",
    "SpamAttackExperiment.run_many": "make results (scripts/collect_results.py) averages Fig 8",
    "EventSource": "a typing Protocol: PopulationEngine's methods are what run",
    "PeerSamplingService.sample": "abstract: the PSS implementations' methods are what run",
    "ExperienceFunction.is_experienced": "abstract: the subclasses' methods are what run",
    "ExperienceFunction.experienced_many": "only AlwaysExperienced inherits it (see below)",
    "AlwaysExperienced.is_experienced": "the gossip batch skips the gate for AlwaysExperienced",
    "select_moderations": "only a node with more fresh moderations than its budget draws",
    "VoteSamplingNode.rng": "only select_moderations' draw reads a node's stream",
    "StreamFamily.__call__": "builds a node's stream on its first draw (VoteSamplingNode.rng)",
    "ColumnarStateStore._evict": "dead: no run shrinks a box's b_max (CHANGES.md FOUND)",
    "ReadOnlySubjectiveGraph._raise_edge": "error path: refuses to mutate the shared empty graph",
    "ShardAggregator._mark_dead": "runs only when a digest publisher stops answering",
    "_worker_sigterm": "runs only when a shard worker is sent SIGTERM",
    "read_sections.fail": "runs only on a damaged checkpoint",
}

_UNIT = ("from bench.trace import Window; from bench.workloads import build; "
         "u = build({!r}, 7, 'tiny'); u.run(Window()); u.observe(); u.close()")
_SERVE = ["-m", "repro", "serve", "--shards", "2", "--peers", "16",
          "--checkpoint-interval", "600", "--status-interval", "0.2"]
_PYTEST = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "--benchmark-disable"]

#: label -> python arguments; ``{tmp}`` is a scratch directory the runs share.
ENTRY_POINTS: Dict[str, List[str]] = {
    **{f"bench {w}": ["-c", _UNIT.format(w)] for w in
       ("paper_fig6", "steady_vote", "churn_population", "service_cluster")},
    **{f"examples/{p.name}": [f"examples/{p.name}"]
       for p in sorted((REPO / "examples").glob("*.py"))},
    **{f"experiments {f}": ["-m", "repro", "experiments", f, "--quick", "--jobs", "1"]
       for f in ("all", "ablations")},
    "traces generate": ["-m", "repro", "traces", "generate", "--out", "{tmp}/traces",
                        "--n", "1", "--peers", "20", "--days", "1"],
    "traces stats": ["-m", "repro", "traces", "stats", "{tmp}/traces/synthetic-00.jsonl"],
    "serve": _SERVE + ["--until", "1800", "--dir", "{tmp}/svc"],
    "serve --resume": _SERVE + ["--until", "3600", "--resume", "{tmp}/svc"],
    "serve --aggregation": _SERVE + ["--until", "1800", "--aggregation", "--dir", "{tmp}/agg"],
    "pytest benchmarks": _PYTEST + ["benchmarks", f"--ignore={TIMED}"],
    "profile_fig8": ["scripts/profile_fig8.py", "--peers", "20", "--hours", "1", "--wall"],
    TIMED: _PYTEST + [TIMED],
}


def install(log: str) -> None:
    """Log each code object this process (and each thread it starts) first enters."""
    seen = set()
    out = open(log, "a", buffering=1, encoding="utf-8")

    def hook(frame, event, _arg):
        code = frame.f_code
        if event == "call" and code not in seen:
            seen.add(code)
            out.write(f"{code.co_filename}\t{code.co_firstlineno}\t{code.co_name}\n")

    threading.setprofile(hook)
    sys.setprofile(hook)


def hook_env(tmp: str, log: Path) -> Dict[str, str]:
    """The environment of a process tree that runs under :func:`install`."""
    (hook_dir := Path(tmp, "hook")).mkdir(exist_ok=True)
    (hook_dir / "sitecustomize.py").write_text(
        f"import os, runpy\nrunpy.run_path({str(Path(__file__).resolve())!r})"
        "['install'](os.environ['REPRO_REACH_LOG'])\n")
    return dict(os.environ, REPRO_REACH_LOG=str(log),
                PYTHONPATH=os.pathsep.join([str(hook_dir), str(SRC), str(REPO)]))


def functions() -> Dict[str, List[str]]:
    """What :func:`install` logs for each ``src/`` function -> ``[module:qualname, path:line]``."""
    found: Dict[str, List[str]] = {}

    def walk(body, path: Path, prefix: str) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                found[f"{path}\t{first}\t{node.name}"] = [
                    prefix + node.name, f"{path.relative_to(REPO)}:{node.lineno}"]
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(node.body, path, f"{prefix}{node.name}.")

    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts).removesuffix(".__init__")
        walk(ast.parse(path.read_text(encoding="utf-8")).body, path, module + ":")
    return found


def definitions() -> Dict[str, str]:
    """``module:qualname`` -> ``path:line`` of every function in ``src/``."""
    found: Dict[str, str] = {}
    for key, where in functions().values():
        found.setdefault(key, where)
    return found


def entered(log: Path) -> set:
    """The ``src/`` definitions a log names (lambdas and comprehensions match none)."""
    by_code = functions()
    rows = (line.split("\t", 1) for line in log.read_text(encoding="utf-8").splitlines())
    hits = (by_code.get(f"{Path(filename).resolve()}\t{rest}") for filename, rest in rows)
    return {hit[0] for hit in hits if hit}


def measure() -> Dict[str, List[str]]:
    """Run every entry point under the hook: definition -> entry points."""
    record = {name: [] for name in definitions()}
    with tempfile.TemporaryDirectory() as tmp:
        for i, (label, args) in enumerate(ENTRY_POINTS.items()):
            print(f"[reachability] {label}", flush=True)
            log = Path(tmp, f"{i}.log")
            subprocess.run([sys.executable, *(a.format(tmp=tmp) for a in args)], cwd=REPO,
                           env=hook_env(tmp, log), check=True, stdout=subprocess.DEVNULL)
            for name in entered(log) & record.keys():
                record[name].append(label)
    return record


def _covers(entry: str, name: str) -> bool:
    return entry in (name, name.split(":")[1]) or name.split(":")[1].startswith(entry + ".")


def gate(record: Dict[str, List[str]]) -> Dict[str, List[str]]:
    """``unlisted`` unentered ones, ``stale`` entries, record keys ``missing`` or ``gone``."""
    unentered = [n for n, labels in record.items() if not set(labels) - {TIMED}]
    defs = definitions()
    return {
        "unlisted": [f"{defs.get(n, '?')}: {n}" for n in unentered
                     if not any(_covers(e, n) for e in ALLOWLIST)],
        "stale": [e for e in ALLOWLIST if not any(_covers(e, n) for n in unentered)],
        "missing": sorted(defs.keys() - record.keys()),
        "gone": sorted(record.keys() - defs.keys()),
    }


def main() -> int:
    record = measure()
    rows = ",\n".join(f"  {json.dumps(n)}: {json.dumps(e)}" for n, e in record.items())
    RECORD.write_text(f'{{"entry_points": {json.dumps(list(ENTRY_POINTS))}, "timed": '
                      f'{json.dumps(TIMED)},\n "definitions": {{\n{rows}\n }}\n}}\n')
    failures = gate(record)
    for kind, item in ((k, i) for k, items in failures.items() for i in items):
        print(f"[reachability] {kind}: {item}")
    unentered = sum(1 for labels in record.values() if not set(labels) - {TIMED})
    print(f"[reachability] {len(record)} definitions, {unentered} unentered, {len(ALLOWLIST)} "
          "allowlisted; " + ", ".join(f"{len(v)} {k}" for k, v in failures.items()))
    return 1 if any(failures.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
