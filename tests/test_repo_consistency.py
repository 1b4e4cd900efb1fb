"""Repository consistency checks.

Documentation must not drift from the code: every file the docs
reference exists, every bench DESIGN.md's experiment index names is on
disk, and the public package imports cleanly.  Nor may ``src/`` carry
definitions no run enters (``scripts/reachability.py``'s record) or
attributes no run reads (``scripts/lint_deadcode.py``), nor ``core/`` a
function longer than 120 lines.
"""

import ast
import importlib.util
import json
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def referenced_paths(markdown: str):
    """Backtick-quoted repo-relative paths in a markdown document."""
    for match in re.findall(r"`([\w./-]+\.(?:py|md|json|svg))`", markdown):
        yield match


#: Files a run writes, which the docs name but the repo does not hold.
RUN_OUTPUTS = ("shard-NN/status.json", "service_status.json")


@pytest.mark.parametrize(
    "doc",
    ["README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/simulator.md", "docs/protocols.md"],
)
def test_documented_files_exist(doc):
    text = (REPO / doc).read_text(encoding="utf-8")
    missing = []
    for rel in referenced_paths(text):
        if rel.startswith("results/") or rel in RUN_OUTPUTS:
            continue  # regenerated artifacts
        candidates = [
            REPO / rel,
            REPO / "src" / rel,  # docs reference modules as repro/...
            REPO / "src" / "repro" / rel,  # ... or by package path
            REPO / "docs" / rel,
            REPO / "benchmarks" / rel,
            REPO / "tests" / rel,
        ]
        if not any(c.exists() for c in candidates):
            missing.append(rel)
    assert not missing, f"{doc} references missing files: {missing}"


def test_design_experiment_index_benches_exist():
    text = (REPO / "DESIGN.md").read_text(encoding="utf-8")
    for name in re.findall(r"benchmarks/(test_\w+\.py)", text):
        assert (REPO / "benchmarks" / name).exists(), name


def test_examples_are_runnable_scripts():
    examples = sorted((REPO / "examples").glob("*.py"))
    assert len(examples) >= 3
    for path in examples:
        text = path.read_text(encoding="utf-8")
        assert '__name__ == "__main__"' in text, path.name
        assert "def main(" in text, path.name


def test_public_packages_import():
    import repro
    import repro.analysis
    import repro.attacks
    import repro.baselines
    import repro.bartercast
    import repro.bittorrent
    import repro.client
    import repro.core
    import repro.dht
    import repro.experiments
    import repro.identity
    import repro.metrics
    import repro.pss
    import repro.sim
    import repro.traces
    import repro.viz

    assert repro.__version__


def test_every_public_module_has_docstring():
    src = REPO / "src" / "repro"
    undocumented = []
    for path in src.rglob("*.py"):
        text = path.read_text(encoding="utf-8")
        stripped = text.lstrip()
        if not stripped:
            continue
        if not stripped.startswith(('"""', "'''", '#')):
            undocumented.append(str(path.relative_to(REPO)))
    assert not undocumented, undocumented


def _load_script(name):
    path = REPO / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_no_unlisted_test_only_definitions():
    """The committed reachability record (``make reachability``) holds
    exactly ``src/``'s definitions, every one no production entry point
    entered is on the gate's allowlist with a reason, and every entry
    still covers such a definition."""
    reach = _load_script("reachability")
    record = json.loads(reach.RECORD.read_text(encoding="utf-8"))["definitions"]
    failures = reach.gate(record)
    assert not failures["missing"], f"regenerate the record: {failures['missing']}"
    assert not failures["gone"], f"regenerate the record: {failures['gone']}"
    assert not failures["unlisted"], failures["unlisted"]
    assert not failures["stale"], failures["stale"]
    reasons = reach.ALLOWLIST.values()
    assert all(r.strip() and "read-only probe" not in r for r in reasons)


def test_no_unlisted_write_only_attributes():
    """Every attribute ``src/`` stores is loaded by production code or
    on the lint's write-only allowlist, and every entry is still
    write-only."""
    lint = _load_script("lint_deadcode")
    unlisted, stale = lint.write_only_gate(REPO)
    assert not unlisted, [f"{p.relative_to(REPO)}:{line}: {name}" for p, line, name in unlisted]
    assert not stale, stale
    assert all(reason.strip() for reason in lint.WRITE_ONLY_ALLOWLIST.values())


#: Longest function body allowed in ``src/repro/core/`` (``def`` line
#: through its last line): a longer one wants named stages.
MAX_CORE_FUNCTION_LINES = 120


def test_core_functions_stay_short():
    long = []
    for path in sorted((REPO / "src" / "repro" / "core").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                lines = node.end_lineno - node.lineno + 1
                if lines > MAX_CORE_FUNCTION_LINES:
                    where = f"{path.relative_to(REPO)}:{node.lineno}"
                    long.append(f"{where} {node.name} ({lines})")
    assert not long, long
