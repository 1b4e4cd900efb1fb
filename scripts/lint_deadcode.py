#!/usr/bin/env python
"""AST lint for dead statements the test suite cannot catch.

No third-party linter is vendored into the image, so this is a small
self-contained pass over every tracked ``.py`` file flagging statements
that parse, run, and do nothing:

* **identity augmented assignments** — ``x += 0``, ``x -= 0``,
  ``x *= 1``, ``x /= 1``, ``x |= 0``, ``x ^= 0``, ``x <<= 0``,
  ``x >>= 0`` (``//= 1`` is deliberately not flagged: it floors
  floats).  The motivating bug: ``self.vp_requests_answered += 0`` sat
  in ``respond_top_k()`` for three PRs looking like instrumentation
  while counting nothing.
* **no-effect expression statements** — a bare name or a non-docstring
  constant standing alone (``x``, ``42``); string constants are skipped
  everywhere because they double as docstrings/comments.
* **self-assignment** — ``x = x`` (same plain name both sides).

Exit status is 1 with a ``file:line: message`` listing when anything is
found, 0 otherwise — suitable for ``make lint-deadcode``.

A whole-repo run (no path arguments) then gates **definitions no run
reaches**: functions, classes and methods defined in ``src/`` whose
name nothing in ``src/``, ``examples/``, ``scripts/``, ``bench/`` or
``benchmarks/`` references — whether only ``tests/`` calls them or
nothing does.  A reference is any use of the name as a bare name, an
attribute or an imported name (a package ``__init__.py``'s re-export
imports excepted), plus the attribute strings of
``bench/trace.py``'s ``BOUNDARIES`` (the harness patches those names
by string); dunder methods are skipped (the interpreter calls them).
Such a definition may stay only on :data:`ALLOWLIST`, with its
reason: numpy calls it, a golden pins state through it, a ROADMAP item
names its next caller, it is documented client API, or it is a
read-only probe several test files use.  Any other is printed with
``file:line`` and its size and fails the run, as does an allowlist
entry that is no longer reported, so the list cannot go stale.

The same run gates **write-only state**: attributes that ``src/``
stores — ``obj.x = …``, ``obj.x += …``, ``obj.x[i] = …`` — and that no
file under the same production roots loads.  A string constant naming
the attribute counts as a load (column tables are read through
``getattr``), except inside a ``__slots__`` declaration.  Such an
attribute may stay only on :data:`WRITE_ONLY_ALLOWLIST`, with its
reason; stale entries fail as above.  This gate is a floor, not a
complete list: any load of the name anywhere — on another object, or a
string that happens to spell it — hides the store, as do stores made
through ``setattr``.  A column the checkpoint dumps by name, say, is
"loaded" by that name and can only be found by asking who reads the
dump.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Set, Tuple

#: (operator, operand value) pairs that make an AugAssign a no-op.
_IDENTITY_AUG = {
    (ast.Add, 0),
    (ast.Sub, 0),
    (ast.Mult, 1),
    (ast.Div, 1),
    (ast.BitOr, 0),
    (ast.BitXor, 0),
    (ast.LShift, 0),
    (ast.RShift, 0),
}

Finding = Tuple[Path, int, str]


def _is_identity_aug(node: ast.AugAssign) -> bool:
    value = node.value
    if not isinstance(value, ast.Constant):
        return False
    if isinstance(value.value, bool) or not isinstance(value.value, (int, float)):
        return False
    return any(
        isinstance(node.op, op) and value.value == operand
        for op, operand in _IDENTITY_AUG
    )


def _name_chain(node: ast.expr) -> str:
    """``a.b.c`` for plain name/attribute chains, '' otherwise."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return ""
    parts.append(node.id)
    return ".".join(reversed(parts))


def check_file(path: Path) -> List[Finding]:
    try:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    except SyntaxError as exc:  # pragma: no cover - repo code parses
        return [(path, exc.lineno or 0, f"syntax error: {exc.msg}")]
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.AugAssign) and _is_identity_aug(node):
            findings.append(
                (path, node.lineno,
                 f"no-op augmented assignment: {ast.unparse(node)}")
            )
        elif isinstance(node, ast.Expr):
            value = node.value
            if isinstance(value, ast.Constant):
                # String constants double as docstrings/comments and
                # are never flagged; other bare constants always are
                # (docstring slots only ever hold strings).
                if not isinstance(value.value, str):
                    findings.append(
                        (path, node.lineno,
                         f"constant has no effect: {ast.unparse(node)}")
                    )
            elif isinstance(value, ast.Name):
                findings.append(
                    (path, node.lineno,
                     f"bare name has no effect: {value.id}")
                )
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = _name_chain(node.targets[0])
            source = _name_chain(node.value)
            if target and target == source:
                findings.append(
                    (path, node.lineno, f"self-assignment: {target} = {source}")
                )
    return findings


def iter_sources(roots: Iterable[Path]) -> Iterable[Path]:
    for root in roots:
        if root.is_file() and root.suffix == ".py":
            yield root
        elif root.is_dir():
            yield from sorted(root.rglob("*.py"))


#: Where a reference keeps a ``src/`` definition in production use.
_PRODUCTION_ROOTS = ("src", "examples", "scripts", "bench", "benchmarks")

#: The benchmark harness's layer boundaries, patched by attribute name.
_BOUNDARY_FILE = Path("bench") / "trace.py"

#: ``src/`` definitions no production code references that may stay,
#: each with the reason.  Nothing that changes state, schedules events
#: or computes a result no run reads belongs here beyond what a ROADMAP
#: item or the documented client API names.
ALLOWLIST = {
    "_SeedWords.generate_state": "numpy's PCG64 calls it on a seed sequence",
    "SubjectiveGraph.dense": "test_golden_fig6 pins the node order through it",
    "Bitfield.held_indices": "test_golden_fig6's SWARMS pins possession through it",
    "IdentityAuthority.identity_of": "ROADMAP item 2 names the identity helpers as its next caller",
    "IdentityAuthority.known_public_keys": "ROADMAP item 2 names the identity helpers as its next caller",
    "IdentityAuthority.forge_signature": "ROADMAP item 2 names the identity helpers as its next caller",
    "SignedMessage.create": "ROADMAP item 2 names the identity helpers as its next caller",
    "SignedMessage.verified_payload": "ROADMAP item 2 names the identity helpers as its next caller",
    "SignedMessage.tampered_with": "ROADMAP item 2 names the identity helpers as its next caller",
    "SybilAttacker": "ROADMAP item 11 names the Sybil attacker as its next caller",
    "SybilAttacker.mint_identities": "ROADMAP item 11 names the Sybil attacker as its next caller",
    "SybilAttacker.deploy": "ROADMAP item 11 names the Sybil attacker as its next caller",
    "SybilAttacker.upload_cost_to_influence": "ROADMAP item 11 names the Sybil attacker as its next caller",
    "FakeExperienceColluders": "ROADMAP item 11 names the colluders as its next caller",
    "FakeExperienceColluders.poison_node": "ROADMAP item 11 names the colluders as its next caller",
    "FakeExperienceColluders.seed_own_tables": "ROADMAP item 11 names the colluders as its next caller",
    "MediaClient.top_moderators": "documented client API (README, DESIGN.md)",
    "MediaClient.browse_moderator": "documented client API (README, DESIGN.md)",
    "MediaClient.approve": "documented client API (README, DESIGN.md)",
    "TransferLedger.uploaded_by": "read-only probe of 3 test files",
    "TransferLedger.downloaded_by": "read-only probe of 3 test files",
    "Swarm.piece_cost": "read-only probe of 2 test files (conservation, swarm)",
    "Swarm.progress_of": "read-only probe of 4 test files",
    "BallotBox.vote_of": "read-only probe of 5 test files",
    "BallotBox.voters_by_recency": "read-only probe of 5 test files",
    "BallotBox.votes_of": "read-only probe of 7 test files",
    "BallotBox.last_received_of": "read-only probe of 5 test files",
    "LocalVoteList.vote_on": "read-only probe of 5 test files",
    "SubjectiveGraph.successors": "read-only probe of 2 test files (maxflow, flow kernels)",
    "SubjectiveGraph.predecessors": "read-only probe of 2 test files (sparse, flow kernels)",
}

#: Attributes ``src/`` stores that no production code loads which may
#: stay, each with the reason.  Same rule as :data:`ALLOWLIST`.
WRITE_ONLY_ALLOWLIST = {
    "writeable": "numpy reads it: `arr.flags.writeable = False` makes an array read-only",
    "records_folded": "test_bartercast_fold_on_read compares it between lazy and eager folding",
    "rounds_run": "test_golden_fig6's SWARMS hash pins each swarm's round count",
}

#: (path, line, qualified name, size in lines)
Definition = Tuple[Path, int, str, int]


def referenced_names(paths: Iterable[Path]) -> Set[str]:
    """Every name the files use: bare names, attributes, imports.  A
    package ``__init__.py``'s imports only re-export, so they do not
    count."""
    names: Set[str] = set()
    for path in paths:
        package = path.name == "__init__.py"
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)) and not package:
                names.update(alias.name.split(".")[-1] for alias in node.names)
    return names


def boundary_attributes(path: Path) -> Set[str]:
    """The attribute strings of ``BOUNDARIES`` — ``(span, module,
    class, attribute)`` tuples — in the harness's trace module."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in tree.body:
        if (
            isinstance(node, ast.AnnAssign)
            and isinstance(node.target, ast.Name)
            and node.target.id == "BOUNDARIES"
        ):
            return {
                entry.elts[3].value
                for entry in node.value.elts
                if isinstance(entry.elts[3], ast.Constant)
            }
    return set()


def definitions(path: Path) -> List[Definition]:
    """Module-level functions and classes, and the methods of those
    classes, with their sizes; dunder names are left out."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    out: List[Definition] = []

    def add(node: ast.AST, qualname: str) -> None:
        if not (node.name.startswith("__") and node.name.endswith("__")):
            out.append((path, node.lineno, qualname,
                        node.end_lineno - node.lineno + 1))

    for node in tree.body:
        if not isinstance(node, kinds):
            continue
        add(node, node.name)
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, kinds):
                    add(member, f"{node.name}.{member.name}")
    return out


def unreached_definitions(repo: Path) -> List[Definition]:
    """``src/`` definitions whose name no production code references."""
    production = referenced_names(
        path for root in _PRODUCTION_ROOTS for path in iter_sources([repo / root])
    )
    production |= boundary_attributes(repo / _BOUNDARY_FILE)
    return [
        d
        for path in iter_sources([repo / "src"])
        for d in definitions(path)
        if d[2].rsplit(".", 1)[-1] not in production
    ]


def _store_targets(node: ast.AST) -> Iterable[ast.expr]:
    """The single targets an assignment statement writes."""
    if isinstance(node, ast.Assign):
        stack = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        stack = [node.target]
    else:
        return
    while stack:
        target = stack.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            stack.extend(target.elts)
        elif isinstance(target, ast.Starred):
            stack.append(target.value)
        else:
            yield target


def attribute_accesses(path: Path) -> Tuple[List[Tuple[str, int]], Set[str]]:
    """The attributes a file stores, as ``(name, line)``, and the names
    it loads: attribute loads other than the ``obj.x`` of an
    ``obj.x[i] = …`` store, plus identifier-like string constants
    outside ``__slots__``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    stores: List[Tuple[str, int]] = []
    stored: Set[int] = set()
    slots: Set[int] = set()
    for node in ast.walk(tree):
        for target in _store_targets(node):
            if isinstance(target, ast.Name) and target.id == "__slots__":
                slots.update(id(c) for c in ast.walk(node.value))
            while isinstance(target, ast.Subscript):
                target = target.value
            if isinstance(target, ast.Attribute):
                stores.append((target.attr, target.lineno))
                stored.add(id(target))
    loads: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            if isinstance(node.ctx, ast.Load) and id(node) not in stored:
                loads.add(node.attr)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.isidentifier()
            and id(node) not in slots
        ):
            loads.add(node.value)
    return stores, loads


def write_only_attributes(repo: Path) -> Dict[str, Tuple[Path, int]]:
    """Attributes ``src/`` stores that no production file loads, each
    with its first store."""
    loaded: Set[str] = set()
    stores: Dict[str, Tuple[Path, int]] = {}
    this = Path(__file__).resolve()
    for root in _PRODUCTION_ROOTS:
        for path in iter_sources([repo / root]):
            if path.resolve() == this:
                continue  # its allowlist spells the names it reports
            file_stores, file_loads = attribute_accesses(path)
            loaded |= file_loads
            if root == "src":
                for name, line in file_stores:
                    stores.setdefault(name, (path, line))
    return {name: at for name, at in stores.items() if name not in loaded}


def write_only_gate(repo: Path) -> Tuple[List[Tuple[Path, int, str]], List[str]]:
    """The write-only attributes not on :data:`WRITE_ONLY_ALLOWLIST`,
    and the entries no longer reported."""
    found = write_only_attributes(repo)
    return (
        [(path, line, name) for name, (path, line) in sorted(found.items())
         if name not in WRITE_ONLY_ALLOWLIST],
        sorted(name for name in WRITE_ONLY_ALLOWLIST if name not in found),
    )


def definition_gate(repo: Path) -> Tuple[List[Definition], List[str]]:
    """The unreached definitions not on :data:`ALLOWLIST`, and the
    allowlist entries no longer reported."""
    unreached = unreached_definitions(repo)
    reported = {d[2] for d in unreached}
    return (
        [d for d in unreached if d[2] not in ALLOWLIST],
        sorted(name for name in ALLOWLIST if name not in reported),
    )


def main(argv: List[str]) -> int:
    repo = Path(__file__).resolve().parent.parent
    roots = [Path(a) for a in argv] or [
        repo / "src", repo / "scripts", repo / "benchmarks", repo / "tests"
    ]
    findings: List[Finding] = []
    checked = 0
    for path in iter_sources(roots):
        checked += 1
        findings.extend(check_file(path))
    for path, line, message in findings:
        try:
            shown = path.relative_to(repo)
        except ValueError:
            shown = path
        print(f"{shown}:{line}: {message}")
    status = "FAIL" if findings else "OK"
    print(f"[lint-deadcode] {status}: {len(findings)} finding(s) "
          f"in {checked} file(s)")
    if argv:
        return 1 if findings else 0
    unlisted, stale = definition_gate(repo)
    for path, line, name, size in unlisted:
        print(f"{path.relative_to(repo)}:{line}: {name} ({size} lines) "
              f"is referenced only from tests/ or nowhere")
    for name in stale:
        print(f"{Path(__file__).relative_to(repo)}: allowlisted {name} "
              f"is no longer reported; drop it from ALLOWLIST")
    gate = "FAIL" if unlisted or stale else "OK"
    print(f"[lint-deadcode] {gate}: {len(unlisted)} unlisted src/ "
          f"definition(s) no run reaches, {len(stale)} stale allowlist "
          f"entr{'y' if len(stale) == 1 else 'ies'}, {len(ALLOWLIST)} allowlisted")
    write_only, stale_writes = write_only_gate(repo)
    for path, line, name in write_only:
        print(f"{path.relative_to(repo)}:{line}: attribute {name} is stored "
              f"but no production code loads it")
    for name in stale_writes:
        print(f"{Path(__file__).relative_to(repo)}: write-only allowlisted "
              f"{name} is no longer reported; drop it from WRITE_ONLY_ALLOWLIST")
    gate = "FAIL" if write_only or stale_writes else "OK"
    print(f"[lint-deadcode] {gate}: {len(write_only)} unlisted write-only "
          f"attribute(s), {len(stale_writes)} stale, "
          f"{len(WRITE_ONLY_ALLOWLIST)} allowlisted")
    return 1 if findings or unlisted or stale or write_only or stale_writes else 0

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
