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

After those findings, a whole-repo run (no path arguments) prints a
record-only report of **test-only definitions**: functions, classes
and methods defined in ``src/`` whose name is referenced from
``tests/`` but from nowhere in ``src/``, ``examples/``, ``scripts/``,
``bench/`` or ``benchmarks/`` — each with ``file:line`` and its size
in lines.  A reference is any use of the name as a bare name, an
attribute or an imported name; dunder methods are skipped (the
interpreter calls them).  The report never changes the exit status.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterable, List, Set, Tuple

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

#: (path, line, qualified name, size in lines)
Definition = Tuple[Path, int, str, int]


def referenced_names(paths: Iterable[Path]) -> Set[str]:
    """Every name the files use: bare names, attributes, imports."""
    names: Set[str] = set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(alias.name.split(".")[-1] for alias in node.names)
    return names


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


def test_only_definitions(repo: Path) -> List[Definition]:
    """``src/`` definitions whose name only ``tests/`` references."""
    production = referenced_names(
        path for root in _PRODUCTION_ROOTS for path in iter_sources([repo / root])
    )
    tested = referenced_names(iter_sources([repo / "tests"]))
    return [
        d
        for path in iter_sources([repo / "src"])
        for d in definitions(path)
        if (name := d[2].rsplit(".", 1)[-1]) in tested and name not in production
    ]


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
    if not argv:
        test_only = test_only_definitions(repo)
        for path, line, name, size in test_only:
            print(f"{path.relative_to(repo)}:{line}: {name} ({size} lines)")
        print(f"[lint-deadcode] record only: {len(test_only)} src/ "
              f"definition(s) referenced only from tests/, "
              f"{sum(d[3] for d in test_only)} lines")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
