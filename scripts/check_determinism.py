#!/usr/bin/env python
"""Self-lint the scheduler-adjacent modules for ordering hazards.

The simulator's whole value is reproducibility: two runs of the same
workload must produce byte-identical reports.  The two ways that breaks
in practice are both one-liners that look harmless in review:

* iterating a ``set`` (or ``dict`` built from one) without ``sorted()``
  — Python's set order is salted per process, so placement order, and
  with it every modeled latency, changes run to run;
* ordering by ``id(...)`` — CPython object addresses differ between
  processes, so ``sorted``/``min``/``max`` keyed by ``id`` is a coin
  flip dressed up as a tie-break.

This script walks the AST of the placement-critical modules and flags:

``set-iteration``
    a ``for`` loop, comprehension, ``list()``/``tuple()`` call, or
    unpacking whose iterable is a set display, set comprehension, or a
    bare ``set(...)`` / ``.keys()``-of-``set`` call, not wrapped in
    ``sorted()``;
``id-ordering``
    ``sorted``/``min``/``max`` whose ``key=`` lambda returns ``id(...)``
    or whose iterable maps ``id`` over elements.

A finding on a line carrying a ``# det: ok`` comment is suppressed —
for the rare case where the order provably cannot escape (e.g. feeding
a commutative reduction like ``sum``).

Exit status: 0 when clean, 1 when any finding survives.  CI runs this
in the lint job; add new placement-path modules to ``TARGETS`` as the
scheduler grows.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterator, List, Tuple

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"

#: files and directories whose iteration order feeds placement decisions
#: — or, for simulator/ and replay/, journaled fingerprints: a salted
#: set order there shows up as a false divergence in ``udc bisect``
TARGETS = [
    SRC / "core" / "cells.py",
    SRC / "core" / "scheduler.py",
    # compiled templates hold the candidate order placement walks
    SRC / "core" / "template.py",
    SRC / "hardware" / "pools.py",
    SRC / "service",
    SRC / "simulator",
    SRC / "replay",
    # byte-deterministic outputs promised to users: gateway responses,
    # autopilot plans, analyzer reports and the modularizer's emitted
    # definitions (``udc modularize --json`` pins byte-identity)
    SRC / "gateway",
    SRC / "economics",
    SRC / "analysis",
    # task stages and validation messages (returned in gateway 400s)
    SRC / "appmodel" / "dag.py",
    # admission-retry order, preemption victim order and store healing
    # feed journaled fingerprints
    SRC / "core" / "runtime.py",
    SRC / "distsem",
    # metrics snapshots and telemetry land in byte-pinned ``udc record``
    # reports
    SRC / "core" / "observability.py",
    SRC / "core" / "telemetry.py",
]

SUPPRESS_MARK = "# det: ok"


def _is_set_expr(node: ast.expr) -> bool:
    """Does this expression certainly produce a ``set``?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return True
        if isinstance(func, ast.Attribute) and func.attr in (
                "union", "intersection", "difference",
                "symmetric_difference"):
            # Conservative: only flag when the receiver is itself a
            # set expression, so ``df.union(...)`` on other types
            # doesn't false-positive.
            return _is_set_expr(func.value)
    return False


def _is_sorted_call(node: ast.expr) -> bool:
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "sorted")


def _returns_id(node: ast.expr) -> bool:
    """Does this expression evaluate ``id(...)`` (possibly in a tuple)?"""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id == "id":
        return True
    if isinstance(node, ast.Tuple):
        return any(_returns_id(el) for el in node.elts)
    return False


class _Visitor(ast.NodeVisitor):
    def __init__(self):
        self.findings: List[Tuple[int, str, str]] = []

    # -- unsorted set iteration ---------------------------------------------

    def _check_iterable(self, node: ast.expr):
        if _is_set_expr(node):
            self.findings.append((
                node.lineno, "set-iteration",
                "iterating a set without sorted(); set order is salted "
                "per process",
            ))

    def visit_For(self, node: ast.For):
        self._check_iterable(node.iter)
        self.generic_visit(node)

    def _visit_comprehension(self, node):
        for gen in node.generators:
            self._check_iterable(gen.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension
    visit_DictComp = _visit_comprehension

    def visit_SetComp(self, node: ast.SetComp):
        # Building another set from a set is fine — order still doesn't
        # exist until someone iterates the result.
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call):
        func = node.func
        # list({...}) / tuple(set(...)) — materializes salted order.
        if isinstance(func, ast.Name) and func.id in ("list", "tuple") \
                and node.args and _is_set_expr(node.args[0]):
            self._check_iterable(node.args[0])
        # sorted/min/max keyed by id().
        if isinstance(func, ast.Name) and func.id in ("sorted", "min", "max"):
            for kw in node.keywords:
                if kw.arg == "key" and isinstance(kw.value, ast.Lambda) \
                        and _returns_id(kw.value.body):
                    self.findings.append((
                        node.lineno, "id-ordering",
                        f"{func.id}() keyed by id(); object addresses "
                        f"differ across processes",
                    ))
            # sorted(map(id, xs)) / sorted(id(x) for x in xs)
            if node.args:
                arg = node.args[0]
                if isinstance(arg, ast.GeneratorExp) \
                        and _returns_id(arg.elt):
                    self.findings.append((
                        node.lineno, "id-ordering",
                        f"{func.id}() over id() values; object addresses "
                        f"differ across processes",
                    ))
        self.generic_visit(node)


def _iter_target_files() -> Iterator[Path]:
    for target in TARGETS:
        if target.is_dir():
            yield from sorted(target.rglob("*.py"))
        else:
            yield target


def lint_file(path: Path) -> List[Tuple[Path, int, str, str]]:
    source = path.read_text()
    lines = source.splitlines()
    visitor = _Visitor()
    visitor.visit(ast.parse(source, filename=str(path)))
    out = []
    for lineno, rule, message in visitor.findings:
        line = lines[lineno - 1] if lineno - 1 < len(lines) else ""
        if SUPPRESS_MARK in line:
            continue
        out.append((path, lineno, rule, message))
    return out


def main() -> int:
    findings = []
    for path in _iter_target_files():
        findings.extend(lint_file(path))
    findings.sort(key=lambda f: (str(f[0]), f[1]))
    for path, lineno, rule, message in findings:
        rel = path.relative_to(REPO)
        print(f"{rel}:{lineno}: [{rule}] {message}")
    if findings:
        print(f"{len(findings)} determinism hazard(s); wrap the iterable "
              f"in sorted() or annotate the line with '{SUPPRESS_MARK}'")
        return 1
    print(f"determinism lint: clean "
          f"({sum(1 for _ in _iter_target_files())} file(s) checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
