"""DAG structural pass (``UDC030``–``UDC034``).

Shape problems in the application graph itself — cycles among tasks,
modules nothing connects to, edges naming modules that do not exist.
:meth:`ModuleDAG.validate` *raises* on the worst of these at build time;
the analyzer re-derives them as diagnostics so ``udc lint`` can report
every problem in one run instead of dying on the first, and so apps
built by hand (dicts, IR round-trips) get the same scrutiny as apps
built through :class:`AppBuilder`.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.appmodel.dag import ModuleDAG, simple_cycles
from repro.appmodel.module import DataModule, TaskModule

__all__ = ["structure_pass"]


def structure_pass(app: ModuleDAG) -> List[Diagnostic]:
    """Structural checks over the application graph; never raises."""
    findings: List[Diagnostic] = []

    # UDC033 — edges whose endpoints the app does not define.  Such edges
    # are excluded from every later check (they have no modules to walk).
    known_edges = []
    for edge in app.edges:
        missing = sorted(
            end for end in (edge.src, edge.dst) if end not in app.modules
        )
        if missing:
            for end in missing:
                findings.append(Diagnostic(
                    code="UDC033", severity=Severity.ERROR, module=end,
                    message=f"edge {edge.src} -> {edge.dst} references "
                            f"{end!r}, which the application does not define",
                    hint=f"add a module named {end!r} or remove the edge",
                ))
            continue
        known_edges.append(edge)

    # UDC034 — self-loops: a module cannot depend on its own output.
    for edge in known_edges:
        if edge.src == edge.dst:
            findings.append(Diagnostic(
                code="UDC034", severity=Severity.ERROR, module=edge.src,
                message=f"module {edge.src!r} has a self-loop edge",
                hint="remove the edge; a module cannot precede itself",
            ))

    # UDC030 — cycles among task modules.  Cycles *through data* are
    # legal (A4 writes S1, A3 reads S1 models successive runs), so only
    # direct task->task edges enter the cycle graph — the same rule
    # ModuleDAG.validate enforces.
    task_graph: Dict[str, Set[str]] = {
        module.name: set() for module in app.modules.values()
        if isinstance(module, TaskModule)
    }
    for edge in known_edges:
        if edge.src != edge.dst \
                and edge.src in task_graph and edge.dst in task_graph:
            task_graph[edge.dst].add(edge.src)
    cycles = sorted(
        (sorted(c) for c in simple_cycles(task_graph)),
        key=lambda c: (len(c), c),
    )
    for cycle in cycles:
        findings.append(Diagnostic(
            code="UDC030", severity=Severity.ERROR, module=cycle[0],
            message=f"task cycle: {' -> '.join(cycle + [cycle[0]])}",
            hint="break the cycle, or route the feedback through a data "
                 "module to model successive runs",
        ))

    # UDC031 / UDC032 — modules no edge touches.  A disconnected task
    # will still be scheduled (and billed); an untouched data module
    # will still be replicated and stored.  Both are almost certainly
    # authoring mistakes, but neither breaks a run: warnings.
    touched = set()
    for edge in known_edges:
        touched.add(edge.src)
        touched.add(edge.dst)
    for task, data in app.affinities:
        touched.add(task)
        touched.add(data)
    for name in sorted(app.modules):
        if name in touched:
            continue
        module = app.modules[name]
        if isinstance(module, TaskModule):
            findings.append(Diagnostic(
                code="UDC031", severity=Severity.WARNING, module=name,
                message=f"task {name!r} has no edges; it runs detached "
                        f"from the rest of the application",
                hint="connect it to the DAG or remove it",
            ))
        elif isinstance(module, DataModule):
            findings.append(Diagnostic(
                code="UDC032", severity=Severity.WARNING, module=name,
                message=f"data module {name!r} is never read or written",
                hint="add a read/write edge or drop the module (it still "
                     "costs storage and replication)",
            ))

    return findings
