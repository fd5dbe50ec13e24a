"""Application semantics (paper §3.1).

A UDC program is *"a DAG of modules"* — task modules (code blocks) and
data modules (data structures) — enhanced with locality relationships, and
optionally written against an actor model where each actor is a module
communicating by explicit messages (the paper cites LegoOS-line evidence
that explicit messages beat shared memory on disaggregated hardware).

* :mod:`~repro.appmodel.module` — task and data module definitions;
* :mod:`~repro.appmodel.dag` — the module DAG with dependency edges,
  co-location groups, and task↔data affinity hints;
* :mod:`~repro.appmodel.annotations` — the decorator/builder API
  application developers use ("libraries in different languages that offer
  annotations for expressing module scopes and locality hints");
* :mod:`~repro.appmodel.actor` — a message-passing actor framework with
  per-actor mailboxes and no shared state;
* :mod:`~repro.appmodel.ir` — the uniform intermediate representation
  ("high-level modules and their relationships, not low-level code
  instructions") that language frontends compile to.

Legacy programs reach a module DAG through the whole-program analyzer,
:func:`repro.analysis.program.modularize` (§4).
"""

from repro.appmodel.actor import Actor, ActorRef, ActorSystem
from repro.appmodel.annotations import AppBuilder, data, task
from repro.appmodel.dag import DagValidationError, ModuleDAG
from repro.appmodel.ir import IRModule, IRProgram, compile_dag
from repro.appmodel.loader import load_program, load_program_file
from repro.appmodel.module import DataModule, ModuleKind, TaskModule

__all__ = [
    "Actor",
    "ActorRef",
    "ActorSystem",
    "AppBuilder",
    "DagValidationError",
    "DataModule",
    "IRModule",
    "IRProgram",
    "ModuleDAG",
    "ModuleKind",
    "TaskModule",
    "compile_dag",
    "load_program",
    "load_program_file",
    "data",
    "task",
]
