"""The module DAG with locality relationships (paper §3.1).

Edges carry the bytes that flow between modules; two locality mechanisms
from the paper are first-class:

* **co-location groups** — *"computation tasks that should be executed
  together on the same hardware unit (e.g., A1 and A2)"*;
* **affinity hints** — *"a data object (e.g., S1) is frequently used by a
  computation task (e.g., A3)"*, weighted by expected access volume.

Validation catches the mistakes a user-facing control plane must reject:
cycles, dangling edge endpoints, co-location groups spanning incompatible
device candidates, and task→task edges declared through a data module that
neither endpoint touches.

Graph views are plain dicts, ``node -> sorted upstream nodes``;
:func:`topological_stages` and :func:`simple_cycles` walk them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple, Union

from repro.appmodel.module import DataModule, TaskModule

__all__ = ["DagValidationError", "Edge", "ModuleDAG", "simple_cycles",
           "topological_stages"]

Module = Union[TaskModule, DataModule]

#: a directed graph as ``node -> upstream nodes``; every node is a key
Preds = Mapping[str, Iterable[str]]


class DagValidationError(Exception):
    """Raised when an application DAG is structurally invalid."""


def _successors(preds: Preds) -> Dict[str, List[str]]:
    """``node -> downstream nodes``, each list sorted."""
    succs: Dict[str, List[str]] = {node: [] for node in preds}
    for node in sorted(preds):
        for up in preds[node]:
            succs[up].append(node)
    return succs


def topological_stages(preds: Preds) -> Optional[List[List[str]]]:
    """Kahn generations of ``preds``, each stage sorted; ``None`` when
    the graph has a cycle."""
    succs = _successors(preds)
    waiting = dict.fromkeys(succs, 0)
    for downs in succs.values():
        for down in downs:
            waiting[down] += 1
    stage = sorted(node for node, count in waiting.items() if count == 0)
    stages: List[List[str]] = []
    while stage:
        stages.append(stage)
        ready = []
        for node in stage:
            for down in succs[node]:
                waiting[down] -= 1
                if waiting[down] == 0:
                    ready.append(down)
        stage = sorted(ready)
    if sum(map(len, stages)) != len(waiting):
        return None
    return stages


def _hops_back(preds: Preds, target: str) -> Dict[str, int]:
    """Fewest hops from each node to ``target`` moving only through
    names above ``target`` (``target`` itself maps to 0)."""
    hops = {target: 0}
    frontier = [target]
    while frontier:
        ahead = []
        for node in frontier:
            for up in preds[node]:
                if up > target and up not in hops:
                    hops[up] = hops[node] + 1
                    ahead.append(up)
        frontier = ahead
    return hops


def simple_cycles(preds: Preds) -> List[List[str]]:
    """Every elementary cycle of ``preds``, rotated to start at its
    smallest name, sorted by (length, nodes).  Self-loops count as
    cycles of length one."""
    succs = _successors(preds)
    cycles: List[List[str]] = []
    for start in sorted(preds):
        # A cycle rotated to ``start`` visits only larger names, and only
        # nodes that can still get back to ``start`` are worth a step.
        back = _hops_back(preds, start)
        path, on_path = [start], {start}
        stack = [iter(succs[start])]
        while stack:
            for node in stack[-1]:
                if node == start:
                    cycles.append(list(path))
                elif node in back and node not in on_path:
                    path.append(node)
                    on_path.add(node)
                    stack.append(iter(succs[node]))
                    break
            else:
                stack.pop()
                on_path.discard(path.pop())
    cycles.sort(key=lambda cycle: (len(cycle), cycle))
    return cycles


def _first_cycle(preds: Preds) -> Optional[List[str]]:
    """``simple_cycles(preds)[0]`` (or ``None``) without enumerating
    every cycle, which can take exponential time on untrusted input.

    That cycle is a shortest one with the smallest start, so no node
    repeats on it: a greedy walk along exact hop counts finds it.
    """
    succs = _successors(preds)
    best: Optional[Tuple[int, str, Dict[str, int]]] = None
    for start in sorted(preds):
        back = _hops_back(preds, start)
        length = min((back[node] + 1 for node in succs[start] if node in back),
                     default=None)
        if length and (best is None or length < best[0]):
            best = (length, start, back)
    if best is None:
        return None
    length, start, back = best
    cycle = [start]
    while len(cycle) < length:
        left = length - len(cycle)
        cycle.append(min(node for node in succs[cycle[-1]]
                         if node != start and back.get(node) == left))
    return cycle


def _ancestors(preds: Preds, node: str) -> Set[str]:
    seen: Set[str] = set()
    frontier = [node]
    while frontier:
        for up in preds[frontier.pop()]:
            if up not in seen:
                seen.add(up)
                frontier.append(up)
    return seen


@dataclass(frozen=True)
class Edge:
    """A dependency: ``src`` must produce before ``dst`` consumes.

    ``bytes_transferred`` sizes the data movement the scheduler must place
    around; task→data edges model writes, data→task edges model reads.
    """

    src: str
    dst: str
    bytes_transferred: int = 1024


@dataclass
class ModuleDAG:
    """A complete UDC application description."""

    name: str
    modules: Dict[str, Module] = field(default_factory=dict)
    edges: List[Edge] = field(default_factory=list)
    #: sets of task names that must share a hardware unit
    colocate_groups: List[Set[str]] = field(default_factory=list)
    #: (task, data) -> access weight in bytes per run
    affinities: Dict[Tuple[str, str], int] = field(default_factory=dict)

    # -- construction ---------------------------------------------------------

    def add_module(self, module: Module) -> Module:
        if module.name in self.modules:
            raise DagValidationError(f"duplicate module name {module.name!r}")
        self.modules[module.name] = module
        return module

    def add_edge(self, src: str, dst: str, bytes_transferred: int = 1024) -> Edge:
        edge = Edge(src=src, dst=dst, bytes_transferred=bytes_transferred)
        self.edges.append(edge)
        return edge

    def colocate(self, *names: str) -> None:
        """Require the named tasks to run on the same hardware unit."""
        if len(names) < 2:
            raise DagValidationError("colocate needs at least two modules")
        self.colocate_groups.append(set(names))

    def affine(self, task: str, data: str, weight_bytes: int = 1 << 20) -> None:
        """Hint that ``task`` frequently accesses ``data``."""
        self.affinities[(task, data)] = weight_bytes

    # -- accessors ------------------------------------------------------------

    def task(self, name: str) -> TaskModule:
        module = self.modules[name]
        if not isinstance(module, TaskModule):
            raise KeyError(f"{name!r} is not a task module")
        return module

    def data(self, name: str) -> DataModule:
        module = self.modules[name]
        if not isinstance(module, DataModule):
            raise KeyError(f"{name!r} is not a data module")
        return module

    @property
    def tasks(self) -> List[TaskModule]:
        return [m for m in self.modules.values() if isinstance(m, TaskModule)]

    @property
    def data_modules(self) -> List[DataModule]:
        return [m for m in self.modules.values() if isinstance(m, DataModule)]

    def predecessors(self, name: str) -> List[str]:
        return [e.src for e in self.edges if e.dst == name]

    def successors(self, name: str) -> List[str]:
        return [e.dst for e in self.edges if e.src == name]

    def colocation_group_of(self, name: str) -> Optional[Set[str]]:
        for group in self.colocate_groups:
            if name in group:
                return group
        return None

    # -- graph views ------------------------------------------------------------

    def to_networkx(self):
        """The whole module graph as a ``networkx.DiGraph`` (nodes carry
        ``kind``, edges ``bytes``).  Needs networkx installed; nothing in
        the package calls it."""
        import networkx as nx

        graph = nx.DiGraph(name=self.name)
        for module_name, module in self.modules.items():
            graph.add_node(module_name, kind=module.kind.value)
        for edge in self.edges:
            graph.add_edge(edge.src, edge.dst, bytes=edge.bytes_transferred)
        return graph

    def effective_task_graph(self) -> Dict[str, List[str]]:
        """Dependencies between *task* modules only: task → sorted
        upstream tasks, every task a key (in sorted order).

        Two kinds of edges:

        * direct task→task edges;
        * data-induced edges: a task that writes a data module happens
          before a task that reads it — *unless* that ordering would
          create a cycle (e.g. Figure 2's A4 writes S1 while its own
          upstream A3 reads S1: the write-back is a later round, not a
          dependency of this run).

        Induced edges are considered in sorted order so the result is
        deterministic.
        """
        task_names = {t.name for t in self.tasks}
        preds: Dict[str, Set[str]] = {name: set() for name in sorted(task_names)}
        for edge in self.edges:
            if edge.src in task_names and edge.dst in task_names:
                preds[edge.dst].add(edge.src)

        induced = set()
        for data_name in sorted(m.name for m in self.data_modules):
            writers = [e.src for e in self.edges
                       if e.dst == data_name and e.src in task_names]
            readers = [e.dst for e in self.edges
                       if e.src == data_name and e.dst in task_names]
            induced.update((writer, reader) for writer in writers
                           for reader in readers if writer != reader)
        for writer, reader in sorted(induced):
            # Skip an induced edge that would close a cycle: the reader
            # already (transitively) precedes the writer.
            if writer not in preds[reader] \
                    and reader not in _ancestors(preds, writer):
                preds[reader].add(writer)
        return {name: sorted(ups) for name, ups in preds.items()}

    def task_stages(self) -> List[List[str]]:
        """Topological stages over *task* modules only.

        Data modules are standing state, not schedulable steps; a task's
        stage is its depth in :meth:`effective_task_graph`.
        """
        stages = topological_stages(self.effective_task_graph())
        if stages is None:
            raise DagValidationError(f"app {self.name!r} has a task cycle")
        return stages

    # -- validation ---------------------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`DagValidationError` on any structural problem."""
        for edge in self.edges:
            for endpoint in (edge.src, edge.dst):
                if endpoint not in self.modules:
                    raise DagValidationError(
                        f"edge {edge.src}->{edge.dst} references unknown "
                        f"module {endpoint!r}"
                    )
            if edge.bytes_transferred < 0:
                raise DagValidationError(
                    f"edge {edge.src}->{edge.dst} has negative transfer size"
                )

        for edge in self.edges:
            if edge.src == edge.dst:
                raise DagValidationError(f"self-loop on module {edge.src!r}")

        # Cycles through *data* modules are legal — a task may write back
        # to state an upstream task read (Figure 2: A4 appends the
        # diagnosis to S1, which A3 read); data modules are standing
        # state, not one-shot dataflow.  Direct task→task cycles are not.
        task_names = {t.name for t in self.tasks}
        direct: Dict[str, Set[str]] = {name: set() for name in task_names}
        for edge in self.edges:
            if edge.src in task_names and edge.dst in task_names:
                direct[edge.dst].add(edge.src)
        cycle = _first_cycle(direct)
        if cycle is not None:
            raise DagValidationError(
                f"task graph has a cycle: {' -> '.join(cycle + cycle[:1])}"
            )

        for group in self.colocate_groups:
            unknown = group - set(self.modules)
            if unknown:
                raise DagValidationError(
                    f"colocate group references unknown modules {sorted(unknown)}"
                )
            members = [self.modules[n] for n in group]
            non_tasks = sorted(m.name for m in members
                               if not isinstance(m, TaskModule))
            if non_tasks:
                raise DagValidationError(
                    f"colocate group may only contain tasks; got {non_tasks}"
                )
            shared = frozenset.intersection(
                *(m.device_candidates for m in members if isinstance(m, TaskModule))
            )
            if not shared:
                raise DagValidationError(
                    f"colocate group {sorted(group)} has no common device "
                    f"candidate — the tasks cannot share a hardware unit"
                )

        for (task_name, data_name) in self.affinities:
            if task_name not in self.modules or data_name not in self.modules:
                raise DagValidationError(
                    f"affinity ({task_name}, {data_name}) references unknown module"
                )
            if not isinstance(self.modules[task_name], TaskModule):
                raise DagValidationError(
                    f"affinity source {task_name!r} must be a task"
                )
            if not isinstance(self.modules[data_name], DataModule):
                raise DagValidationError(
                    f"affinity target {data_name!r} must be a data module"
                )

    def merged_colocation_groups(self) -> List[Set[str]]:
        """Union overlapping groups so 'A~B' and 'B~C' yields {A, B, C}."""
        merged: List[Set[str]] = []
        for group in self.colocate_groups:
            group = set(group)
            overlapping = [g for g in merged if g & group]
            for g in overlapping:
                group |= g
                merged.remove(g)
            merged.append(group)
        return merged
