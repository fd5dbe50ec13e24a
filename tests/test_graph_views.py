"""Property tests: the DAG's dict graph views against networkx.

networkx is a test-only oracle here (the package itself has no
third-party dependencies); the module skips when it is not installed.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.appmodel.dag import (
    ModuleDAG,
    _first_cycle,
    simple_cycles,
    topological_stages,
)
from repro.appmodel.module import DataModule, TaskModule

nx = pytest.importorskip("networkx")


@st.composite
def digraphs(draw, max_nodes=7):
    """``(preds, nx.DiGraph)`` over the same random edges (self-loops
    included)."""
    names = [f"n{i}" for i in range(draw(st.integers(0, max_nodes)))]
    pairs = st.tuples(st.sampled_from(names), st.sampled_from(names)) \
        if names else st.nothing()
    edges = draw(st.lists(pairs, max_size=3 * len(names)))
    graph = nx.DiGraph()
    graph.add_nodes_from(names)
    graph.add_edges_from(edges)
    preds = {name: sorted(graph.predecessors(name)) for name in names}
    return preds, graph


def _rotated(cycle):
    start = cycle.index(min(cycle))
    return cycle[start:] + cycle[:start]


@given(digraphs())
@settings(max_examples=300, deadline=None)
def test_topological_stages_match_networkx(case):
    preds, graph = case
    stages = topological_stages(preds)
    if nx.is_directed_acyclic_graph(graph):
        assert stages == [sorted(g) for g in nx.topological_generations(graph)]
    else:
        assert stages is None


@given(digraphs())
@settings(max_examples=300, deadline=None)
def test_simple_cycles_match_networkx(case):
    preds, graph = case
    expected = sorted((_rotated(list(c)) for c in nx.simple_cycles(graph)),
                      key=lambda c: (len(c), c))
    assert simple_cycles(preds) == expected
    assert _first_cycle(preds) == (expected[0] if expected else None)


def _reference_task_graph(dag):
    """The networkx formulation the dict view replaced."""
    task_names = {t.name for t in dag.tasks}
    graph = nx.DiGraph()
    graph.add_nodes_from(sorted(task_names))
    for edge in dag.edges:
        if edge.src in task_names and edge.dst in task_names:
            graph.add_edge(edge.src, edge.dst)
    induced = set()
    for data_name in sorted(m.name for m in dag.data_modules):
        writers = [e.src for e in dag.edges
                   if e.dst == data_name and e.src in task_names]
        readers = [e.dst for e in dag.edges
                   if e.src == data_name and e.dst in task_names]
        induced |= {(w, r) for w in writers for r in readers if w != r}
    for writer, reader in sorted(induced):
        if graph.has_edge(writer, reader):
            continue
        if reader in nx.ancestors(graph, writer):
            continue
        graph.add_edge(writer, reader)
    return graph


@st.composite
def module_dags(draw):
    """Random task/data DAGs: task→task edges only point forward (the
    apps validate() accepts), data edges go anywhere."""
    tasks = [f"t{i}" for i in range(draw(st.integers(1, 6)))]
    datas = [f"d{i}" for i in range(draw(st.integers(0, 3)))]
    dag = ModuleDAG(name="random")
    for name in tasks:
        dag.add_module(TaskModule(name=name))
    for name in datas:
        dag.add_module(DataModule(name=name))
    for i, src in enumerate(tasks):
        for dst in tasks[i + 1:]:
            if draw(st.booleans()):
                dag.add_edge(src, dst)
    for name in datas:
        for task in tasks:
            if draw(st.integers(0, 3)) == 0:
                dag.add_edge(task, name)
            if draw(st.integers(0, 3)) == 0:
                dag.add_edge(name, task)
    return dag


@given(module_dags())
@settings(max_examples=200, deadline=None)
def test_effective_task_graph_matches_networkx(dag):
    graph = dag.effective_task_graph()
    reference = _reference_task_graph(dag)
    assert list(graph) == list(reference.nodes)
    assert graph == {n: sorted(reference.predecessors(n)) for n in reference}
    assert dag.task_stages() == [
        sorted(g) for g in nx.topological_generations(reference)]
