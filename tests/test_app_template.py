"""Compiled app templates and the canonical-text submission key.

Every pure function of what a tenant submitted — admission result, task
graph and stages, groups, locality pulls, device and environment plans,
router demand — is compiled once per distinct app shape and definition,
keyed by content.  These tests pin the key's text contract (declaration
order, JSON typing, non-JSON values, hash-seed independence) and that
templates are shared by content, never by object identity.
"""

import enum
import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.hardware.devices as devices_mod
import repro.hardware.pools as pools_mod
import repro.service.service as service_mod
from repro.appmodel.dag import ModuleDAG
from repro.appmodel.module import DataModule, TaskModule
from repro.core.runtime import UDCRuntime
from repro.hardware.devices import DeviceType
from repro.hardware.topology import DatacenterSpec, build_datacenter
from repro.service import UDCService
from repro.service.cache import (SubmissionKey, dag_fingerprint,
                                 definition_fingerprint, inputs_fingerprint)

#: four pods -> four cells of 2 racks each
QUAD = DatacenterSpec(
    pods=4, racks_per_pod=2,
    devices_per_rack={DeviceType.CPU: 2, DeviceType.GPU: 2,
                      DeviceType.DRAM: 1, DeviceType.SSD: 1},
)


def pipeline(name="pipe", edge_order=(0, 1), affinity_order=(0, 1),
             group_order=(0, 1), work=2.0):
    """Three tasks, two data modules; every declaration order settable."""
    dag = ModuleDAG(name=name)
    for task in ("a", "b", "c", "d"):
        dag.add_module(TaskModule(name=task, work=work))
    for data in ("raw", "out"):
        dag.add_module(DataModule(name=data, size_gb=1.0))
    edges = [("raw", "a", 1 << 20), ("a", "b", 1 << 10)]
    for index in edge_order:
        dag.add_edge(*edges[index])
    affinities = [("a", "raw", 1 << 20), ("b", "out", 1 << 12)]
    for index in affinity_order:
        dag.affine(*affinities[index])
    groups = [("b", "c"), ("c", "d")]
    for index in group_order:
        dag.colocate(*groups[index])
    return dag


@pytest.fixture
def graph_builds(monkeypatch):
    """Counts ModuleDAG.effective_task_graph calls."""
    calls = []
    original = ModuleDAG.effective_task_graph

    def counted(self):
        calls.append(self.name)
        return original(self)

    monkeypatch.setattr(ModuleDAG, "effective_task_graph", counted)
    return calls


# ------------------------------------------------------------ key text


def test_declaration_order_is_part_of_the_shape():
    """Placement sums locality pulls in edge order and places groups in
    list order, so DAGs declared in another order get their own key."""
    base = dag_fingerprint(pipeline())
    assert dag_fingerprint(pipeline()) == base
    for variant in (pipeline(edge_order=(1, 0)),
                    pipeline(affinity_order=(1, 0)),
                    pipeline(group_order=(1, 0))):
        shape, identity = dag_fingerprint(variant)
        assert shape != base[0]
        assert identity == base[1]


def test_json_typing_is_kept():
    keys = {definition_fingerprint({"a": {"resource": {"amount": value}}})
            for value in (1, 1.0, True)}
    assert len(keys) == 3
    assert inputs_fingerprint({"x": 1}) != inputs_fingerprint({"x": True})
    # The JSON encoder would write each of these keys as the string
    # beside it; the task function still sees a different dict.
    for key, as_text in ((1, "1"), (True, "true"), (None, "null")):
        assert inputs_fingerprint({"x": {key: 0}}) != \
            inputs_fingerprint({"x": {as_text: 0}})
        assert definition_fingerprint({"a": {"x": {key: 0}}}) != \
            definition_fingerprint({"a": {"x": {as_text: 0}}})
        # A set beside them sends both to the non-JSON fallback.
        assert inputs_fingerprint({"x": {key: 0}, "s": {1}}) != \
            inputs_fingerprint({"x": {as_text: 0}, "s": {1}})
    assert inputs_fingerprint({"x": Level.ONE}) != inputs_fingerprint({"x": 1})


class Color(enum.Enum):
    RED = "red"


class Level(enum.IntEnum):
    ONE = 1


@pytest.mark.parametrize("value", [
    {3, 1, 2}, frozenset({"b", "a"}), Color.RED, float("nan"),
    {1: "int key", "s": "str key"},
], ids=["set", "frozenset", "enum", "nan", "mixed-keys"])
def test_non_json_values_key_consistently_and_apart_from_json(value):
    text = definition_fingerprint({"a": {"x": value}})
    assert text == definition_fingerprint({"a": {"x": value}})
    assert text.startswith("\x00")
    # What a JSON-minded caller would have written instead never equals it.
    for stand_in in (sorted(value, key=str) if isinstance(
            value, (set, frozenset)) else None, "red", "NaN", None, {}):
        assert text != definition_fingerprint({"a": {"x": stand_in}})


def test_set_order_does_not_reach_the_key():
    # 0 and 8 share a slot in a small set: insertion order decides which
    # one iterates first.
    first, second = {0, 8}, {8, 0}
    assert list(first) != list(second)
    assert definition_fingerprint({"a": {"x": first}}) == \
        definition_fingerprint({"a": {"x": second}})


KEY_SCRIPT = """
from repro.appmodel.dag import ModuleDAG
from repro.appmodel.module import DataModule, TaskModule
from repro.hardware.devices import DeviceType
from repro.service.cache import SubmissionKey

dag = ModuleDAG(name="seeded")
for name in ("gamma", "alpha", "beta"):
    dag.add_module(TaskModule(name=name, device_candidates=frozenset(
        {DeviceType.GPU, DeviceType.CPU, DeviceType.FPGA})))
dag.add_module(DataModule(name="store", sensitivity="phi"))
dag.add_edge("alpha", "beta")
dag.colocate("gamma", "beta", "alpha")
dag.affine("gamma", "store")
definition = {"alpha": {"tags": {"x", "y", "z", "w"}},
              "beta": {"resource": {"device": "gpu", "amount": 2}}}
print(repr(SubmissionKey.of("tenant", dag, definition, {"in": {"q", "r"}})))
"""


def test_key_text_is_independent_of_hash_seed():
    """Sets iterate in hash order: the key must not."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    keys = set()
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", KEY_SCRIPT], env=env,
                             capture_output=True, text=True, check=True)
        keys.add(out.stdout.strip())
    assert len(keys) == 1


# ------------------------------------------------- templates by content


def test_equal_apps_built_separately_share_one_template(graph_builds):
    service = UDCService(build_datacenter(DatacenterSpec()),
                         result_cache_capacity=0)
    handles = [
        service.submit("t", pipeline(), {"a": {"resource": {"amount": 2}}})
        for _ in range(3)
    ]
    service.drain()
    assert all(h.status == "done" for h in handles)
    memo = service.runtime.admission_memo
    assert memo.stats.misses == 1 and memo.stats.hits == 2
    # The lint pass and the template read the same view: one graph.
    assert graph_builds == ["pipe"]
    templates = {id(h.submission.template) for h in handles}
    assert len(templates) == 1


def test_mutated_dag_and_definition_compile_anew(graph_builds):
    """An identity memo would answer the second submit with the first
    compile; content keys see the mutation."""
    service = UDCService(build_datacenter(DatacenterSpec()),
                         result_cache_capacity=0)
    dag = pipeline()
    definition = {"a": {"resource": {"amount": 1}}}
    first = service.submit("t", dag, definition)
    service.drain()
    dag.add_edge("c", "d")
    definition["a"]["resource"]["amount"] = 2
    second = service.submit("t", dag, definition)
    service.drain()
    assert first.status == second.status == "done"
    one, two = first.submission.template, second.submission.template
    assert one is not two
    assert one.view.graph["d"] == [] and two.view.graph["d"] == ["c"]
    assert one.bundles["a"].resource.amount == 1
    assert two.bundles["a"].resource.amount == 2
    assert second.submission.records["a"].amount == 2
    assert service.runtime.admission_memo.stats.misses == 2
    assert graph_builds == ["pipe", "pipe"]


def churn_app(name, shape):
    """One of three app shapes; ``name`` only changes the identity."""
    dag = ModuleDAG(name=name)
    width = 2 + shape
    for index in range(width):
        dag.add_module(TaskModule(name=f"t{index}", work=3.0 + shape))
    dag.add_module(DataModule(name="state", size_gb=2.0, hot=True))
    for index in range(1, width):
        dag.add_edge(f"t{index - 1}", f"t{index}", 1 << 16)
    dag.add_edge("state", "t0", 1 << 20)
    return dag, {"t0": {"resource": {"amount": 4 + shape}}}


def test_churn_builds_one_task_graph_per_compiled_template(graph_builds,
                                                           monkeypatch):
    """Deterministic work counter: a 4-cell churn run with spills,
    admission retries and repeats builds the task graph, and estimates
    the router's demand, exactly once per distinct compiled template,
    whatever the number of deploys."""
    demands = []
    estimate = service_mod.estimate_demand

    def counted(app, datacenter):
        demands.append(app.name)
        return estimate(app, datacenter)

    monkeypatch.setattr(service_mod, "estimate_demand", counted)
    devices_mod._device_ids = itertools.count()
    pools_mod._alloc_ids = itertools.count()
    service = UDCService(build_datacenter(QUAD), cells=4,
                         result_cache_capacity=0)
    handles = []
    for round_index in range(4):
        for tenant in range(12):
            dag, definition = churn_app(f"app-{tenant}", tenant % 3)
            handles.append(service.submit(f"tenant-{tenant}", dag,
                                          definition))
        service.drain()
    assert all(h.status == "done" for h in handles)
    memo = service.runtime.admission_memo
    assert all(rt.admission_memo is memo for rt in service.cell_runtimes)
    assert memo.stats.misses == 3
    assert len(graph_builds) == memo.stats.misses
    assert len(demands) == memo.stats.misses
    assert len({h.cell for h in handles}) > 1


def test_direct_runtime_submit_compiles_per_submission(graph_builds):
    """Without a memo every submission compiles its own template once;
    retries reuse it."""
    runtime = UDCRuntime(build_datacenter(DatacenterSpec()))
    first = runtime.submit(pipeline(), None)
    second = runtime.submit(pipeline(), None)
    runtime.drain()
    assert first.template is not second.template
    assert graph_builds == ["pipe", "pipe"]
    assert first.result.makespan_s == second.result.makespan_s > 0


def test_key_parts_are_strings():
    key = SubmissionKey.of("t", pipeline(), {"a": {}}, {"a": 1})
    assert all(isinstance(part, str) for part in key[:4])
    assert isinstance(key.result[1], str)
