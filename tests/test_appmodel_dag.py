"""Tests for modules, the DAG, and the annotation API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.appmodel.annotations import AppBuilder, data, task
from repro.appmodel.dag import DagValidationError, ModuleDAG
from repro.appmodel.module import DataModule, TaskModule
from repro.hardware.devices import DeviceType


# ------------------------------------------------------------ modules


def test_task_module_validation():
    with pytest.raises(ValueError):
        TaskModule(name="t", work=0)
    with pytest.raises(ValueError):
        TaskModule(name="t", device_candidates=frozenset())
    with pytest.raises(ValueError, match="compute"):
        TaskModule(name="t", device_candidates=frozenset({DeviceType.SSD}))


def test_execution_seconds_scaling():
    module = TaskModule(name="t", work=40.0)
    slow = module.execution_seconds(DeviceType.CPU, 1.0, 1.0)
    fast = module.execution_seconds(DeviceType.CPU, 4.0, 1.0)
    assert slow == 40.0 and fast == 10.0


def test_execution_respects_parallelism_cap():
    module = TaskModule(name="t", work=40.0, max_parallelism=2)
    capped = module.execution_seconds(DeviceType.CPU, 8.0, 1.0)
    assert capped == module.execution_seconds(DeviceType.CPU, 2.0, 1.0)
    assert module.usable_amount(8.0) == 2.0


def test_execution_wrong_device_rejected():
    module = TaskModule(name="t", device_candidates=frozenset({DeviceType.CPU}))
    with pytest.raises(ValueError):
        module.execution_seconds(DeviceType.GPU, 1.0, 40.0)


def test_code_hash_stable_per_function():
    def f(ctx):
        return 1

    a = task(name="a")(f)
    b = task(name="b")(f)
    assert a.code_hash == b.code_hash  # same bytecode
    assert a.code_hash


def test_data_module_validation():
    with pytest.raises(ValueError):
        DataModule(name="d", size_gb=0)
    with pytest.raises(ValueError):
        DataModule(name="d", record_bytes=0)
    assert DataModule(name="d", size_gb=2).size_bytes == int(2e9)


# ------------------------------------------------------------ DAG structure


def build_diamond():
    dag = ModuleDAG(name="diamond")
    for name in "abcd":
        dag.add_module(TaskModule(name=name))
    dag.add_edge("a", "b")
    dag.add_edge("a", "c")
    dag.add_edge("b", "d")
    dag.add_edge("c", "d")
    return dag


def test_duplicate_module_rejected():
    dag = ModuleDAG(name="x")
    dag.add_module(TaskModule(name="a"))
    with pytest.raises(DagValidationError):
        dag.add_module(TaskModule(name="a"))


def test_unknown_edge_endpoint_rejected():
    dag = ModuleDAG(name="x")
    dag.add_module(TaskModule(name="a"))
    dag.add_edge("a", "ghost")
    with pytest.raises(DagValidationError, match="unknown"):
        dag.validate()


def test_task_cycle_rejected():
    dag = ModuleDAG(name="x")
    dag.add_module(TaskModule(name="a"))
    dag.add_module(TaskModule(name="b"))
    dag.add_edge("a", "b")
    dag.add_edge("b", "a")
    with pytest.raises(DagValidationError, match="cycle"):
        dag.validate()


CYCLE_SCRIPT = """
from repro.appmodel.dag import DagValidationError, ModuleDAG
from repro.appmodel.module import TaskModule
dag = ModuleDAG(name="loop")
for name in ("a", "b", "c"):
    dag.add_module(TaskModule(name=name))
for src, dst in (("b", "c"), ("c", "a"), ("a", "b")):
    dag.add_edge(src, dst)
try:
    dag.validate()
except DagValidationError as exc:
    print(exc)
"""


def test_cycle_message_is_independent_of_hash_seed():
    """The gateway returns this text in 400 bodies: it must not depend
    on set iteration order (these two seeds differed under the old
    ``find_cycle``-over-a-set message)."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    messages = set()
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", CYCLE_SCRIPT], env=env,
                             capture_output=True, text=True, check=True)
        messages.add(out.stdout.strip())
    assert messages == {"task graph has a cycle: a -> b -> c -> a"}


def test_self_loop_rejected():
    dag = ModuleDAG(name="x")
    dag.add_module(TaskModule(name="a"))
    dag.add_edge("a", "a")
    with pytest.raises(DagValidationError, match="self-loop"):
        dag.validate()


def test_write_back_through_data_is_legal():
    """Figure 2's A4 -> S1 -> A3 -> A4 pattern must validate."""
    dag = ModuleDAG(name="x")
    dag.add_module(TaskModule(name="reader"))
    dag.add_module(TaskModule(name="writer"))
    dag.add_module(DataModule(name="state"))
    dag.add_edge("state", "reader")
    dag.add_edge("reader", "writer")
    dag.add_edge("writer", "state")
    dag.validate()
    graph = dag.effective_task_graph()
    assert graph == {"reader": [], "writer": ["reader"]}  # no cycle-closing edge


def test_stages_of_diamond():
    assert build_diamond().task_stages() == [["a"], ["b", "c"], ["d"]]


def test_data_induced_stage_ordering():
    dag = ModuleDAG(name="x")
    dag.add_module(TaskModule(name="producer"))
    dag.add_module(TaskModule(name="consumer"))
    dag.add_module(DataModule(name="buffer"))
    dag.add_edge("producer", "buffer")
    dag.add_edge("buffer", "consumer")
    assert dag.task_stages() == [["producer"], ["consumer"]]


def test_colocate_validation():
    dag = build_diamond()
    with pytest.raises(DagValidationError):
        dag.colocate("a")  # needs >= 2
    dag.colocate("a", "ghost")
    with pytest.raises(DagValidationError, match="unknown"):
        dag.validate()


def test_colocate_data_module_rejected():
    dag = ModuleDAG(name="x")
    dag.add_module(TaskModule(name="a"))
    dag.add_module(DataModule(name="d"))
    dag.colocate("a", "d")
    with pytest.raises(DagValidationError, match="only contain tasks"):
        dag.validate()


def test_colocate_incompatible_devices_rejected():
    dag = ModuleDAG(name="x")
    dag.add_module(TaskModule(name="cpu_task",
                              device_candidates=frozenset({DeviceType.CPU})))
    dag.add_module(TaskModule(name="gpu_task",
                              device_candidates=frozenset({DeviceType.GPU})))
    dag.colocate("cpu_task", "gpu_task")
    with pytest.raises(DagValidationError, match="no common device"):
        dag.validate()


def test_merged_colocation_groups():
    dag = ModuleDAG(name="x")
    for name in "abc":
        dag.add_module(TaskModule(name=name))
    dag.colocate("a", "b")
    dag.colocate("b", "c")
    merged = dag.merged_colocation_groups()
    assert merged == [{"a", "b", "c"}]


def test_affinity_validation():
    dag = ModuleDAG(name="x")
    dag.add_module(TaskModule(name="t"))
    dag.add_module(DataModule(name="d"))
    dag.affine("d", "t")  # wrong direction
    with pytest.raises(DagValidationError, match="must be a task"):
        dag.validate()


def test_predecessors_successors():
    dag = build_diamond()
    assert sorted(dag.predecessors("d")) == ["b", "c"]
    assert sorted(dag.successors("a")) == ["b", "c"]


# ------------------------------------------------------------ builder API


def test_builder_end_to_end():
    app = AppBuilder("demo")

    @app.task(work=2.0)
    def step1(ctx):
        return 1

    @app.task(work=3.0, devices={DeviceType.GPU})
    def step2(ctx):
        return 2

    store = app.data("store", size_gb=5, hot=True)
    app.flows(step1, step2, bytes_=1000)
    app.writes(step2, store)
    dag = app.build()
    assert set(dag.modules) == {"step1", "step2", "store"}
    assert dag.task("step2").device_candidates == frozenset({DeviceType.GPU})
    assert ("step2", "store") in dag.affinities


def test_builder_reads_creates_edge_and_affinity():
    app = AppBuilder("demo")

    @app.task()
    def consumer(ctx):
        return None

    source = app.data("source")
    app.reads(consumer, source, bytes_per_run=4096)
    dag = app.build()
    assert dag.predecessors("consumer") == ["source"]
    assert dag.affinities[("consumer", "source")] == 4096


def test_standalone_decorators():
    module = task(work=5.0, max_parallelism=3)(lambda ctx: None)
    assert module.work == 5.0 and module.max_parallelism == 3
    d = data("d", size_gb=1)
    assert d.name == "d"
