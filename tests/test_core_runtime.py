"""Integration-level tests for the UDC runtime."""

import pytest

from repro.appmodel.annotations import AppBuilder
from repro.core.conflicts import ConflictError, ConflictPolicy
from repro.core.runtime import RuntimeError_, UDCRuntime
from repro.execenv.environments import EnvKind
from repro.execenv.warmpool import WarmPool
from repro.hardware.devices import DeviceType
from repro.hardware.topology import DatacenterSpec, build_datacenter


def small_dc(racks=4):
    return build_datacenter(DatacenterSpec(pods=1, racks_per_pod=racks))


def two_stage_app(work1=1.0, work2=2.0):
    app = AppBuilder("two-stage")

    @app.task(name="first", work=work1)
    def first(ctx):
        return (ctx.get("input") or 0) + 1

    @app.task(name="second", work=work2)
    def second(ctx):
        return ctx["first"] * 10

    app.flows("first", "second", bytes_=1 << 10)
    return app.build()


def test_functional_dataflow():
    runtime = UDCRuntime(small_dc())
    result = runtime.run(two_stage_app(), inputs={"first": 4})
    assert result.outputs["first"] == 5
    assert result.outputs["second"] == 50


def test_second_waits_for_first():
    runtime = UDCRuntime(small_dc())
    result = runtime.run(two_stage_app())
    first = result.objects["first"].record
    second = result.objects["second"].record
    assert second.started_at >= first.finished_at


def test_default_run_uses_container_and_cheapest():
    runtime = UDCRuntime(small_dc())
    result = runtime.run(two_stage_app())
    row = result.row("first")
    assert row.env == "container"
    assert row.device == "cpu"


def test_task_allocations_released_after_completion():
    dc = small_dc()
    runtime = UDCRuntime(dc)
    runtime.run(two_stage_app())
    assert dc.pool(DeviceType.CPU).total_used == 0.0


def test_total_cost_positive_and_settled():
    runtime = UDCRuntime(small_dc())
    result = runtime.run(two_stage_app())
    assert result.total_cost > 0
    # Every allocation's meter closed: ledgers empty, owners cleared.
    assert all(not s.cost_ledger for s in runtime._submissions)
    assert not runtime._owner_of


def test_unknown_module_in_definition_rejected():
    runtime = UDCRuntime(small_dc())
    with pytest.raises(RuntimeError_, match="not in the application"):
        runtime.run(two_stage_app(), {"ghost": {"resource": "fastest"}})


def test_definition_applies_env_kind():
    runtime = UDCRuntime(small_dc())
    result = runtime.run(
        two_stage_app(),
        {"first": {"execenv": {"env": "micro-vm"}}},
    )
    assert result.row("first").env == "micro-vm"
    assert result.row("second").env == "container"


def test_protection_cost_charged():
    app = AppBuilder("protected")

    @app.task(name="producer", work=1.0, output_bytes=10 << 20)
    def producer(ctx):
        return None

    store = app.data("vault", size_gb=1)
    app.writes("producer", store, bytes_per_run=10 << 20)
    dag = app.build()

    runtime = UDCRuntime(small_dc())
    result = runtime.run(
        dag, {"producer": {"execenv": {"protection": ["encrypt", "integrity"]}}}
    )
    assert result.objects["producer"].record.protection_s > 0


def test_checkpoint_cells_taken():
    runtime = UDCRuntime(small_dc())
    result = runtime.run(
        two_stage_app(work1=10.0),
        {"first": {"distributed": {"checkpoint": True,
                                   "checkpoint_interval": 0.25}}},
    )
    record = result.objects["first"].record
    assert record.checkpoints_taken == 3  # at 25/50/75%
    assert record.checkpoint_s > 0


def test_failure_rerun_recovers():
    runtime = UDCRuntime(small_dc())
    dag = two_stage_app(work1=100.0)  # first runs 100 s
    result = runtime.run(
        dag,
        {"first": {"distributed": {"recovery": "rerun"}}},
        failure_plan=[(50.0, "fd:first")],
    )
    record = result.objects["first"].record
    assert record.failures == 1
    assert record.migrations == 1
    assert result.outputs["second"] is not None
    # Reran from scratch: ~50 s lost + full 100 s re-execution.
    assert result.makespan_s > 148
    # compute_s counts completed telemetry chunks: one 25-s chunk finished
    # before the failure landed mid-second-chunk (startup offsets the
    # chunk boundaries past t=50), plus the full 100-s re-execution.
    assert record.compute_s == pytest.approx(125.0, rel=0.05)


def test_failure_checkpoint_restore_faster_than_rerun():
    definition_ckpt = {"first": {"distributed": {
        "checkpoint": True, "checkpoint_interval": 0.1}}}
    definition_rerun = {"first": {"distributed": {"recovery": "rerun"}}}
    results = {}
    for label, definition in (("ckpt", definition_ckpt),
                              ("rerun", definition_rerun)):
        runtime = UDCRuntime(small_dc())
        results[label] = runtime.run(
            two_stage_app(work1=100.0), definition,
            failure_plan=[(90.0, "fd:first")],
        )
    assert results["ckpt"].makespan_s < results["rerun"].makespan_s


def test_failure_strategy_none_is_fatal_but_terminates():
    runtime = UDCRuntime(small_dc())
    result = runtime.run(
        two_stage_app(work1=100.0),
        {"first": {"distributed": {"recovery": "none"}}},
        failure_plan=[(50.0, "fd:first")],
    )
    assert result.outputs.get("first") is None
    assert result.row("first").failures == 1


def test_custom_failure_domain_couples_modules():
    app = AppBuilder("coupled")

    @app.task(name="a", work=50.0)
    def a(ctx):
        return 1

    @app.task(name="b", work=50.0)
    def b(ctx):
        return 2

    dag = app.build()
    runtime = UDCRuntime(small_dc())
    definition = {
        "a": {"distributed": {"failure_domain": "shared"}},
        "b": {"distributed": {"failure_domain": "shared"}},
    }
    result = runtime.run(dag, definition, failure_plan=[(10.0, "shared")])
    assert result.row("a").failures == 1
    assert result.row("b").failures == 1


def test_warm_pool_reduces_makespan():
    definition = {"first": {"execenv": {"isolation": "strong"}},
                  "second": {"execenv": {"isolation": "strong"}}}
    cold = UDCRuntime(small_dc()).run(two_stage_app(), definition)
    warm_runtime = UDCRuntime(
        small_dc(), warm_pool=WarmPool(enabled=True), prewarm=True
    )
    warm = warm_runtime.run(two_stage_app(), definition)
    assert warm.makespan_s < cold.makespan_s
    assert warm.warm_hits == 2


def test_conflict_error_policy_propagates():
    app = AppBuilder("conflict")

    @app.task(name="t1")
    def t1(ctx):
        return None

    @app.task(name="t2")
    def t2(ctx):
        return None

    store = app.data("d")
    app.reads("t1", store)
    app.reads("t2", store)
    dag = app.build()
    definition = {
        "t1": {"distributed": {"data_consistency": {"d": "sequential"}}},
        "t2": {"distributed": {"data_consistency": {"d": "release"}}},
    }
    strict_runtime = UDCRuntime(small_dc(),
                                conflict_policy=ConflictPolicy.ERROR)
    with pytest.raises(ConflictError):
        strict_runtime.run(dag, definition)

    lenient = UDCRuntime(small_dc()).run(dag, definition)
    assert lenient.records["d"].consistency == "sequential"
    assert len(lenient.conflicts.conflicts) == 1


def test_attestation_quote_attached_for_sgx():
    runtime = UDCRuntime(small_dc())
    result = runtime.run(
        two_stage_app(), {"first": {"execenv": {"env": "sgx-enclave"}}}
    )
    assert result.objects["first"].quote is not None
    assert result.objects["second"].quote is None  # container: no quote


def test_tuner_shrinks_overdeclared_task():
    app = AppBuilder("greedy")

    @app.task(name="hog", work=20.0, max_parallelism=2)
    def hog(ctx):
        return None

    dag = app.build()
    runtime = UDCRuntime(small_dc())
    result = runtime.run(
        dag,
        {"hog": {"resource": {"device": "cpu", "amount": 8},
                 "distributed": {"checkpoint": True}}},
    )
    shrinks = [a for a in runtime.tuner.actions if a.kind == "shrink"]
    assert shrinks and shrinks[0].new_amount == 2.0


def test_tuner_acts_without_checkpointing():
    """Telemetry chunking is independent of checkpointing: the tuner
    shrinks an over-declared task even when no checkpoints are taken."""
    app = AppBuilder("plain-hog")

    @app.task(name="hog", work=20.0, max_parallelism=2)
    def hog(ctx):
        return None

    runtime = UDCRuntime(small_dc())
    result = runtime.run(
        app.build(), {"hog": {"resource": {"device": "cpu", "amount": 8}}}
    )
    shrinks = [a for a in runtime.tuner.actions if a.kind == "shrink"]
    assert shrinks and shrinks[0].new_amount == 2.0
    assert result.objects["hog"].record.checkpoints_taken == 0


def test_report_table_renders():
    runtime = UDCRuntime(small_dc())
    result = runtime.run(two_stage_app())
    table = result.format_table()
    assert "first" in table and "makespan" in table


def test_drain_and_healing_walk_only_open_submissions():
    """drain visits uncollected submissions and store healing visits
    submissions that still hold stores: neither walks the history."""
    dc = small_dc()
    runtime = UDCRuntime(dc)
    app = AppBuilder("stateful")

    @app.task(name="t", work=1.0)
    def t(ctx):
        return 1

    app.data("s", size_gb=1.0)
    app.reads("t", "s")
    dag = app.build()
    standing = runtime.submit(dag, {"s": {"distributed": {
        "persistent": True}}}, persistent=True)
    for _ in range(3):
        runtime.submit(dag, None)
    assert len(runtime._open) == len(runtime._holding) == 4
    runtime.drain()
    assert runtime._open == {}
    assert list(runtime._holding.values()) == [standing]
    late = runtime.submit(dag, None)
    assert list(runtime._open.values()) == [late]
    runtime.drain()
    assert list(runtime._holding.values()) == [standing]
    runtime.decommission(standing)
    assert runtime._holding == {}
    assert len(runtime._submissions) == 5


def test_crash_after_collection_does_not_rebuild_a_released_store():
    """A collected submission's store has released its replicas; a later
    crash of a replica's domain must not allocate replacements for it
    (they were owned by nothing and held for ever)."""
    dc = small_dc()
    runtime = UDCRuntime(dc)
    app = AppBuilder("finished")

    @app.task(name="t", work=1.0)
    def t(ctx):
        return 1

    app.data("d", size_gb=4.0)
    app.reads("t", "d")
    runtime.submit(app.build(), {"d": {"distributed": {"replication": 2}}})
    runtime.drain()
    runtime.injector.fail_at(runtime.sim.now + 1.0, "fd:d:r0")
    runtime.sim.run()
    assert all(pool.total_used == 0 for pool in dc.pools)
