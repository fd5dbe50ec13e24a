"""Tests for checkpointing, failure injection, recovery, and ordering."""

import pytest

from repro.appmodel.annotations import AppBuilder
from repro.core.runtime import UDCRuntime
from repro.distsem.checkpoint import CheckpointStore
from repro.distsem.failures import Failure, FailureInjector
from repro.distsem.network_order import (
    OrderingScheme,
    run_ordered_writes,
)
from repro.distsem.recovery import RecoveryStrategy, plan_recovery
from repro.hardware.devices import DeviceType
from repro.hardware.fabric import Location
from repro.hardware.topology import DatacenterSpec, build_datacenter
from repro.simulator.engine import Interrupt


def make_ckpt_store():
    dc = build_datacenter(DatacenterSpec(pods=1, racks_per_pod=2))
    device = dc.pool(DeviceType.SSD).devices[0]
    return dc, CheckpointStore(dc.sim, dc.fabric, device)


SOURCE = Location(0, 0, 42)


def run(dc, generator):
    process = dc.sim.process(generator)
    return dc.sim.run(until_event=process)


# ------------------------------------------------------------ checkpoints


def test_checkpoint_then_latest():
    dc, store = make_ckpt_store()
    snap = run(dc, store.checkpoint("A2", SOURCE, 0.5, 1 << 20))
    assert store.latest("A2") is snap
    assert snap.progress == 0.5
    assert store.count("A2") == 1
    assert store.bytes_written == 1 << 20


def test_checkpoint_costs_time():
    dc, store = make_ckpt_store()
    run(dc, store.checkpoint("A2", SOURCE, 0.25, 10 << 20))
    assert dc.sim.now > 0
    assert store.checkpoint_seconds > 0


def test_latest_returns_most_recent():
    dc, store = make_ckpt_store()

    def scenario():
        yield dc.sim.process(store.checkpoint("A2", SOURCE, 0.25, 1000))
        yield dc.sim.process(store.checkpoint("A2", SOURCE, 0.75, 1000))

    run(dc, scenario())
    assert store.latest("A2").progress == 0.75


def test_restore_returns_snapshot_and_costs_time():
    dc, store = make_ckpt_store()
    run(dc, store.checkpoint("A2", SOURCE, 0.5, 1 << 20))
    before = dc.sim.now
    snap = run(dc, store.restore("A2", SOURCE))
    assert snap.progress == 0.5
    assert dc.sim.now > before


def test_restore_without_snapshot_returns_none():
    dc, store = make_ckpt_store()
    assert run(dc, store.restore("never", SOURCE)) is None


def test_restore_from_failed_device_degrades_to_none():
    """A failed backing device must not crash the recovery path: restore
    answers None (re-execute from scratch), counts the miss, and the
    snapshot is still usable once the device is repaired."""
    dc, store = make_ckpt_store()
    run(dc, store.checkpoint("A2", SOURCE, 0.5, 1000))
    store.device.failed = True
    assert run(dc, store.restore("A2", SOURCE)) is None
    assert store.stats.restore_failures == 1
    assert store.stats.restores == 0
    store.device.failed = False
    snap = run(dc, store.restore("A2", SOURCE))
    assert snap.progress == 0.5
    assert store.stats.restores == 1


def test_restore_degradation_reruns_task_from_scratch():
    """End to end: a checkpointing task whose restore device has failed
    re-executes from scratch (telemetry notes the degradation) instead
    of the run dying inside its own recovery."""
    from repro.appmodel.annotations import AppBuilder
    from repro.core.runtime import UDCRuntime

    app = AppBuilder("ckpt-degrade")

    @app.task(name="job", work=20.0)
    def job(ctx):
        return "done"

    dag = app.build()
    definition = {"job": {"resource": {"device": "cpu", "amount": 1},
                          "distributed": {"checkpoint": True}}}
    dc = build_datacenter(DatacenterSpec(pods=1, racks_per_pod=2))
    runtime = UDCRuntime(dc)
    submission = runtime.submit(dag, definition, tenant="t")
    # Fail the task mid-run with every storage device (the checkpoint
    # store's backing device among them) already down, so the recovery's
    # restore finds the device failed.
    runtime.injector.fail_at(10.0, "fd:job")

    def fail_storage():
        yield dc.sim.timeout(9.0)
        for device_type in (DeviceType.SSD, DeviceType.NVM, DeviceType.HDD):
            if device_type in dc.pools:
                for device in dc.pool(device_type).devices:
                    device.failed = True

    dc.sim.process(fail_storage())
    runtime.drain()
    result = submission.result
    assert result is not None
    assert result.outputs.get("job") == "done"
    degraded = [e for e in runtime.telemetry.events
                if e.kind == "restore-degraded"]
    assert degraded, "expected a restore-degraded telemetry event"


def test_invalid_progress_rejected():
    dc, store = make_ckpt_store()
    with pytest.raises(ValueError):
        list(store.checkpoint("A2", SOURCE, 1.5, 1000))


# ------------------------------------------------------------ recovery planning


def test_plan_rerun():
    outcome = plan_recovery(RecoveryStrategy.RERUN, "A2", None)
    assert outcome.resume_progress == 0.0
    assert outcome.strategy == RecoveryStrategy.RERUN


def test_plan_checkpoint_restore_uses_latest():
    dc, store = make_ckpt_store()
    run(dc, store.checkpoint("A2", SOURCE, 0.5, 1000))
    outcome = plan_recovery(RecoveryStrategy.CHECKPOINT_RESTORE, "A2", store)
    assert outcome.resume_progress == 0.5
    assert outcome.checkpoint is not None


def test_plan_checkpoint_restore_degrades_to_rerun():
    dc, store = make_ckpt_store()
    outcome = plan_recovery(RecoveryStrategy.CHECKPOINT_RESTORE, "A2", store)
    assert outcome.strategy == RecoveryStrategy.RERUN
    assert outcome.resume_progress == 0.0


def test_plan_none_is_fatal():
    outcome = plan_recovery(RecoveryStrategy.NONE, "A2", None)
    assert outcome.strategy == RecoveryStrategy.NONE


# ------------------------------------------------------------ failure injection


def test_fail_at_marks_devices_and_interrupts():
    dc = build_datacenter()
    injector = FailureInjector(dc.sim)
    domain = injector.domain("fd1")
    device = dc.devices[0]
    domain.devices.append(device)
    caught = []

    def victim():
        try:
            yield dc.sim.timeout(100)
        except Interrupt as interrupt:
            caught.append(interrupt.cause)

    process = dc.sim.process(victim())
    domain.register_process(process)
    injector.fail_at(5.0, "fd1")
    dc.sim.run()
    assert device.failed
    assert len(caught) == 1
    assert isinstance(caught[0], Failure)
    assert caught[0].at == 5.0


def test_repair_restores_devices():
    dc = build_datacenter()
    injector = FailureInjector(dc.sim)
    domain = injector.domain("fd1")
    device = dc.devices[0]
    domain.devices.append(device)
    injector.fail_at(5.0, "fd1", repair_after=10.0)
    dc.sim.run(until=6.0)
    assert device.failed
    dc.sim.run()
    assert not device.failed
    assert not domain.failed


def test_listeners_notified():
    dc = build_datacenter()
    injector = FailureInjector(dc.sim)
    injector.domain("fd1")
    seen = []
    injector.subscribe(lambda failure, domain: seen.append(domain.name))
    injector.fail_at(1.0, "fd1")
    dc.sim.run()
    assert seen == ["fd1"]


def test_random_failures_deterministic():
    from repro.simulator.rng import RngRegistry

    dc1 = build_datacenter()
    inj1 = FailureInjector(dc1.sim, RngRegistry(9))
    s1 = inj1.random_failures(["a", "b"], horizon_s=1000, mtbf_s=200)
    dc2 = build_datacenter()
    inj2 = FailureInjector(dc2.sim, RngRegistry(9))
    s2 = inj2.random_failures(["a", "b"], horizon_s=1000, mtbf_s=200)
    # Same seed -> the exact same (time, domain) schedule, not just the
    # same count; a different seed diverges.
    assert s1 == s2 and len(s1) > 0
    inj3 = FailureInjector(build_datacenter().sim, RngRegistry(10))
    assert inj3.random_failures(["a", "b"], horizon_s=1000, mtbf_s=200) != s1


def test_interrupting_finished_process_is_safe():
    dc = build_datacenter()
    injector = FailureInjector(dc.sim)
    domain = injector.domain("fd1")

    def quick():
        yield dc.sim.timeout(1)

    process = dc.sim.process(quick())
    domain.register_process(process)
    injector.fail_at(10.0, "fd1")
    dc.sim.run()  # no exception


# ------------------------------------------------------------ in-network ordering


def test_sequencer_beats_software_schemes_on_latency():
    results = {
        scheme: run_ordered_writes(scheme, num_writes=30, num_replicas=3)
        for scheme in OrderingScheme
    }
    sequencer = results[OrderingScheme.SWITCH_SEQUENCER]
    assert sequencer.mean_latency_s < results[
        OrderingScheme.PRIMARY_BACKUP].mean_latency_s
    assert sequencer.mean_latency_s < results[
        OrderingScheme.CONSENSUS].mean_latency_s


def test_sequencer_no_replica_coordination():
    result = run_ordered_writes(OrderingScheme.SWITCH_SEQUENCER, 10, 3)
    assert result.replica_to_replica_messages == 0
    for scheme in (OrderingScheme.PRIMARY_BACKUP, OrderingScheme.CONSENSUS):
        assert run_ordered_writes(scheme, 10, 3).replica_to_replica_messages > 0


def test_ordering_message_counts_scale_with_replicas():
    small = run_ordered_writes(OrderingScheme.PRIMARY_BACKUP, 10, 3)
    large = run_ordered_writes(OrderingScheme.PRIMARY_BACKUP, 10, 5)
    assert large.total_messages > small.total_messages


def test_ordering_single_replica_degenerate():
    result = run_ordered_writes(OrderingScheme.PRIMARY_BACKUP, 5, 1)
    assert result.replica_to_replica_messages == 0
    assert result.writes == 5


def test_ordering_validation():
    with pytest.raises(ValueError):
        run_ordered_writes(OrderingScheme.CONSENSUS, 5, 0)


def test_failure_domains_stay_bounded_over_repeated_submissions():
    """A long-lived runtime's domains hold each device once (in
    first-join order) and only live processes, however many identical
    submissions land on them; collected submissions drop their tasks."""
    def app():
        builder = AppBuilder("repeat")
        builder.task(name="stage", work=10.0)(lambda ctx: None)
        return builder.build()

    runtime = UDCRuntime(build_datacenter(DatacenterSpec(pods=1,
                                                         racks_per_pod=2)))
    hosts = []
    for _round in range(6):
        submissions = [runtime.submit(app(), tenant=f"t{i}")
                       for i in range(4)]
        hosts += [s.live_tasks["stage"].placement.unit.compute.device
                  for s in submissions]
        runtime.sim.run(until=runtime.sim.now + 0.5)
        domain = runtime.injector.domains["fd:stage"]
        assert len(domain.processes) == 4
        assert all(process.is_alive for process in domain.processes)
        runtime.drain()
        assert not domain.processes
        assert all(s.status == "done" and not s.live_tasks
                   for s in submissions)
        assert not runtime.preempt(submissions[0])
    distinct = []
    for device in hosts:
        if not any(seen is device for seen in distinct):
            distinct.append(device)
    assert len(distinct) < len(hosts)
    assert len(domain.devices) == len(distinct)
    assert all(a is b for a, b in zip(domain.devices, distinct))
