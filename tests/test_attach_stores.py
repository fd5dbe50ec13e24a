"""Tests for shared standing stores across submissions (event services)."""

import pytest

from repro.appmodel.annotations import AppBuilder
from repro.core.runtime import UDCRuntime
from repro.hardware.devices import DeviceType
from repro.hardware.topology import DatacenterSpec, build_datacenter

SPEC = DatacenterSpec(pods=1, racks_per_pod=4)


def storage_app():
    app = AppBuilder("state")
    app.data("journal", size_gb=5)
    return app.build()


def writer_app(tag):
    app = AppBuilder(f"writer-{tag}")

    @app.task(name="append", work=1.0)
    def append(ctx):
        return tag

    journal = app.data("journal", size_gb=5)
    app.writes("append", journal, bytes_per_run=1 << 16)
    return app.build()


STORAGE_DEF = {"journal": {"resource": "ssd",
                           "distributed": {"replication": 2,
                                           "consistency": "sequential"}}}


def deploy_state(runtime):
    deployment = runtime.submit(storage_app(), STORAGE_DEF, tenant="svc",
                                persistent=True)
    runtime.drain()
    return deployment


def test_attached_store_not_replaced():
    runtime = UDCRuntime(build_datacenter(SPEC))
    deployment = deploy_state(runtime)
    ssd_used = runtime.datacenter.pool(DeviceType.SSD).total_used
    assert ssd_used == 10.0  # 2 x 5 GB, once

    for tag in ("a", "b", "c"):
        runtime.submit(writer_app(tag), None, tenant="svc",
                       attach_stores=deployment.stores)
    runtime.drain()
    # Still exactly one placement of the journal.
    assert runtime.datacenter.pool(DeviceType.SSD).total_used == 10.0


def test_attached_store_accumulates_cross_invocation_state():
    runtime = UDCRuntime(build_datacenter(SPEC))
    deployment = deploy_state(runtime)
    store = deployment.stores["journal"]

    for tag in ("a", "b", "c"):
        runtime.submit(writer_app(tag), None, tenant="svc",
                       attach_stores=deployment.stores)
    runtime.drain()
    # Three invocations each bulk-wrote once into the same store.
    writes = [op for op in store.op_log if op.op == "write"]
    assert len(writes) == 3
    # Data landed on both replicas (sequential protocol).
    assert all(len(r.data) == 3 for r in store.replicas)


def test_attached_store_billed_to_owner_only():
    runtime = UDCRuntime(build_datacenter(SPEC))
    deployment = deploy_state(runtime)
    invocation = runtime.submit(writer_app("x"), None, tenant="svc",
                                attach_stores=deployment.stores)
    results = runtime.drain()
    # The invocation's data object holds no allocations of its own.
    assert invocation.objects["journal"].allocations == []
    # The standing storage kept billing the deployment the whole window;
    # decommission finalizes that bill, which dwarfs the invocation's
    # task-compute-only bill.
    settled = runtime.decommission(deployment)
    assert settled > 0
    assert deployment.result.total_cost == pytest.approx(settled)
    # The invocation paid for its task compute, nothing for the storage
    # it merely attached to (its only allocations were the task's).
    assert invocation.result.total_cost > 0
    assert all(a.device_type == DeviceType.CPU
               for a in invocation.objects["append"].allocations)
    assert not runtime._owner_of


def test_attaching_unknown_store_name_is_ignored():
    """attach_stores entries that don't match a data module are harmless."""
    runtime = UDCRuntime(build_datacenter(SPEC))
    deployment = deploy_state(runtime)
    result = runtime.run(writer_app("y"), None, tenant="svc",
                         attach_stores={"journal": deployment.stores["journal"],
                                        "ghost": deployment.stores["journal"]})
    assert result.total_failures == 0


def test_heal_of_shared_store_bills_owner():
    runtime = UDCRuntime(build_datacenter(SPEC))
    deployment = deploy_state(runtime)
    # Long-running invocation attached to the store while a replica dies.
    app = AppBuilder("slow")

    @app.task(name="slowtask", work=100.0)
    def slowtask(ctx):
        return None

    journal = app.data("journal", size_gb=5)
    app.writes("slowtask", journal, bytes_per_run=1 << 16)
    runtime.submit(app.build(), None, tenant="svc",
                   attach_stores=deployment.stores)
    runtime.injector.fail_at(10.0, "fd:journal:r0")
    runtime.drain()
    # Healed replica exists and is owned by the deployment.
    store = deployment.stores["journal"]
    assert len(store.live_replicas()) == 2
    healed_alloc = store.placement.allocations[0]
    assert healed_alloc in deployment.objects["journal"].allocations
    # All meters close once the standing service is decommissioned.
    runtime.decommission(deployment)
    assert not runtime._owner_of


def test_preempted_invocation_redeploys_onto_the_shared_store():
    """Preemption re-queues an invocation with its attach_stores: the
    redeploy writes into the standing journal, not a private copy."""
    runtime = UDCRuntime(build_datacenter(SPEC))
    deployment = deploy_state(runtime)
    store = deployment.stores["journal"]
    invocation = runtime.submit(writer_app("p"), None, tenant="svc",
                                attach_stores=deployment.stores)
    runtime.sim.run(until=runtime.sim.now + 0.1)
    assert runtime.preempt(invocation, by_tenant="firm")
    runtime.drain()

    assert invocation.status == "done"
    assert invocation.preemptions == 1
    assert invocation.stores["journal"] is store
    assert invocation.objects["journal"].allocations == []
    assert len([op for op in store.op_log if op.op == "write"]) == 1
    # Still exactly one placement of the journal.
    assert runtime.datacenter.pool(DeviceType.SSD).total_used == 10.0
