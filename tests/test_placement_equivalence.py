"""Placement-equivalence golden tests.

The indexed allocator (bisect free-lists + incremental accounting) must
make **byte-identical placement decisions** to the preserved naive path
(scan-and-sort + per-call re-sum).  These tests run real workloads — the
Figure-2 medical pipeline and a seeded E17-style churn day — on both
allocators and assert the full allocation traces match: same devices, in
the same order, with the same amounts, for the same tenants.

The process-global device/allocation id counters are reset before each
build: tie-breaks that involve ``device_id`` strings (ReplicaPlacer)
compare lexicographically, so a fleet whose ids span a digit boundary
("ssd-9" vs "ssd-10") would order differently between two builds of the
same spec.  Pinning the counters gives both runs identical ids; seqs are
additionally normalized to per-pool positions for readable diffs.
"""

import hashlib
import itertools
import json

import pytest

import repro.hardware.devices as devices_mod
import repro.hardware.pools as pools_mod
from repro.appmodel.annotations import AppBuilder
from repro.core.cells import partition_datacenter
from repro.core.runtime import UDCRuntime
from repro.execenv.warmpool import WarmPool
from repro.hardware.devices import DeviceType
from repro.hardware.topology import DatacenterSpec, build_datacenter
from repro.service import UDCService
from repro.workloads.cluster import generate_cluster_trace
from repro.workloads.medical import build_medical_app


def _traced_datacenter(spec, indexed):
    """Build a datacenter whose pools all log allocations into one list."""
    devices_mod._device_ids = itertools.count()
    pools_mod._alloc_ids = itertools.count()
    dc = build_datacenter(spec, indexed_pools=indexed)
    log = []
    for pool in dc.pools:
        # Wrap the shared list so entries carry the pool's device type.
        pool.alloc_log = _TypedLog(pool.device_type.value, log)
    return dc, log


class _TypedLog:
    """List adapter tagging each entry with the owning pool's type."""

    def __init__(self, dtype, sink):
        self.dtype = dtype
        self.sink = sink

    def append(self, entry):
        seq, amount, tenant = entry
        self.sink.append((self.dtype, seq, amount, tenant))


def _normalize(dc, log):
    """Map global device seqs to per-pool positions (stable across
    datacenters built from the same spec)."""
    pos = {}
    for pool in dc.pools:
        for index, device in enumerate(pool.devices):
            pos[(pool.device_type.value, device.seq)] = index
    return [
        (dtype, pos[(dtype, seq)], amount, tenant)
        for dtype, seq, amount, tenant in log
    ]


def _medical_trace(indexed):
    spec = DatacenterSpec(pods=1, racks_per_pod=4)
    dc, log = _traced_datacenter(spec, indexed)
    dag, definition = build_medical_app()
    runtime = UDCRuntime(dc, warm_pool=WarmPool(enabled=True), prewarm=True)
    inputs = {
        "A1": {"pixels": list(range(64)), "patient": "p-golden"},
        "A3": {"patient": "p-golden"},
        "B1": {"consented": True},
    }
    result = runtime.run(dag, definition, tenant="hospital", inputs=inputs)
    for pool in dc.pools:
        pool.check_accounting()
    return _normalize(dc, log), result


def _churn_trace(indexed, seed=11, horizon_s=600.0):
    spec = DatacenterSpec(pods=2, racks_per_pod=4)
    dc, log = _traced_datacenter(spec, indexed)
    trace = generate_cluster_trace(1.0, horizon_s, seed=seed)
    runtime = UDCRuntime(
        dc, warm_pool=WarmPool(enabled=True, target_depth=4), prewarm=True
    )
    for arrival in trace.arrivals:
        runtime.submit_at(
            arrival.arrival_s, arrival.dag, arrival.definition,
            tenant=arrival.tenant,
        )
    results = runtime.drain()
    for pool in dc.pools:
        pool.check_accounting()
    return _normalize(dc, log), results


def test_medical_pipeline_traces_identical():
    indexed_trace, indexed_result = _medical_trace(indexed=True)
    naive_trace, naive_result = _medical_trace(indexed=False)
    assert len(indexed_trace) > 0
    assert indexed_trace == naive_trace
    assert indexed_result.makespan_s == naive_result.makespan_s
    assert indexed_result.total_cost == naive_result.total_cost


def test_churn_day_traces_identical():
    indexed_trace, indexed_results = _churn_trace(indexed=True)
    naive_trace, naive_results = _churn_trace(indexed=False)
    assert len(indexed_trace) > 20
    assert indexed_trace == naive_trace
    assert [r.makespan_s for r in indexed_results] \
        == [r.makespan_s for r in naive_results]
    assert [r.total_cost for r in indexed_results] \
        == [r.total_cost for r in naive_results]


def test_indexed_run_is_self_deterministic():
    """Two indexed runs of the same seed are bit-for-bit identical —
    the index introduces no iteration-order nondeterminism."""
    first, _ = _churn_trace(indexed=True, seed=5, horizon_s=300.0)
    second, _ = _churn_trace(indexed=True, seed=5, horizon_s=300.0)
    assert first == second


# -------------------------------------------- placement cells (PR 7)

def _churn_trace_partitioned(seed=11, horizon_s=600.0):
    """The churn-day trace run on a datacenter partitioned into ONE
    placement cell: same devices, same seqs, fresh per-cell pools."""
    spec = DatacenterSpec(pods=2, racks_per_pod=4)
    dc, _parent_log = _traced_datacenter(spec, indexed=True)
    (cell,) = partition_datacenter(dc, 1)
    # The partition built fresh pools: attach the typed log to those.
    log = []
    for pool in cell.pools:
        pool.alloc_log = _TypedLog(pool.device_type.value, log)
    trace = generate_cluster_trace(1.0, horizon_s, seed=seed)
    runtime = UDCRuntime(
        cell, warm_pool=WarmPool(enabled=True, target_depth=4), prewarm=True
    )
    for arrival in trace.arrivals:
        runtime.submit_at(
            arrival.arrival_s, arrival.dag, arrival.definition,
            tenant=arrival.tenant,
        )
    results = runtime.drain()
    for pool in cell.pools:
        pool.check_accounting()
    return _normalize(cell, log), results


def test_single_cell_partition_traces_identical_to_global():
    """Partitioning into one cell changes nothing: fresh per-cell pools
    over the same devices make byte-identical placement decisions."""
    global_trace, global_results = _churn_trace(indexed=True)
    cell_trace, cell_results = _churn_trace_partitioned()
    assert len(cell_trace) > 20
    assert cell_trace == global_trace
    assert [r.makespan_s for r in cell_results] \
        == [r.makespan_s for r in global_results]
    assert [r.total_cost for r in cell_results] \
        == [r.total_cost for r in global_results]


def _service_trace(cells=None):
    """A batched service workload traced at the pool level.  ``None``
    builds the service exactly as before PR 7 (no ``cells`` argument)."""
    spec = DatacenterSpec(pods=1, racks_per_pod=4)
    dc, log = _traced_datacenter(spec, indexed=True)
    kwargs = {} if cells is None else {"cells": cells}
    service = UDCService(dc, **kwargs)
    dag, definition = build_medical_app()
    inputs = {
        "A1": {"pixels": list(range(16)), "patient": "p-cells"},
        "A3": {"patient": "p-cells"},
        "B1": {"consented": True},
    }
    for patient in range(3):
        service.submit("hospital", dag, definition, inputs=inputs)
        if patient % 2:
            service.drain()
    service.drain()
    return _normalize(dc, log)


def test_service_cells1_traces_identical_to_default():
    """``cells=1`` is the default: the same one-cell service, with
    byte-identical placements and seq streams."""
    default_trace = _service_trace(cells=None)
    single_cell_trace = _service_trace(cells=1)
    assert len(default_trace) > 0
    assert default_trace == single_cell_trace


def _overloaded_service_trace():
    """A one-cell batched service at 5x its GPU capacity: most jobs
    park on the admission queue and place on retries as earlier jobs
    finish; one job is bigger than the whole pool and never places."""
    spec = DatacenterSpec(pods=1, racks_per_pod=1)   # 16 gpus
    dc, log = _traced_datacenter(spec, indexed=True)
    # Lint off: the static check would reject the oversized job at the
    # front door, and this trace is about the dispatch path.
    service = UDCService(dc, lint=False)
    handles = []
    for index in range(9):
        app = AppBuilder(f"gpu-job-{index}")

        @app.task(name="train", work=4.0 + index % 3,
                  devices={DeviceType.GPU})
        def train(ctx):
            return "ok"

        app.data("corpus", size_gb=8.0, hot=True)
        gpus = 24 if index == 5 else 8
        definition = {"train": {"resource": {"device": "gpu",
                                             "amount": gpus}}}
        handles.append(service.submit(f"t{index % 3}", app.build(),
                                      definition))
        if index % 4 == 3:
            service.drain(until=service.runtime.sim.now + 1.0)
    service.drain()
    for pool in dc.pools:
        pool.check_accounting()
    return _normalize(dc, log), [
        (handle.seq, handle.status, handle.submission.queue_wait_s)
        for handle in handles
    ]


#: sha256 of the overloaded one-cell service's normalized allocation log
#: and per-handle (seq, status, queue wait) — pinned when one cell still
#: had its own single-runtime dispatch path, so routing every service
#: through the cell router must reproduce it exactly.
OVERLOADED_ONE_CELL_SHA256 = (
    "5bc3ba03ed1076d9f62861d351e895d406c12714c6ce960570abfa8918d075ec")


def test_one_cell_queue_path_matches_golden():
    trace, outcomes = _overloaded_service_trace()
    statuses = [status for _seq, status, _wait in outcomes]
    assert statuses.count("unplaceable") == 1
    assert sum(1 for _seq, _status, wait in outcomes if wait > 0) >= 4
    digest = hashlib.sha256(json.dumps(
        {"allocations": trace, "handles": outcomes}).encode()).hexdigest()
    assert digest == OVERLOADED_ONE_CELL_SHA256
