"""Tests for placement cells and the cross-cell router (PR 7).

Covers the partition itself (device conservation, parent hand-off,
contiguity), the router's deterministic scoring/spill order, the
engineered cross-cell spill scenario — first-choice cell rejects, the
placement lands in the overflow cell, identically on every run and
under record/replay — and the sharded metrics surface (``cell`` labels
plus label-free cross-cell aggregates).
"""

import itertools

import pytest

import repro.hardware.devices as devices_mod
import repro.hardware.pools as pools_mod
from repro.appmodel.annotations import AppBuilder
from repro.core.cells import (
    CellRouter,
    estimate_demand,
    partition_datacenter,
    partition_racks,
)
from repro.hardware.devices import DeviceType
from repro.hardware.topology import DatacenterSpec, build_datacenter
from repro.replay import ReplayRunner, RunConfig, read_journal
from repro.service import UDCService

#: two pods -> two cells of 2 racks each; per cell: 4 CPU blades,
#: 4 GPU boards (32 gpus), 2 DRAM sleds (1024 GB), 2 SSD shelves.
TWIN = DatacenterSpec(
    pods=2, racks_per_pod=2,
    devices_per_rack={DeviceType.CPU: 2, DeviceType.GPU: 2,
                      DeviceType.DRAM: 1, DeviceType.SSD: 1},
)


def _fresh_dc(spec=TWIN):
    devices_mod._device_ids = itertools.count()
    pools_mod._alloc_ids = itertools.count()
    return build_datacenter(spec)


def spill_job(gpus=16, dram_gb=64.0):
    """A GPU job dragging a hot dataset: the data demand is estimated
    exactly while the task demand is one grain — the mismatch that
    makes a fuller-looking cell the router's first choice."""
    app = AppBuilder("spiller")

    @app.task(name="train", work=4.0, devices={DeviceType.GPU})
    def train(ctx):
        return "ok"

    app.data("corpus", size_gb=dram_gb, hot=True)
    return app.build(), {"train": {"resource": {"device": "gpu",
                                                "amount": gpus}}}


# ------------------------------------------------------------ partition

def test_partition_racks_contiguous_near_equal():
    keys = [(p, r) for p in range(2) for r in range(5)]
    groups = partition_racks(keys, 4)
    assert [len(g) for g in groups] == [3, 3, 2, 2]
    assert [k for g in groups for k in g] == sorted(keys)


def test_partition_racks_rejects_bad_counts():
    keys = [(0, 0), (0, 1)]
    with pytest.raises(ValueError):
        partition_racks(keys, 0)
    with pytest.raises(ValueError):
        partition_racks(keys, 3)


def test_partition_datacenter_moves_every_device():
    dc = _fresh_dc()
    before = sorted(d.seq for d in dc.devices)
    cells = partition_datacenter(dc, 2)
    assert dc.devices == []
    for pool in dc.pools:
        assert pool.devices == []
        assert pool.total_capacity == 0
    after = sorted(d.seq for cell in cells for d in cell.devices)
    assert after == before
    # Contiguous rack split: no rack straddles cells, pods stay whole
    # here (2 racks/cell on a 2x2 layout).
    for cell_id, cell in enumerate(cells):
        assert {d.location.pod for d in cell.devices} == {cell_id}
        for pool in cell.pools:
            assert pool.cell == str(cell_id)
            assert pool.indexed


def test_partition_refuses_live_allocations():
    dc = _fresh_dc()
    dc.pool(DeviceType.CPU).allocate(1.0, "t")
    with pytest.raises(ValueError, match="live allocations"):
        partition_datacenter(dc, 2)


def test_estimate_demand_tasks_and_data():
    dc = _fresh_dc()
    app, _definition = spill_job(gpus=16, dram_gb=64.0)
    demand = estimate_demand(app, dc)
    # Tasks count one grain of their cheapest candidate; data its size.
    assert demand[DeviceType.GPU] == 1.0
    assert demand[DeviceType.DRAM] == 64.0


# --------------------------------------------------------------- router

def test_router_prefers_emptiest_feasible_cell():
    cells = partition_datacenter(_fresh_dc(), 2)
    router = CellRouter(cells)
    demand = {DeviceType.GPU: 1.0}
    assert router.order(demand) == [0, 1]  # tie -> lower cell id
    cells[0].pool(DeviceType.GPU).allocate(2.0, "t")
    assert router.order(demand) == [1, 0]


def test_router_sorts_infeasible_cells_last():
    cells = partition_datacenter(_fresh_dc(), 2)
    router = CellRouter(cells)
    # Fill every GPU board in cell 0 so no single device can host one
    # whole-board grain: cell 0 is infeasible for it, whatever its
    # total free elsewhere says.
    for _ in range(4):
        cells[0].pool(DeviceType.GPU).allocate(8.0, "t")
    assert router.order({DeviceType.GPU: 8.0}) == [1, 0]


# ---------------------------------------------------------------- spill

def _run_spill_scenario():
    """Cell 0 looks roomier (min-headroom) but cannot host the job's
    16 GPUs; cell 1 can.  Returns (service, handle)."""
    service = UDCService(_fresh_dc(), cells=2)
    gpu0 = service.cell_runtimes[0].datacenter.pool(DeviceType.GPU)
    dram1 = service.cell_runtimes[1].datacenter.pool(DeviceType.DRAM)
    # cell 0: 15 of 32 gpus free -> rejects a 16-gpu job, but its DRAM
    # is untouched so its min-headroom stays high.
    for amount in (8.0, 8.0, 1.0):
        gpu0.allocate(amount, "filler")
    # cell 1: all gpus free, but DRAM down to 70 GB -> its min-headroom
    # (70 - 64 demanded) ranks below cell 0's.
    dram1.allocate(512.0, "filler")
    dram1.allocate(442.0, "filler")
    app, definition = spill_job(gpus=16, dram_gb=64.0)
    handle = service.submit("tenant", app, definition)
    service.drain()
    return service, handle


def test_cross_cell_spill_lands_in_overflow_cell():
    service, handle = _run_spill_scenario()
    assert handle.status == "done"
    assert handle.cell == 1
    assert service.router.routed == 1
    assert service.router.spills == 1
    # The spill really did bounce off cell 0: its GPU pool is exactly
    # as the pre-fill left it.
    gpu0 = service.cell_runtimes[0].datacenter.pool(DeviceType.GPU)
    assert gpu0.total_used == 17.0


def test_full_rejection_tries_each_cell_once_and_parks_first_choice():
    """Both cells reject: each sees exactly one placement attempt, and
    the first choice's rolled-back attempt parks there unplaced."""
    service = UDCService(_fresh_dc(), cells=2)
    fillers = {}
    for cell_id, cell_runtime in enumerate(service.cell_runtimes):
        gpus = cell_runtime.datacenter.pool(DeviceType.GPU)
        # 15 of 32 gpus free in each cell: neither hosts a 16-gpu job.
        fillers[cell_id] = [gpus.allocate(amount, "filler")
                            for amount in (8.0, 8.0, 1.0)]
    dram1 = service.cell_runtimes[1].datacenter.pool(DeviceType.DRAM)
    dram1.allocate(512.0, "filler")
    attempts = {0: 0, 1: 0}
    for cell_id, cell_runtime in enumerate(service.cell_runtimes):
        scheduler = cell_runtime.scheduler

        def counted(*args, _place=scheduler.place_tasks, _cell=cell_id,
                    **kwargs):
            attempts[_cell] += 1
            return _place(*args, **kwargs)

        scheduler.place_tasks = counted
    app, definition = spill_job(gpus=16, dram_gb=64.0)
    first_choice = service.router.order(estimate_demand(
        app, service.cell_runtimes[0].datacenter))[0]
    handle = service.submit("tenant", app, definition)
    service.dispatch_round()
    assert attempts == {0: 1, 1: 1}
    assert handle.cell == first_choice
    assert handle.status == "queued"
    assert service.router.spills == 1
    # Free one gpu in the first choice: the parked attempt places there.
    runtime = service.cell_runtimes[first_choice]
    runtime.datacenter.pool(DeviceType.GPU).release(
        fillers[first_choice][-1])
    runtime._schedule_admission_retry()
    service.drain()
    assert handle.status == "done"
    assert handle.cell == first_choice
    assert attempts[first_choice] == 2
    assert attempts[1 - first_choice] == 1


def test_cross_cell_spill_is_deterministic():
    traces = []
    for _ in range(2):
        service, handle = _run_spill_scenario()
        assert handle.cell == 1
        traces.append([
            [(pool.device_type.value, a.device.seq, a.amount, a.tenant)
             for a in pool._allocations.values()]
            for runtime in service.cell_runtimes
            for pool in runtime.datacenter.pools
        ])
    assert traces[0] == traces[1]


# --------------------------------------------------------------- replay

def test_sharded_run_records_and_replays(tmp_path):
    config = RunConfig(workload="tenant-trace",
                       params={"tenants": 4, "minutes": 6.0,
                               "round_every": 3},
                       seed=3, pods=2, racks=2, cells=2)
    first = str(tmp_path / "first.jsonl")
    second = str(tmp_path / "second.jsonl")
    service = ReplayRunner(config).record(first)
    assert service.cells == 2
    assert service.router.routed > 0
    ReplayRunner(config).record(second)
    with open(first, "rb") as f_first, open(second, "rb") as f_second:
        assert f_first.read() == f_second.read()
    replayed, events = ReplayRunner(config).replay(first)
    assert len(events) > 0
    assert replayed.router.routed == service.router.routed
    assert replayed.router.spills == service.router.spills


def test_sharded_config_round_trips_cells(tmp_path):
    config = RunConfig(workload="fig2-medical", params={"patients": 2},
                       seed=7, pods=2, racks=2, cells=2)
    assert RunConfig.from_json_dict(config.to_json_dict()) == config
    # Old journals (no "cells" key) deserialize as unsharded.
    payload = config.to_json_dict()
    del payload["cells"]
    assert RunConfig.from_json_dict(payload).cells == 1


# -------------------------------------------------------------- metrics

def test_metrics_snapshot_aggregates_across_cells():
    service, _handle = _run_spill_scenario()
    rendered = service.metrics_snapshot().render_prometheus()
    assert 'udc_pool_used_units{cell="0",device_type="gpu"} 17' in rendered
    # The job ran (and released) its 16 gpus in cell 1.
    assert 'udc_pool_peak_used_units{cell="1",device_type="gpu"} 16' in rendered
    # The label-free family is the cross-cell sum (dashboards built on
    # the unsharded names keep working).
    assert 'udc_pool_used_units{device_type="gpu"} 17' in rendered
    assert 'udc_pool_used_units{device_type="dram"} 954' in rendered
    assert "udc_service_cells 2" in rendered
    assert 'udc_cell_free_units{cell="0",device_type="gpu"} 15' in rendered
    assert 'udc_router_routed_total{cell="1"} 1' in rendered
    assert 'udc_router_spills_total{cell="1"} 1' in rendered


def test_unsharded_metrics_carry_no_cell_label():
    from repro.core.telemetry import Telemetry

    service = UDCService(_fresh_dc(), telemetry=Telemetry(enabled=True))
    app, definition = spill_job(gpus=8, dram_gb=64.0)
    handle = service.submit("tenant", app, definition)
    service.drain()
    assert handle.status == "done"
    rendered = service.metrics_snapshot().render_prometheus()
    assert "udc_placements_total" in rendered
    assert "cell=" not in rendered
    assert "udc_service_cells" not in rendered
    assert "udc_router_" not in rendered
    assert "udc_cell_" not in rendered


def test_router_telemetry_counts_spills():
    from repro.core.telemetry import Telemetry

    devices_mod._device_ids = itertools.count()
    pools_mod._alloc_ids = itertools.count()
    dc = build_datacenter(TWIN)
    service = UDCService(dc, cells=2, telemetry=Telemetry(enabled=True))
    gpu0 = service.cell_runtimes[0].datacenter.pool(DeviceType.GPU)
    dram1 = service.cell_runtimes[1].datacenter.pool(DeviceType.DRAM)
    for amount in (8.0, 8.0, 1.0):
        gpu0.allocate(amount, "filler")
    dram1.allocate(512.0, "filler")
    dram1.allocate(442.0, "filler")
    app, definition = spill_job(gpus=16, dram_gb=64.0)
    service.submit("tenant", app, definition)
    service.drain()
    metrics = service.telemetry.metrics
    labels = {"cell": "1"}
    assert metrics.value("udc_router_routed_total", labels) == 1
    assert metrics.value("udc_router_spills_total", labels) == 1
    assert metrics.value("udc_router_spills_total", {"cell": "0"}) == 0.0
