"""Placement cells and the cross-cell router (sharded control plane).

One global :class:`~repro.core.scheduler.UdcScheduler` over one global
set of pool indexes stops scaling past a few thousand devices: every
allocate pays an index update proportional to the whole fleet, so
BENCH_PERF.json shows placement throughput *falling* as the fleet grows.
The fix — standard for cloud control planes (Buyya et al., "A Manifesto
for Future Generation Cloud Computing") — is to partition the
datacenter into **placement cells**, each a rack-group with its own
pools, scheduler, and batch/admission memo state, fronted by a
**router** that picks a cell from cheap coarse aggregates and spills to
the next cell on rejection.

Determinism contract
--------------------

Everything here is a pure function of (datacenter spec, cell count,
prior placements):

* :func:`partition_racks` splits the sorted ``(pod, rack)`` key list
  into contiguous near-equal groups — no hashing, no iteration over
  sets.
* :class:`CellRouter` orders cells by ``(-score, cell_id)`` where the
  score reads only the cells' incrementally-maintained pool aggregates
  (PR 2's accounting), so the same command sequence routes identically
  on every run — placements stay replayable under ``repro.replay``.
* Spill is a deterministic walk of that order, each cell tried once;
  only after every cell rejected does the first-choice cell's
  rolled-back attempt park on that cell's admission queue.

A service with one cell routes through a one-cell router (always
``[0]``) and places exactly as the unsharded scheduler; the golden
traces in ``tests/test_placement_equivalence.py`` pin that.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.appmodel.dag import ModuleDAG
from repro.appmodel.module import DataModule, TaskModule
from repro.hardware.devices import DeviceType
from repro.hardware.pools import PoolSet, ResourcePool
from repro.hardware.topology import Datacenter
from repro.simulator.engine import SimClock

__all__ = [
    "CellRouter",
    "estimate_demand",
    "partition_datacenter",
    "partition_racks",
]

#: mirrors the scheduler's media fallback for unpinned data modules —
#: the router only needs the *first* viable medium for a coarse estimate
_HOT_MEDIA = [DeviceType.DRAM, DeviceType.NVM, DeviceType.SSD, DeviceType.HDD]
_COLD_MEDIA = [DeviceType.HDD, DeviceType.SSD, DeviceType.NVM, DeviceType.DRAM]


def partition_racks(
    rack_keys: Sequence[Tuple[int, int]], n_cells: int
) -> List[List[Tuple[int, int]]]:
    """Split sorted ``(pod, rack)`` keys into ``n_cells`` contiguous
    near-equal groups (earlier groups take the remainder).

    Contiguous-by-sort-order keeps a cell's racks topologically close
    (same pod before crossing pods) and makes the assignment a pure
    function of the spec — no hashing involved.
    """
    keys = sorted(rack_keys)
    if n_cells < 1:
        raise ValueError(f"cell count must be >= 1, got {n_cells}")
    if n_cells > len(keys):
        raise ValueError(
            f"cannot partition {len(keys)} racks into {n_cells} cells"
        )
    base, extra = divmod(len(keys), n_cells)
    groups: List[List[Tuple[int, int]]] = []
    start = 0
    for index in range(n_cells):
        size = base + (1 if index < extra else 0)
        groups.append(keys[start:start + size])
        start += size
    return groups


def partition_datacenter(
    datacenter: Datacenter, n_cells: int
) -> List[Datacenter]:
    """Carve ``datacenter`` into ``n_cells`` cell-view datacenters.

    Each cell shares the parent's simulator, spec, fabric, and switch
    locations (the physical substrate is one datacenter) but owns fresh
    :class:`ResourcePool` indexes over only its rack-group's devices —
    the per-cell state whose size bounds per-placement cost.  Devices
    are *moved*: the parent's pools are emptied (see
    :meth:`ResourcePool.detach_all_devices`) so no stale second index
    can drift, and the parent datacenter must not be used for placement
    afterwards.

    Every cell gets a pool for every device type the spec names, even
    when its racks carry none of that type (heterogeneous
    ``rack_profiles``): an empty pool reports zero free capacity, which
    routes demand — and spills placements — to the cells that do carry
    the type.
    """
    rack_keys = sorted(
        {(d.location.pod, d.location.rack) for d in datacenter.devices}
    )  # det: ok — sorted immediately
    groups = partition_racks(rack_keys, n_cells)
    cell_of_rack: Dict[Tuple[int, int], int] = {}
    for cell_id, group in enumerate(groups):
        for key in group:
            cell_of_rack[key] = cell_id

    indexed = all(pool.indexed for pool in datacenter.pools)
    cells: List[Datacenter] = []
    for cell_id in range(n_cells):
        pools = PoolSet()
        for device_type in datacenter.spec.all_device_types():
            pool = ResourcePool(
                device_type, clock=SimClock(datacenter.sim), indexed=indexed
            )
            pool.cell = str(cell_id)
            pools.pools[device_type] = pool
        cells.append(
            Datacenter(
                sim=datacenter.sim,
                spec=datacenter.spec,
                pools=pools,
                fabric=datacenter.fabric,
                devices=[],
                switch_locations=list(datacenter.switch_locations),
            )
        )

    for device_type in datacenter.spec.all_device_types():
        parent_pool = datacenter.pool(device_type)
        for device in parent_pool.detach_all_devices():
            cell = cells[cell_of_rack[device.location.pod,
                                      device.location.rack]]
            cell.pool(device_type).add_device(device)
            cell.devices.append(device)
    for cell in cells:
        cell.devices.sort(key=lambda d: d.seq)
    datacenter.devices = []
    return cells


def estimate_demand(
    app: ModuleDAG, datacenter: Datacenter
) -> Dict[DeviceType, float]:
    """Coarse resource demand of one application, by device type.

    This is the router's *hint*, not an admission decision: task modules
    count one minimum grain of their statically-cheapest candidate type
    (the same price-per-work rule the scheduler applies before capacity
    gating), data modules their ``size_gb`` on the first medium of the
    scheduler's hot/cold preference order.  Definition aspects (explicit
    amounts, device pins) are deliberately not parsed here — routing
    must stay cheap — and any resulting misestimate is corrected by the
    rejection-spill fallback.
    """
    spec = datacenter.spec
    demand: Dict[DeviceType, float] = {}
    for name in app.modules:
        module = app.modules[name]
        if isinstance(module, TaskModule):
            candidates = [
                d for d in sorted(module.device_candidates,
                                  key=lambda d: d.value)
                if d in datacenter.pools
            ]
            if not candidates:
                continue
            chosen = min(
                candidates,
                key=lambda d: spec.spec_for(d).unit_price_hour
                / max(spec.spec_for(d).compute_rate, 1e-9),
            )
            demand[chosen] = demand.get(chosen, 0.0) \
                + spec.spec_for(chosen).min_grain
        elif isinstance(module, DataModule):
            order = _HOT_MEDIA if module.hot else _COLD_MEDIA
            for media in order:
                if media in datacenter.pools:
                    demand[media] = demand.get(media, 0.0) + module.size_gb
                    break
    return demand


class CellRouter:
    """Deterministic cell choice from per-cell free-capacity vectors.

    The router never scans devices: a cell's score reads only
    ``pool.total_free`` / ``pool.max_free()`` — O(1) aggregates the
    pools maintain incrementally on every allocate/release — so routing
    cost is O(cells × demanded types) regardless of fleet size.

    Scoring: a cell is *infeasible* for a demand entry when its pool
    cannot host even one device-sized shard of it (``max_free`` below
    the entry's single-device slice); feasible cells are ranked by
    worst-case headroom ``min(free − demand)`` so load spreads toward
    the emptiest cell.  Ties break on the lower cell id.  The returned
    order is the spill order: callers try cells front to back.
    """

    def __init__(self, cells: List[Datacenter], telemetry=None):
        self.cells = cells
        #: device type -> per cell (pool, one device's capacity), or None
        #: where the cell has no such pool: one lookup per demanded type
        self._columns: Dict[DeviceType, List[Optional[Tuple[ResourcePool,
                                                            float]]]] = {}
        for cell_id, cell in enumerate(cells):
            for device_type, pool in cell.pools.pools.items():
                column = self._columns.setdefault(
                    device_type, [None] * len(cells))
                column[cell_id] = (pool,
                                   cell.spec.spec_for(device_type).capacity)
        self.telemetry = telemetry
        #: spills observed (first-choice cell rejected), telemetry aside
        self.spills = 0
        self.routed = 0

    def free_vector(self, cell_id: int) -> Dict[DeviceType, float]:
        """The cell's free capacity by device type (O(1) per type)."""
        cell = self.cells[cell_id]
        return {
            device_type: cell.pool(device_type).total_free
            for device_type in cell.spec.all_device_types()
        }

    def order(self, demand: Dict[DeviceType, float]) -> List[int]:
        """Cells to try, best first; always covers every cell.

        A cell is scored (feasible, headroom): feasible sorts before
        infeasible, then the most worst-case headroom wins, then the
        lower cell id.
        """
        count = len(self.cells)
        feasible = [1] * count
        headroom = [float("inf")] * count
        absent = [False] * count   # lacks a demanded type: ranked last
        missing = [None] * count
        for device_type, amount in demand.items():
            column = self._columns.get(device_type, missing)
            for cell_id in range(count):
                if absent[cell_id]:
                    continue
                entry = column[cell_id]
                if entry is None:
                    absent[cell_id] = True
                    feasible[cell_id], headroom[cell_id] = 0, float("-inf")
                    continue
                pool, capacity = entry
                if pool.max_free() + 1e-9 < min(amount, capacity):
                    feasible[cell_id] = 0
                headroom[cell_id] = min(headroom[cell_id],
                                        pool.total_free - amount)
        return sorted(range(count),
                      key=lambda i: (-feasible[i], -headroom[i], i))

    def record_placement(self, cell_id: int, hops: int) -> None:
        """Account one routed placement; ``hops`` > 0 means the first
        ``hops`` cells in router order rejected it (a spill)."""
        self.routed += 1
        if hops > 0:
            self.spills += 1
        if self.telemetry is not None and self.telemetry.enabled:
            self.telemetry.inc("udc_router_routed_total",
                               labels={"cell": str(cell_id)})
            if hops > 0:
                self.telemetry.inc("udc_router_spills_total",
                                   labels={"cell": str(cell_id)})

    def snapshot(self, registry) -> None:
        """Collector-style gauges: per-cell free capacity by type."""
        for cell_id in range(len(self.cells)):
            for device_type, free in self.free_vector(cell_id).items():
                registry.gauge(
                    "udc_cell_free_units",
                    {"cell": str(cell_id),
                     "device_type": device_type.value},
                ).set(free)
