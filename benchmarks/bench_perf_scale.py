"""Perf-scale — indexed placement, the naive reference, and sharded cells.

PR 2 rebuilt ``ResourcePool`` allocation around incremental capacity
accounting and a bisect-sorted free index: one placement is
O(log N + k) in fleet size instead of the historical full scan + sort
(with a per-call re-sum of pool totals on top).  This bench drives the
same seeded allocate/release churn through both paths at 100 / 1 000 /
5 000 devices and reports placements/second, asserting:

* **identical decisions** — the two paths place every request on the
  same device, in the same order (the golden-trace property that
  ``tests/test_placement_equivalence.py`` checks on full workloads);
* **super-linear speedup** — the indexed path's advantage *grows* with
  fleet size (the point of an index), and is ≥ 10x at the
  1 000-device × 10 000-placement point;
* **no regression** — when a committed ``BENCH_PERF.json`` baseline
  exists, the current speedup ratio must stay within 2x of it (ratios,
  not absolute rates, so the check is stable across CI hardware).

The indexed path itself still pays an index-maintenance cost that grows
with fleet size (its own rate *falls* from ~98k/s at 100 devices to
~39k/s at 5k) — which is what the **cells mode** attacks: the fleet is
partitioned into placement cells (``repro.core.cells``), each with its
own pool indexes, fronted by the ``CellRouter``; aggregate placement
rate is measured at several cell counts over a fixed 51 200-device
fleet (asserting ≥ 3x at 8 cells vs 1) plus a scale-out series at a
constant 6 400 devices/cell out to 102 400 devices (asserting
near-flat per-placement cost).

Run it three ways::

    PYTHONPATH=src python benchmarks/bench_perf_scale.py           # full
    PYTHONPATH=src python benchmarks/bench_perf_scale.py --smoke   # CI
    PYTHONPATH=src python -m pytest benchmarks/bench_perf_scale.py -x -q

Results land in ``BENCH_PERF.json`` at the repo root (see
``docs/performance.md`` for how to read them).
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import random
import statistics
import sys
import time
from pathlib import Path
from typing import List, Optional, Tuple

import repro.hardware.devices as devices_mod
import repro.hardware.pools as pools_mod
from repro.core.cells import CellRouter, partition_datacenter
from repro.hardware.devices import DEFAULT_SPECS, Device, DeviceType
from repro.hardware.fabric import Location
from repro.hardware.pools import AllocationError, ResourcePool
from repro.hardware.topology import DatacenterSpec, build_datacenter

try:
    from _util import interleaved_pairs, print_table
except ImportError:  # running as a script from the repo root
    sys.path.insert(0, str(Path(__file__).parent))
    from _util import interleaved_pairs, print_table

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_PERF.json"

SEED = 2024
TENANTS = 16
RELEASE_FRACTION = 0.35      # churn: roughly a third of ops free capacity
LOCALITY_FRACTION = 0.3      # ops carrying a preferred-location hint
SINGLE_TENANT_FRACTION = 0.02
#: (devices, placements) points for the full run; smoke trims this.
FULL_SCALES = [(100, 10_000), (1_000, 10_000), (5_000, 10_000)]
SMOKE_SCALES = [(100, 2_000), (1_000, 2_000)]
#: the naive path is O(N log N + live-allocs) *per placement*; cap its
#: sample at large N and report rates, or the bench takes tens of minutes.
NAIVE_OP_CAP = 1_500

#: cells mode, fixed fleet: one 51 200-device fleet at several cell
#: counts — aggregate rate should grow ~linearly with cells.
CELL_FLEET = 51_200
CELL_COUNTS = [1, 2, 4, 8]
CELL_PLACEMENTS = 40_000
#: cells mode, scale-out: constant 6 400 devices/cell — per-placement
#: cost should stay near-flat as the fleet grows 16x.
SCALE_OUT = [(6_400, 1), (12_800, 2), (25_600, 4), (51_200, 8),
             (102_400, 16)]
SCALE_OUT_PLACEMENTS = 20_000
#: smoke variants for CI: small enough to finish in seconds, big enough
#: that index maintenance (not router overhead) dominates.
SMOKE_CELL_FLEET = 12_800
SMOKE_CELL_COUNTS = [1, 4]
SMOKE_CELL_PLACEMENTS = 6_000
#: interleaved 1-cell / 4-cell pairs behind the smoke scaling gate: it
#: reads their median CPU-time ratio, not one wall-clock pass per count
SMOKE_CELL_PAIRS = 7


def build_pool(n_devices: int, indexed: bool) -> ResourcePool:
    """A CPU pool of ``n_devices`` spread over 8-slot racks, 32 racks/pod.

    The global id counters are pinned so the indexed and naive builds get
    identical device ids — placement tie-breaks must see the same fleet.
    """
    devices_mod._device_ids = itertools.count()
    pools_mod._alloc_ids = itertools.count()
    pool = ResourcePool(DeviceType.CPU, indexed=indexed)
    for index in range(n_devices):
        pool.add_device(Device(
            spec=DEFAULT_SPECS[DeviceType.CPU],
            location=Location(
                pod=index // 256, rack=(index // 8) % 32, slot=index % 8
            ),
        ))
    pool.alloc_log = []
    return pool


def generate_ops(n_devices: int, n_placements: int, seed: int = SEED):
    """A deterministic allocate/release script, independent of pool state.

    Amounts are grain multiples (0.25-core steps up to 8 cores) so the
    incremental accounting is exercised on the same binary-exact floats
    the real workloads use.  Releases name a *position* into the caller's
    live-allocation list; both paths replay the identical script.
    """
    rng = random.Random(seed)
    locations = [
        Location(pod=i // 256, rack=(i // 8) % 32, slot=i % 8)
        for i in range(n_devices)
    ]
    ops: List[Tuple] = []
    placements = 0
    while placements < n_placements:
        if ops and rng.random() < RELEASE_FRACTION:
            ops.append(("release", rng.randrange(1 << 30)))
            continue
        amount = 0.25 * rng.randint(1, 32)
        tenant = f"t{rng.randrange(TENANTS)}"
        preferred = (
            rng.choice(locations)
            if rng.random() < LOCALITY_FRACTION else None
        )
        single = rng.random() < SINGLE_TENANT_FRACTION
        ops.append(("alloc", amount, tenant, preferred, single))
        placements += 1
    return ops


def run_ops(pool: ResourcePool, ops) -> Tuple[float, int, List]:
    """Replay ``ops``; returns (elapsed_s, placements_done, trace)."""
    live = []
    placements = 0
    start = time.perf_counter()
    for op in ops:
        if op[0] == "release":
            if live:
                pool.release(live.pop(op[1] % len(live)))
            continue
        _, amount, tenant, preferred, single = op
        try:
            live.append(pool.allocate(
                amount, tenant,
                single_tenant=single, preferred_location=preferred,
            ))
        except AllocationError:
            # Same deterministic overflow on both paths: shed the oldest
            # allocation and move on.
            if live:
                pool.release(live.pop(0))
        placements += 1
    elapsed = time.perf_counter() - start
    return elapsed, placements, list(pool.alloc_log)


def bench_scale(n_devices: int, n_placements: int) -> dict:
    ops = generate_ops(n_devices, n_placements)
    # Naive reference first (its op count may be capped at large N).
    extrapolated = n_devices > 1_000
    naive_ops = ops[:NAIVE_OP_CAP] if extrapolated else ops
    naive_pool = build_pool(n_devices, indexed=False)
    naive_s, naive_n, naive_trace = run_ops(naive_pool, naive_ops)

    indexed_pool = build_pool(n_devices, indexed=True)
    indexed_s, indexed_n, indexed_trace = run_ops(indexed_pool, ops)
    indexed_pool.check_accounting()

    # Byte-identical decisions over the ops both paths executed.
    assert indexed_trace[:len(naive_trace)] == naive_trace, (
        f"placement divergence at {n_devices} devices"
    )

    naive_rate = naive_n / naive_s
    indexed_rate = indexed_n / indexed_s
    if extrapolated:
        # The naive sample is truncated, and early ops are cheaper for
        # BOTH paths (fewer live allocations to scan/release).  Rates
        # from different op windows are not comparable, so the speedup
        # is computed from the indexed path re-timed on the *same*
        # truncated prefix — and the row says so (``extrapolated``)
        # instead of passing the capped naive rate off as a full-run
        # measurement.
        subset_pool = build_pool(n_devices, indexed=True)
        subset_s, subset_n, _ = run_ops(subset_pool, naive_ops)
        speedup = (subset_n / subset_s) / naive_rate
    else:
        speedup = indexed_rate / naive_rate
    return {
        "devices": n_devices,
        "placements": indexed_n,
        "naive_placements_timed": naive_n,
        "extrapolated": extrapolated,
        "naive_s": round(naive_s, 4),
        "indexed_s": round(indexed_s, 4),
        "naive_rate_per_s": round(naive_rate, 1),
        "indexed_rate_per_s": round(indexed_rate, 1),
        "speedup": round(speedup, 2),
    }


# -- sharded cells ----------------------------------------------------------

def build_sharded_fleet(n_devices: int, n_cells: int):
    """A CPU-only datacenter of ``n_devices`` partitioned into cells.

    Uses the real substrate — ``build_datacenter`` then
    ``partition_datacenter`` — with the same 8-devices/rack,
    32-racks/pod layout ``generate_ops`` assumes.  Global id counters
    are pinned so every cell count sees the identical fleet.
    """
    if n_devices % 256:
        raise ValueError(f"fleet size must be a multiple of 256 "
                         f"(8/rack x 32 racks/pod), got {n_devices}")
    devices_mod._device_ids = itertools.count()
    pools_mod._alloc_ids = itertools.count()
    datacenter = build_datacenter(DatacenterSpec(
        pods=n_devices // 256, racks_per_pod=32,
        devices_per_rack={DeviceType.CPU: 8},
    ))
    cells = partition_datacenter(datacenter, n_cells)
    for cell in cells:
        cell.pool(DeviceType.CPU).alloc_log = []
    return cells, CellRouter(cells)


def run_cells_ops(cells, router: CellRouter, ops,
                  clock=time.perf_counter) -> Tuple[float, int]:
    """Replay ``ops`` through the router; returns (elapsed_s, placements),
    elapsed as measured by ``clock``.

    Every alloc is routed by the cell order for its amount and spills to
    the next cell on rejection — the same deterministic walk the sharded
    service performs.  Releases go to the allocation's owning cell pool.
    """
    cpu = DeviceType.CPU
    pools = [cell.pool(cpu) for cell in cells]
    live: List[Tuple] = []
    placements = 0
    start = clock()
    for op in ops:
        if op[0] == "release":
            if live:
                alloc, pool = live.pop(op[1] % len(live))
                pool.release(alloc)
            continue
        _, amount, tenant, preferred, single = op
        placed = False
        for hops, cell_id in enumerate(router.order({cpu: amount})):
            try:
                alloc = pools[cell_id].allocate(
                    amount, tenant,
                    single_tenant=single, preferred_location=preferred,
                )
            except AllocationError:
                continue
            live.append((alloc, pools[cell_id]))
            router.record_placement(cell_id, hops)
            placed = True
            break
        if not placed and live:
            # Same deterministic overflow as the flat bench: shed the
            # oldest allocation and move on.
            alloc, pool = live.pop(0)
            pool.release(alloc)
        placements += 1
    elapsed = clock() - start
    return elapsed, placements


def bench_cells(n_devices: int, n_cells: int, n_placements: int) -> dict:
    ops = generate_ops(n_devices, n_placements)
    cells, router = build_sharded_fleet(n_devices, n_cells)
    elapsed, placements = run_cells_ops(cells, router, ops)
    for cell in cells:
        cell.pool(DeviceType.CPU).check_accounting()
    rate = placements / elapsed
    return {
        "devices": n_devices,
        "cells": n_cells,
        "placements": placements,
        "elapsed_s": round(elapsed, 4),
        "rate_per_s": round(rate, 1),
        "us_per_placement": round(1e6 * elapsed / placements, 2),
        "spills": router.spills,
    }


def load_baseline() -> Optional[dict]:
    if RESULT_PATH.exists():
        try:
            return json.loads(RESULT_PATH.read_text())
        except (OSError, ValueError):
            return None
    return None


def check_regression(results: List[dict], baseline: Optional[dict]) -> List[str]:
    """Compare speedup ratios against the committed baseline.

    Ratios (indexed/naive on the same host) are hardware-independent in a
    way absolute rates are not, so CI runners of different vintages share
    one baseline.  A >2x drop fails the perf-smoke job.
    """
    if not baseline:
        return []
    by_devices = {r["devices"]: r for r in baseline.get("scales", [])}
    failures = []
    for row in results:
        ref = by_devices.get(row["devices"])
        if ref is None:
            continue
        if row["speedup"] < ref["speedup"] / 2:
            failures.append(
                f"{row['devices']} devices: speedup {row['speedup']}x is "
                f">2x below committed baseline {ref['speedup']}x"
            )
    return failures


def cells_scaling(n_devices: int, n_cells: int, n_placements: int,
                  pairs: int) -> Tuple[float, List[float]]:
    """Aggregate-rate scaling from 1 to ``n_cells`` cells: the median,
    over ``pairs`` interleaved runs, of 1-cell / ``n_cells``-cell process
    CPU time for the same ops (both place every op, so the time ratio is
    the rate ratio).  Returns (median, per-pair ratios)."""
    ops = generate_ops(n_devices, n_placements)

    def timed(count: int):
        def run():
            cells, router = build_sharded_fleet(n_devices, count)
            gc.collect()
            return run_cells_ops(cells, router, ops, clock=time.process_time)
        return run

    ratios = [one_s / many_s for one_s, _, many_s, _ in
              interleaved_pairs(timed(1), timed(n_cells), pairs)]
    return statistics.median(ratios), ratios


def run_cells_mode(smoke: bool = False) -> dict:
    """The sharded-control-plane half of the bench.

    Fixed fleet: aggregate placement rate vs cell count (the ~linear
    scaling claim).  Scale-out (full mode only): constant devices/cell
    while the fleet grows 16x (the near-flat per-placement-cost claim).
    """
    fleet = SMOKE_CELL_FLEET if smoke else CELL_FLEET
    counts = SMOKE_CELL_COUNTS if smoke else CELL_COUNTS
    n_placements = SMOKE_CELL_PLACEMENTS if smoke else CELL_PLACEMENTS
    fixed = [bench_cells(fleet, cells, n_placements) for cells in counts]
    print_table(
        f"Sharded cells: aggregate placement rate, {fleet} devices",
        ["cells", "placements", "rate/s", "us/placement", "spills",
         "scaling"],
        [(r["cells"], r["placements"], r["rate_per_s"],
          r["us_per_placement"], r["spills"],
          f"{r['rate_per_s'] / fixed[0]['rate_per_s']:.2f}x")
         for r in fixed],
    )
    by_cells = {r["cells"]: r["rate_per_s"] for r in fixed}
    if smoke:
        scaling_1_to_4, ratios = cells_scaling(fleet, 4, n_placements,
                                               SMOKE_CELL_PAIRS)
        print(f"1->4 cells, median of {len(ratios)} interleaved CPU-time "
              f"pairs: {scaling_1_to_4:.2f}x "
              f"({', '.join(f'{r:.2f}' for r in ratios)})")
        assert scaling_1_to_4 >= 1.7, (
            f"1->4 cells scaled only {scaling_1_to_4:.2f}x "
            f"(>=1.7x required; per-pair ratios {ratios})"
        )
        return {"fleet": fleet, "fixed_fleet": fixed,
                "scaling_1_to_4": round(scaling_1_to_4, 2)}

    scaling_1_to_8 = by_cells[8] / by_cells[1]
    assert scaling_1_to_8 >= 3.0, (
        f"8 cells scaled only {scaling_1_to_8:.2f}x over 1 cell "
        f"(>=3x required on a {fleet}-device fleet): {by_cells}"
    )
    scale_out = [bench_cells(n, cells, SCALE_OUT_PLACEMENTS)
                 for n, cells in SCALE_OUT]
    print_table(
        "Sharded cells: scale-out at constant 6400 devices/cell",
        ["devices", "cells", "rate/s", "us/placement", "spills"],
        [(r["devices"], r["cells"], r["rate_per_s"],
          r["us_per_placement"], r["spills"]) for r in scale_out],
    )
    # Near-flat per-placement cost: growing the fleet 16x (at constant
    # cell size) keeps per-cell index cost constant; the residual growth
    # is the router's O(cells) scoring pass (~3 us/cell).  Two gates:
    # the 16x fleet may cost at most 4x per placement (vs the ~16x a
    # single global index degrades), and the largest sharded fleet must
    # beat the *global* scheduler on a fleet half its size.
    costs = [r["us_per_placement"] for r in scale_out]
    assert max(costs) <= 4.0 * costs[0], (
        f"per-placement cost not flat across scale-out: {costs} us"
    )
    global_cost = fixed[0]["us_per_placement"]
    assert costs[-1] < global_cost, (
        f"sharded {scale_out[-1]['devices']}-device fleet costs "
        f"{costs[-1]} us/placement, not below the global scheduler's "
        f"{global_cost} us on {fixed[0]['devices']} devices"
    )
    return {
        "fleet": fleet,
        "fixed_fleet": fixed,
        "scaling_1_to_8": round(scaling_1_to_8, 2),
        "scale_out": scale_out,
    }


def run(smoke: bool = False, write: bool = True) -> dict:
    scales = SMOKE_SCALES if smoke else FULL_SCALES
    results = [bench_scale(n, m) for n, m in scales]
    print_table(
        "Perf scale: indexed placement vs naive reference",
        ["devices", "placements", "naive/s", "indexed/s", "speedup"],
        [(r["devices"], r["placements"], r["naive_rate_per_s"],
          r["indexed_rate_per_s"],
          f"{r['speedup']}x" + ("*" if r["extrapolated"] else ""))
         for r in results],
    )
    if any(r["extrapolated"] for r in results):
        print("  * naive path timed on a truncated prefix; speedup "
              "compares both paths over that same prefix")

    # Super-linear: the index wins *more* as the fleet grows.
    speedups = {r["devices"]: r["speedup"] for r in results}
    assert speedups[1_000] > speedups[100], (
        f"speedup did not grow with fleet size: {speedups}"
    )
    if not smoke:
        assert speedups[1_000] >= 10, (
            f"expected >=10x at 1k devices, got {speedups[1_000]}x"
        )

    print()
    cells_report = run_cells_mode(smoke=smoke)

    regressions = check_regression(results, load_baseline())
    report = {
        "bench": "bench_perf_scale",
        "mode": "smoke" if smoke else "full",
        "seed": SEED,
        "scales": results,
        "cells": cells_report,
        "regressions": regressions,
    }
    if write and not smoke:
        RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")
        print(f"\nwrote {RESULT_PATH.relative_to(REPO_ROOT)}")
    if regressions:
        for line in regressions:
            print(f"REGRESSION: {line}", file=sys.stderr)
        raise SystemExit(1)
    return report


# -- pytest entry points ----------------------------------------------------

def test_perf_scale_smoke():
    """Smoke point: identical traces + the speedup grows with fleet size."""
    report = run(smoke=True, write=False)
    assert report["scales"][0]["speedup"] > 1
    assert not report["regressions"]


def test_cells_routing_deterministic():
    """The routed path is replayable: two runs of the same script over
    the same sharded fleet produce identical per-cell traces, and a
    single cell routes exactly like the flat indexed pool."""
    ops = generate_ops(512, 1_500, seed=11)
    traces = []
    for _ in range(2):
        cells, router = build_sharded_fleet(512, 2)
        run_cells_ops(cells, router, ops)
        traces.append([list(c.pool(DeviceType.CPU).alloc_log)
                       for c in cells])
    assert traces[0] == traces[1]
    assert any(traces[0])

    cells, router = build_sharded_fleet(512, 1)
    run_cells_ops(cells, router, ops)
    flat = build_pool(512, indexed=True)
    run_ops(flat, ops)
    assert cells[0].pool(DeviceType.CPU).alloc_log == flat.alloc_log


def test_trace_identical_with_locality_and_gating():
    """Decision equivalence under the adversarial bits: locality hints,
    single-tenant pins, and an admission filter gating half the fleet."""
    ops = generate_ops(64, 800, seed=9)
    traces = []
    for indexed in (True, False):
        pool = build_pool(64, indexed=indexed)
        pool.admission_filter = lambda d: d.seq % 2 == 0
        run_ops(pool, ops)
        traces.append(list(pool.alloc_log))
    assert traces[0] == traces[1]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="small scales for CI; does not rewrite BENCH_PERF.json",
    )
    parser.add_argument(
        "--no-write", action="store_true",
        help="run without touching BENCH_PERF.json",
    )
    args = parser.parse_args()
    run(smoke=args.smoke, write=not args.no_write)
