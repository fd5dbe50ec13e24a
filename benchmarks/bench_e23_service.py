"""E23 — the multi-tenant serving layer (PR 4 tentpole).

Three claims, each asserted deterministically:

1. **Fairness under contention** — 8 equal-weight tenants submit 6
   16-GPU jobs each in an adversarial order (all of tenant-0's first,
   then tenant-1's, ...).  The datacenter runs one such job at a time,
   so admission order *is* the allocation.  Cut off mid-stream,
   weighted fair share spreads completions almost evenly (Jain >= 0.9)
   while FIFO has finished the early tenants and starved the late ones.

2. **Result-cache economics** — a tenant re-submitting the same
   (app, definition, inputs) across drain cycles gets served from the
   bounded result cache: hit rate > 0, saved cost credited.

3. **Batched placement throughput** — the same 200-app stream through
   the control plane (submission + placement, simulated execution
   excluded) runs >= 2x faster in batched mode, which memoizes
   admission templates and pays batch-level telemetry, while producing
   byte-identical placements to serial submission in the same order.
   The speedup is the median over interleaved serial/batched pairs of
   CPU-time measurements.
"""

import gc
import statistics
import time

from repro.appmodel.annotations import AppBuilder
from repro.core.admission import FifoAdmission, WeightedFairShare
from repro.hardware.devices import DeviceType
from repro.hardware.topology import DatacenterSpec, build_datacenter
from repro.service import UDCService

from _util import interleaved_pairs, print_table

#: one rack, 16 GPUs: a 16-GPU job owns the datacenter, serializing jobs
TINY = DatacenterSpec(
    pods=1, racks_per_pod=1,
    devices_per_rack={DeviceType.CPU: 2, DeviceType.GPU: 2,
                      DeviceType.DRAM: 1, DeviceType.SSD: 1},
)

N_TENANTS = 8
JOBS_PER_TENANT = 6


def gpu_job(name, work=10.0):
    app = AppBuilder(name)

    @app.task(name="train", work=work, devices={DeviceType.GPU})
    def train(ctx):
        return name

    return app.build(), {"train": {"resource": {"device": "gpu",
                                                "amount": 16}}}


def cpu_job(name, work=2.0):
    app = AppBuilder(name)

    @app.task(name="crunch", work=work)
    def crunch(ctx):
        return name

    return app.build(), {"crunch": {"resource": "cheapest"}}


# ----------------------------------------------------- 1. fairness


def adversarial_run(policy):
    """All of tenant-0's jobs submitted first, then tenant-1's, ..."""
    service = UDCService(build_datacenter(TINY), policy=policy)
    for tenant in range(N_TENANTS):
        service.register_tenant(f"t{tenant}")
    for tenant in range(N_TENANTS):
        for job in range(JOBS_PER_TENANT):
            app, spec = gpu_job(f"t{tenant}-j{job}")
            service.submit(f"t{tenant}", app, spec)
    # Calibrate the mid-stream cutoff off one job's simulated makespan
    # (deterministic), then stop the clock about halfway through.
    probe = UDCService(build_datacenter(TINY))
    probe.submit("probe", *gpu_job("probe"))
    probe.drain()
    job_s = probe.handles[0].result.makespan_s
    cutoff = job_s * (N_TENANTS * JOBS_PER_TENANT // 2 + 1)
    service.drain(until=cutoff)
    return service


def test_e23_fair_share_vs_fifo_under_contention():
    fair = adversarial_run(WeightedFairShare())
    fifo = adversarial_run(FifoAdmission())
    fair_counts = fair.completed_by_tenant()
    fifo_counts = fifo.completed_by_tenant()
    print_table(
        f"E23 — adversarial stream, {N_TENANTS} tenants x "
        f"{JOBS_PER_TENANT} jobs, mid-stream cutoff",
        ["policy", "jain", "per-tenant completions"],
        [("fair-share", fair.fairness_index(),
          " ".join(str(fair_counts[t]) for t in sorted(fair_counts))),
         ("fifo", fifo.fairness_index(),
          " ".join(str(fifo_counts[t]) for t in sorted(fifo_counts)))],
    )
    total_fair = sum(fair_counts.values())
    # The cutoff really is mid-stream: contention, not quiescence.
    assert 10 <= total_fair < N_TENANTS * JOBS_PER_TENANT
    # Stride scheduling spreads the cutoff evenly across all 8 tenants...
    assert fair.fairness_index() >= 0.9
    assert max(fair_counts.values()) - min(fair_counts.values()) <= 2
    # ...while FIFO finishes early tenants and starves late ones.
    assert fifo.fairness_index() < 0.75
    assert min(fifo_counts.values()) == 0
    assert fair.fairness_index() > fifo.fairness_index()


# ------------------------------------------------- 2. result cache


def test_e23_result_cache_hit_rate():
    service = UDCService(build_datacenter(TINY))
    app, spec = cpu_job("report")
    for cycle in range(3):
        for variant in range(3):
            service.submit("analyst", app, spec,
                           inputs={"crunch": variant})
        service.drain()
    stats = service.cache_stats
    usage = service.ledger.usage("analyst")
    print_table(
        "E23 — result cache across 3 cycles x 3 repeated inputs",
        ["hits", "misses", "hit_rate", "executed", "cost_$", "saved_$"],
        [(stats.hits, stats.misses, stats.hit_rate, usage.completed,
          usage.total_cost, usage.cost_saved)],
    )
    # Cycle 1 misses and executes; cycles 2-3 are served from cache.
    assert stats.hit_rate > 0
    assert stats.hits == 6 and stats.misses == 3
    assert usage.completed == 3 and usage.cache_hits == 6
    assert usage.cost_saved > 0


# --------------------------------------- 3. batched placement speed


N_APPS = 200
#: interleaved serial/batched pairs; the gate reads their median ratio
PAIRS = 9
#: 32 racks: locality scoring scans every candidate rack per task, so
#: the placement search — the part a batch round memoizes — carries a
#: realistic weight relative to fixed per-app allocation work.
STREAM_SPEC = DatacenterSpec(pods=2, racks_per_pod=16)


def stream_app():
    """A 10-module app whose control-plane cost is dominated by the
    placement search: every stage pulls from the shared raw store and
    its predecessor, so locality scoring weighs each candidate rack
    against two transfer sources."""
    app = AppBuilder("pipeline")
    raw = app.data("raw", size_gb=1.0)
    curated = app.data("curated", size_gb=1.0)
    previous = None
    for index in range(8):
        @app.task(name=f"s{index}", work=1.0, max_parallelism=1)
        def stage(ctx, _i=index):
            return _i

        app.reads(f"s{index}", raw, bytes_per_run=1 << 18)
        if previous is not None:
            app.flows(previous, f"s{index}", bytes_=1 << 16)
        previous = f"s{index}"
    app.writes("s7", curated, bytes_per_run=1 << 20)
    definition = {
        f"s{index}": {"resource": {"device": "cpu", "amount": 0.25},
                      "execenv": {"isolation": "strong"},
                      "distributed": {"retry": 2}}
        for index in range(8)
    }
    definition["raw"] = {"resource": "dram"}
    definition["curated"] = {
        "resource": "ssd",
        "distributed": {"replication": 2, "consistency": "sequential"},
    }
    return app.build(), definition


def _placement_bytes(service):
    """Placements at physical-device granularity, normalized to
    per-datacenter device positions (device ids number globally)."""
    datacenter = service.runtime.datacenter
    position = {device.device_id: index
                for index, device in enumerate(datacenter.devices)}
    stream = []
    for handle in service.handles:
        result = handle.result
        stream.append(sorted(
            (name, tuple((position[a.device.device_id], a.amount)
                         for a in obj.allocations))
            for name, obj in result.objects.items()
        ))
    return repr(stream).encode()


def submission_phase(batched):
    """Time ONLY the control plane: submit + dispatch of N_APPS apps,
    in CPU seconds of this process.  Execution is simulated and
    identical either way, so it is excluded from the clock but still
    run (to collect placements).  The cyclic collector is parked during
    the timed region (both modes equally) so earlier tests' garbage
    doesn't bill a random mode."""
    app, definition = stream_app()
    service = UDCService(build_datacenter(STREAM_SPEC), batched=batched,
                         result_cache_capacity=0)
    gc.collect()
    gc.disable()
    try:
        t0 = time.process_time()
        for index in range(N_APPS):
            service.submit("tenant", app, definition, inputs={"s0": index})
        service.dispatch_round()
        elapsed = time.process_time() - t0
    finally:
        gc.enable()
    service.drain()
    assert all(h.status == "done" for h in service.handles)
    return elapsed, _placement_bytes(service)


def test_e23_batched_placement_2x_and_byte_identical():
    pairs = interleaved_pairs(lambda: submission_phase(batched=False),
                              lambda: submission_phase(batched=True),
                              pairs=PAIRS)
    for _serial_s, serial_placements, _batched_s, batched_placements \
            in pairs:
        assert serial_placements == batched_placements
    ratios = [serial_s / batched_s
              for serial_s, _, batched_s, _ in pairs]
    serial_s = statistics.median(pair[0] for pair in pairs)
    batched_s = statistics.median(pair[2] for pair in pairs)
    speedup = statistics.median(ratios)
    print_table(
        f"E23 — control-plane CPU time for the same {N_APPS}-app stream "
        f"(medians of {PAIRS} interleaved pairs; ratios "
        f"{min(ratios):.2f}-{max(ratios):.2f})",
        ["mode", "seconds", "speedup"],
        [("serial", serial_s, 1.0), ("batched", batched_s, speedup)],
    )
    assert speedup >= 2.0, (
        f"batched submission only {speedup:.2f}x faster in the median of "
        f"{PAIRS} pairs (ratios {sorted(round(r, 2) for r in ratios)})"
    )
