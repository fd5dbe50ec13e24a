"""The system-under-test process for one benchmark repetition.

    python3 udcbench/sut.py inproc --workload serve-trace --seed 7
    python3 udcbench/sut.py gateway
    (either with ``--trace-out FILE`` to install the span tracer)

The process talks to the runner over stdout, one JSON object per line:
``{"ready": ...}`` as soon as the control plane can take its first
submission (imports, datacenter, service and tenants; for the gateway,
the listener, after which the runner registers the tenants over HTTP),
then ``{"report": ...}`` when its work is done.  Everything before the
ready line counts as set-up time and nothing after it does.

In-process workloads replay a generated tenant trace the way ``udc
serve`` does; the trace is generated after the ready line and before
the timed replay, so neither timing includes it.  The gateway workload
serves until the client posts ``/v1/shutdown``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
from workloads import FAILURE_MODULES, GATEWAY, INPROC  # noqa: E402


def emit(kind: str, payload) -> None:
    sys.stdout.write(json.dumps({kind: payload}, sort_keys=True) + "\n")
    sys.stdout.flush()


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def quantile(sorted_values, q: float) -> float:
    """Nearest-rank quantile of an already sorted list (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values) - 1,
               max(0, int(round(q * (len(sorted_values) - 1)))))
    return sorted_values[rank]


# --------------------------------------------------------------- in-process


def build_service(shape):
    from repro import TenantSpec, UDCService, WeightedFairShare
    from repro.core.telemetry import Telemetry
    from repro.execenv.warmpool import WarmPool
    from repro.hardware.topology import DatacenterSpec, build_datacenter
    from repro.workloads.tenants import default_tenant_profiles

    datacenter = build_datacenter(
        DatacenterSpec(pods=shape["pods"], racks_per_pod=shape["racks"]))
    service = UDCService(
        datacenter, policy=WeightedFairShare(), cells=shape["cells"],
        autopilot=shape["autopilot"],
        result_cache_capacity=shape["cache_capacity"],
        warm_pool=WarmPool(enabled=shape["warm"]), prewarm=shape["warm"],
        telemetry=Telemetry(enabled=shape["telemetry"]),
    )
    # One fixed reference population; the seed drives the trace drawn
    # from it, so seeds vary arrivals and payloads, not the tenant mix.
    profiles = default_tenant_profiles(count=shape["tenants"],
                                       seed=shape["population_seed"])
    spot = int(round(shape["spot_fraction"] * len(profiles)))
    for index, profile in enumerate(profiles):
        service.register_tenant(profile.name, TenantSpec(
            weight=profile.weight,
            goal="cheapest" if index < spot else None,
            budget_dollars=shape["budget"],
        ))
    return service, profiles


def inject_failure(service, round_index: int, failures) -> None:
    """Fail one module-default failure domain in every cell, then repair
    it: a fixed schedule in simulated time, relative to the round."""
    module = FAILURE_MODULES[(round_index // failures["every"])
                             % len(FAILURE_MODULES)]
    when = service.runtime.sim.now + failures["delay_s"]
    for cell_runtime in service.cell_runtimes:
        cell_runtime.injector.fail_at(when, f"fd:{module}",
                                      repair_after=failures["repair_s"])


def with_task_retry(trace, retry) -> None:
    """Give every task module of every tenant's definition ``retry``:
    the tenants of a churning fleet declare a backoff that outlasts the
    scheduled repair window, so a crashed task re-places on healthy
    devices instead of being abandoned."""
    patched = {}
    for arrival in trace.submissions:
        definition = patched.get(id(arrival.definition))
        if definition is None:
            definition = {
                name: (dict(spec, distributed=dict(
                    spec.get("distributed", {}), retry=dict(retry)))
                    if name in FAILURE_MODULES and isinstance(spec, dict)
                    else spec)
                for name, spec in arrival.definition.items()
            }
            patched[id(arrival.definition)] = definition
        object.__setattr__(arrival, "definition", definition)


def replay(service, trace, shape):
    """Submit the trace in order with a quiescent drain every
    ``round_every`` submissions (the ``udc serve`` loop).  Returns wall
    seconds, per-submission front-door latencies and rejections."""
    from repro.analysis import AnalysisError
    from repro.service.tenants import QuotaExceeded

    clock = time.perf_counter
    failures = shape["failures"]
    latencies = []
    rejected = rounds = 0
    start = clock()
    for index, arrival in enumerate(trace.submissions, start=1):
        sent = clock()
        try:
            service.submit(arrival.tenant, arrival.dag, arrival.definition,
                           inputs=arrival.inputs)
        except (QuotaExceeded, AnalysisError):
            rejected += 1
        latencies.append(clock() - sent)
        if index % shape["round_every"] == 0:
            rounds += 1
            if failures and rounds % failures["every"] == 0:
                inject_failure(service, rounds, failures)
            service.drain()
    service.drain()
    return clock() - start, latencies, rejected


def outcome_report(service, attempts: int, rejected: int):
    """Deterministic outputs, failure counts and correctness checks."""
    rollup = service.rollup()
    completed = sum(u.completed for u in rollup)
    cached = sum(u.cache_hits for u in rollup)
    unplaceable = sum(u.unplaceable for u in rollup)
    ledger_rejected = sum(u.rejected for u in rollup)
    billed = sum(u.billed_cost for u in rollup)
    results, abandoned = [], 0
    for handle in service.handles:
        if handle.cached or handle.status != "done":
            continue
        result = handle.result
        results.append(result)
        tasks = {task.name for task in handle.submission.dag.tasks}
        if not tasks <= set(result.outputs):
            abandoned += 1
    makespans = sorted(result.makespan_s for result in results)
    warm = service.runtime.warm_pool.stats

    checks = []
    drift = service.check_budget_accounting()
    if drift:
        checks.append(f"budget accounting drift: {drift[:3]}")
    if attempts != completed + cached + unplaceable + rejected:
        checks.append(
            f"conservation: {attempts} submitted != {completed} completed "
            f"+ {cached} cached + {unplaceable} unplaceable + {rejected} "
            f"rejected")
    if ledger_rejected != rejected:
        checks.append(f"ledger counts {ledger_rejected} rejections, the "
                      f"front door raised {rejected}")
    if len(results) != completed:
        checks.append(f"{len(results)} finished handles vs {completed} "
                      f"completions on the ledger")
    for cell, cell_runtime in enumerate(service.cell_runtimes):
        for pool in cell_runtime.datacenter.pools:
            try:
                pool.check_accounting()
            except AssertionError as exc:
                checks.append(f"cell {cell} {pool.device_type.value} pool "
                              f"accounting: {exc}")
            leaked = sum(device.recompute_used() for device in pool.devices)
            if leaked > 1e-9:
                checks.append(f"cell {cell} {pool.device_type.value} pool "
                              f"holds {leaked:g} units after the drain")

    deterministic = {
        "rollup": [[u.tenant, u.submissions, u.completed, u.cache_hits,
                    u.unplaceable, u.rejected, u.total_cost, u.billed_cost]
                   for u in rollup],
        "makespans": makespans,
        "preemptions": service.preemptions,
        "retries": sum(r.total_retries for r in results),
        "recoveries": sum(r.total_failures for r in results),
        "warm": [warm.hits, warm.misses],
        "cache": [service.cache_stats.hits, service.cache_stats.misses,
                  service.cache_stats.evictions],
    }
    digest = hashlib.sha256(json.dumps(deterministic, sort_keys=True)
                            .encode()).hexdigest()
    return {
        "attempted": attempts,
        "completed": completed,
        "cached": cached,
        "unplaceable": unplaceable,
        "rejected": rejected,
        "abandoned": abandoned,
        "billed_usd_per_completion": billed / completed if completed else 0.0,
        "jain": service.fairness_index(),
        "sim_makespan_mean_s": (sum(makespans) / len(makespans)
                                if makespans else 0.0),
        "sim_makespan_p95_s": quantile(makespans, 0.95),
        "digest": digest,
        "completed_by_tenant": service.completed_by_tenant(),
        "checks": checks,
        "counters": {
            "runtime.retries": deterministic["retries"],
            "runtime.recoveries": deterministic["recoveries"],
            "runtime.preemptions": service.preemptions,
            "warmpool.hit_ratio": warm.hit_rate,
            "cache.hit_ratio": service.cache_stats.hit_rate,
            "cache.evictions": service.cache_stats.evictions,
            "dispatch.rounds": service.rounds,
            "dispatch.batch_mean": (completed + unplaceable)
            / service.rounds if service.rounds else 0.0,
            "router.spills": (service.router.spills
                              if service.router is not None else 0),
            "scheduler.unplaceable": unplaceable,
            "telemetry.samples_retained": len(service.telemetry.samples),
            "telemetry.spans_retained": len(service.telemetry.spans),
            "telemetry.events_retained": len(service.telemetry.events),
        },
    }


def run_inproc(workload: str, seed: int, scale: float, tracer) -> None:
    from repro.workloads.tenants import generate_tenant_trace

    shape = INPROC[workload]
    service, profiles = build_service(shape)
    emit("ready", {"workload": workload})

    trace = generate_tenant_trace(
        profiles, peak_rate_per_minute=shape["rate_per_min"],
        horizon_s=shape["minutes"] * 60.0 * scale,
        repeat_fraction=shape["repeat_fraction"], seed=seed,
    )
    if shape["task_retry"] is not None:
        with_task_retry(trace, shape["task_retry"])
    sim = service.runtime.sim
    events_before = sim._seq
    if tracer is not None:
        tracer.reset()
    wall_s, latencies, rejected = replay(service, trace, shape)
    report = outcome_report(service, len(trace), rejected)
    report.update({
        "wall_s": wall_s,
        "throughput_per_s": (report["completed"] + report["cached"])
        / wall_s,
        "latencies_ms": [1e3 * latency for latency in latencies],
        "peak_rss_mb": peak_rss_mb(),
    })
    report["counters"]["simulator.events"] = sim._seq - events_before
    if tracer is not None:
        report["spans"] = tracer.rollup()
    emit("report", report)


# ------------------------------------------------------------------ gateway


def run_gateway(tracer) -> None:
    import asyncio

    from repro import UDCService, WeightedFairShare
    from repro.core.telemetry import Telemetry
    from repro.gateway import GatewayConfig, UDCGateway
    from repro.hardware.topology import DatacenterSpec, build_datacenter

    # The ``udc gateway`` defaults: fair policy, one cell, telemetry on.
    service = UDCService(
        build_datacenter(DatacenterSpec(pods=GATEWAY["pods"],
                                        racks_per_pod=GATEWAY["racks"])),
        policy=WeightedFairShare(), cells=1,
        telemetry=Telemetry(enabled=True),
    )
    gateway = UDCGateway(service, GatewayConfig(host="127.0.0.1", port=0))

    async def serve() -> None:
        _host, port = await gateway.start()
        if tracer is not None:
            tracer.reset()
        emit("ready", {"port": port})
        await gateway.wait_closed()

    events_before = service.runtime.sim._seq
    asyncio.run(serve())
    # Shutdown ends with a quiescent drain, so the in-process checks
    # (books, conservation, pools empty) apply unchanged.
    report = outcome_report(service, len(service.handles), rejected=0)
    report["peak_rss_mb"] = peak_rss_mb()
    report["counters"]["simulator.events"] = (service.runtime.sim._seq
                                              - events_before)
    if tracer is not None:
        report["spans"] = tracer.rollup()
    emit("report", report)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", choices=("inproc", "gateway"))
    parser.add_argument("--workload", choices=sorted(INPROC))
    parser.add_argument("--seed", type=int,
                        help="trace seed of an in-process workload")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="trace length relative to the workload's "
                             "fixed size (self-test only)")
    parser.add_argument("--trace-out", default=None,
                        help="install the span tracer and write spans here")
    args = parser.parse_args(argv)
    tracer = None
    if args.trace_out:
        tracer = tracing.Tracer()
        tracer.install()
    if args.mode == "inproc":
        if args.workload is None or args.seed is None:
            parser.error("inproc needs --workload and --seed")
        run_inproc(args.workload, args.seed, args.scale, tracer)
    else:
        run_gateway(tracer)
    if tracer is not None:
        tracer.dump(args.trace_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
