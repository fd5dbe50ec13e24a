"""E22 — user-defined resilience policies under gray failures.

Six parallel workers read a shared dataset while a deterministic fault
schedule plays out: one worker's device becomes an 8x straggler, a fabric
partition stalls cross-rack transfers, and one worker crashes (with
repair).  The same application runs under five policy configurations —
no policy, retry-only, hedge-only, deadline-only, and all three — and the
table compares makespan, tail (slowest worker's wall time), cost, and the
policy counters.

Expected shape: crash-stop alone is absorbed by every config (the
provider's default recovery loop), but the *gray* straggler is only
absorbed by hedging — the speculative duplicate on a healthy device cuts
the tail by several multiples at a quantified cost premium.  A deadline
without a hedge converts the straggler into an SLO violation (the worker
is abandoned); retry alone never fires on a straggler because nothing
crashes.  The whole schedule is seeded: the same seed yields a
byte-identical JSON summary, which the determinism assertion checks.
"""

import json

import pytest

from repro.appmodel.annotations import AppBuilder
from repro.core.runtime import UDCRuntime
from repro.hardware.fabric import Location
from repro.hardware.topology import DatacenterSpec, build_datacenter
from repro.simulator.rng import RngRegistry

from _util import print_table

WORK = 30.0          # seconds of compute per worker on 1 CPU core
N_WORKERS = 6
SLOW_FACTOR = 8.0
DEADLINE_S = 90.0    # comfortably above 1x work, far below 8x work
SPEC = DatacenterSpec(pods=1, racks_per_pod=4)

POLICIES = {
    "baseline": {},
    "retry": {"retry": {"max_attempts": 4, "base_backoff_s": 0.2}},
    "hedge": {"hedge": {"latency_factor": 1.5}},
    "deadline": {"deadline_s": DEADLINE_S},
    "full": {"retry": {"max_attempts": 4, "base_backoff_s": 0.2},
             "hedge": {"latency_factor": 1.5},
             "deadline_s": DEADLINE_S},
}


def worker_app():
    app = AppBuilder("e22")
    dataset = app.data("ds", size_gb=1.0)
    for index in range(N_WORKERS):
        # max_parallelism=1 keeps the wall time at WORK regardless of the
        # over-allocation below.
        @app.task(name=f"w{index}", work=WORK, max_parallelism=1)
        def work(ctx, _i=index):
            return f"w{_i}"

        app.reads(f"w{index}", dataset, bytes_per_run=4 << 20)
    return app.build()


def definition_for(policy: dict) -> dict:
    # amount=17 of a 32-core device: over half, so best-fit cannot pack
    # two workers onto one device — each worker (and each hedge) gets a
    # device of its own, and the straggler fault hits exactly one worker.
    spec = {}
    for index in range(N_WORKERS):
        spec[f"w{index}"] = {
            "resource": {"device": "cpu", "amount": 17},
            "distributed": dict(policy),
        }
    return spec


def run_config(name: str, seed: int = 0):
    """One seeded run under POLICIES[name] and the shared fault schedule."""
    runtime = UDCRuntime(build_datacenter(SPEC), rng=RngRegistry(seed))
    submission = runtime.submit(worker_app(), definition_for(POLICIES[name]))
    # The deterministic chaos schedule (mirrors `udc chaos --faults`):
    runtime.injector.slow_at(2.0, "fd:w3", factor=SLOW_FACTOR)
    runtime.injector.partition_at(1.0, Location(0, 0), Location(0, 1),
                                  duration_s=40.0, stall_s=5.0)
    runtime.injector.fail_at(5.0, "fd:w1", repair_after=2.0)
    runtime.drain()
    return submission.result


def summarize(result):
    tail = max(row.wall_s for row in result.rows if row.kind == "task")
    return {
        "makespan_s": result.makespan_s,
        "tail_s": tail,
        "cost": result.total_cost,
        # the straggler's bill vs an unaffected worker's: the hedge
        # premium shows up as w3 paying for two overlapping allocations
        "straggler_cost": result.row("w3").cost,
        "healthy_cost": result.row("w0").cost,
        "completed": len(result.outputs),
        "retries": result.total_retries,
        "hedges": result.total_hedges,
        "slo_miss": result.slo_violations,
    }


def sweep():
    return {name: summarize(run_config(name)) for name in POLICIES}


def test_e22_resilience_policies(benchmark):
    stats = benchmark(sweep)
    print_table(
        f"E22 — resilience policies vs gray faults ({N_WORKERS} workers, "
        f"{SLOW_FACTOR:g}x straggler + partition + crash)",
        ["config", "makespan_s", "tail_s", "cost_$", "w3_cost_$", "done",
         "retries", "hedges", "slo_miss"],
        [(name, s["makespan_s"], s["tail_s"], s["cost"], s["straggler_cost"],
          s["completed"], s["retries"], s["hedges"], s["slo_miss"])
         for name, s in stats.items()],
    )
    base, hedge = stats["baseline"], stats["hedge"]
    deadline, full = stats["deadline"], stats["full"]

    # Everyone survives the crash (default recovery), so completion only
    # differs where a deadline abandons the straggler.
    assert base["completed"] == N_WORKERS
    assert base["slo_miss"] == 0

    # Hedging absorbs the straggler: the duplicate on a healthy device
    # cuts the tail by multiples...
    assert hedge["hedges"] >= 1
    assert hedge["tail_s"] < 0.6 * base["tail_s"]
    assert hedge["completed"] == N_WORKERS
    # ...at a quantified per-module premium: the straggler pays for two
    # overlapping allocations (primary until cancellation + the hedge),
    # so its bill exceeds an unaffected worker's.
    assert hedge["straggler_cost"] > 1.3 * hedge["healthy_cost"]
    # End to end, hedging is still CHEAPER than the baseline: cancelling
    # the straggler stops its meter ~6x earlier, which more than pays for
    # the duplicate.  Pay-per-use billing makes speculation nearly free.
    assert hedge["cost"] < base["cost"]

    # A deadline without a hedge turns the straggler into an SLO miss.
    assert deadline["slo_miss"] == 1
    assert deadline["completed"] == N_WORKERS - 1
    assert deadline["makespan_s"] < base["makespan_s"]

    # All three policies together: everything completes, nothing misses
    # its SLO, and the tail matches the hedge-only win.
    assert full["completed"] == N_WORKERS
    assert full["slo_miss"] == 0
    assert full["tail_s"] < 0.6 * base["tail_s"]

    # Retry alone cannot absorb a gray failure — nothing crashes on the
    # straggler's device, so its tail stays within noise of the baseline.
    assert stats["retry"]["tail_s"] > 0.9 * base["tail_s"]


def test_e22_no_span_left_running():
    """Every span a policy opens (attempts, recoveries, hedges and their
    phases) is closed by the time the run drains."""
    for name in POLICIES:
        spans = run_config(name).telemetry.spans
        assert [s for s in spans if s.status == "running"] == [], name


def test_e22_deterministic_given_seed():
    """Same seed -> byte-identical run summary; different seed diverges
    somewhere in the retry jitter (backoff timing), not necessarily in
    the aggregate counters."""
    first = json.dumps(run_config("full", seed=7).to_json_dict(),
                       sort_keys=True)
    second = json.dumps(run_config("full", seed=7).to_json_dict(),
                        sort_keys=True)
    assert first == second
