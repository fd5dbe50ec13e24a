"""UDC repo benchmark: end-to-end metrics per workload, or a traced run.

    python3 udcbench/run.py --workload serve-trace --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each repetition spawns a fresh
system-under-test process (``udcbench/sut.py``) and gives it a fixed
amount of work; repetitions cycle through three traces derived from the
seed until ``--seconds`` is spent.  Wall-clock metrics are medians over
repetitions (latency percentiles over their pooled samples); the
deterministic metrics are the mean over the three traces.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` is the
separate traced run: it alternates untraced and traced repetitions,
reports per-layer counts and self times from the traced ones, the
tracing overhead, and checks that tracing changed no deterministic
output.  Either way the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from client import GatewayLoad, TransportError  # noqa: E402
from sut import quantile  # noqa: E402
from tracer import LAYERS, layer_totals  # noqa: E402
from workloads import GATEWAY, WORKLOADS  # noqa: E402

#: (name, unit) of every end-to-end metric, as in BENCHMARK.json
END_TO_END = (
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("billed_usd_per_completion", "USD"),
    ("jain", "ratio"),
    ("sim_makespan_mean_s", "sim_s"),
    ("sim_makespan_p95_s", "sim_s"),
)

#: end-to-end metrics that are a pure function of the seed
DETERMINISTIC = ("billed_usd_per_completion", "jain", "sim_makespan_mean_s",
                 "sim_makespan_p95_s")

#: (name, unit) of every per-layer metric of the traced run
PER_LAYER = (
    ("tuner.review_calls", "count"),
    ("tuner.review_ms", "ms"),
    ("telemetry.mean_util_ms", "ms"),
    ("telemetry.samples_retained", "count"),
    ("telemetry.spans_retained", "count"),
    ("telemetry.events_retained", "count"),
    ("metrics.to_dict_calls", "count"),
    ("metrics.to_dict_ms", "ms"),
    ("runtime.collect_ms", "ms"),
    ("dag.task_graph_calls", "count"),
    ("dag.task_graph_ms", "ms"),
    ("gateway.span_events_per_result", "count"),
    ("gateway.stream_bytes_per_result", "bytes"),
    ("gateway.ticks", "count"),
    ("gateway.tick_busy_ms", "ms"),
    ("gateway.requests", "count"),
    ("gateway.shed", "count"),
    ("service.submit_calls", "count"),
    ("service.submit_ms", "ms"),
    ("analysis.lint_calls", "count"),
    ("analysis.lint_ms", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("dispatch.rounds", "count"),
    ("dispatch.round_ms_p50", "ms"),
    ("dispatch.round_ms_p95", "ms"),
    ("dispatch.batch_mean", "count"),
    ("router.spills", "count"),
    ("scheduler.place_calls", "count"),
    ("scheduler.place_ms", "ms"),
    ("scheduler.placed_ratio", "ratio"),
    ("scheduler.admission_retries", "count"),
    ("scheduler.unplaceable", "count"),
    ("simulator.events", "count"),
    ("simulator.run_ms", "ms"),
    ("simulator.us_per_event", "us"),
    ("runtime.retries", "count"),
    ("runtime.recoveries", "count"),
    ("runtime.preemptions", "count"),
    ("warmpool.hit_ratio", "ratio"),
    ("import.repro_ms", "ms"),
    ("client.cpu_share", "ratio"),
    ("client.lag_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
) + tuple(
    metric for layer in LAYERS
    for metric in ((f"{layer}.calls", "count"), (f"{layer}.self_ms", "ms"))
)

#: seconds one SUT process may take before the run is abandoned
REP_TIMEOUT_S = 120.0
#: traces one run cycles through, all derived from its seed: averaging
#: over several traces keeps one trace's quirks out of the run's figures
TRACES_PER_RUN = 3


def sut_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _timed_out(_signum, _frame):
    raise RuntimeError(f"system under test ran over {REP_TIMEOUT_S:g} s")


@contextlib.contextmanager
def sut_process(args):
    """Run one SUT process; yields (process, spawn time).

    The process is always waited for: killed if the body raised, and
    checked for a zero exit status otherwise."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "sut.py")] + args,
        stdout=subprocess.PIPE, text=True, env=sut_env(), cwd=ROOT,
    )
    # An alarm, not a watchdog thread: the runner doubles as the
    # gateway client, which must stay single-threaded.
    signal.signal(signal.SIGALRM, _timed_out)
    signal.setitimer(signal.ITIMER_REAL, REP_TIMEOUT_S)
    try:
        yield proc, started
        proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        proc.stdout.close()
    if proc.returncode != 0:
        raise RuntimeError(f"system under test exited {proc.returncode}")


def read_message(proc, kind: str):
    """Next ``{kind: ...}`` line from the SUT, or an error."""
    line = proc.stdout.readline()
    if not line:
        raise RuntimeError(f"system under test exited before '{kind}'")
    message = json.loads(line)
    if kind not in message:
        raise RuntimeError(f"expected '{kind}' from the SUT, got {line!r}")
    return message[kind]


def trace_path(workload: str) -> str:
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    return os.path.join(out, f"spans-{workload}.json")


def run_inproc_rep(workload: str, seed: int, scale: float, traced: bool):
    args = ["inproc", "--workload", workload, "--seed", str(seed),
            "--scale", repr(scale)]
    if traced:
        args += ["--trace-out", trace_path(workload)]
    with sut_process(args) as (proc, started):
        read_message(proc, "ready")
        setup_s = time.perf_counter() - started
        report = read_message(proc, "report")
    report["setup_s"] = setup_s
    report["failed"] = (report["unplaceable"] + report["rejected"]
                        + report["abandoned"])
    return report


def run_gateway_rep(seed: int, scale: float, traced: bool):
    args = ["gateway"]
    if traced:
        args += ["--trace-out", trace_path("gateway-stream")]
    with sut_process(args) as (proc, started):
        port = read_message(proc, "ready")["port"]
        load = GatewayLoad(port, tenants=GATEWAY["tenants"],
                           window=GATEWAY["window"],
                           results=max(GATEWAY["tenants"],
                                       int(GATEWAY["results"] * scale)),
                           seed=seed)
        try:
            load.setup()
            setup_s = time.perf_counter() - started
            stream = load.run()
            try:
                gateway = load.gateway_counters()
                load.shutdown()
            except TransportError:
                gateway = {}
                stream["transport_errors"] += 1
        finally:
            load.close()
        report = read_message(proc, "report")

    results = stream["done"]
    checks = list(report["checks"])
    if stream["transport_errors"]:
        checks.append(f"{stream['transport_errors']} transport error(s)")
    if stream["missing_results"]:
        checks.append(f"{stream['missing_results']} seq(s) without exactly "
                      f"one result event")
    if stream["order_errors"]:
        checks.append(f"{stream['order_errors']} event_seq gap(s) or "
                      f"duplicate event(s)")
    if results != report["completed"]:
        checks.append(f"client saw {results} results, the service "
                      f"completed {report['completed']}")
    report.update({
        "setup_s": setup_s,
        "attempted": stream["submitted"],
        "failed": stream["failed"] + stream["transport_errors"]
        + stream["missing_results"],
        "checks": checks,
        "wall_s": stream["wall_s"],
        "throughput_per_s": results / stream["wall_s"],
        "latencies_ms": [1e3 * latency for latency in stream["latencies"]],
    })
    per_result = max(results, 1)
    report["counters"].update({
        "gateway.span_events_per_result": stream["span_events"] / per_result,
        "gateway.stream_bytes_per_result":
            stream["stream_bytes"] / per_result,
        "gateway.ticks": gateway.get("ticks", 0.0),
        "gateway.tick_busy_ms": 1e3 * gateway.get("tick_busy_s", 0.0),
        "gateway.requests": gateway.get("requests", 0.0),
        "gateway.shed": gateway.get("shed", 0.0),
        "client.cpu_share": stream["client_cpu_share"],
        "client.lag_ms": stream["client_lag_ms"],
    })
    return report


def run_rep(workload: str, seed: int, scale: float, traced: bool = False):
    if workload == "gateway-stream":
        return run_gateway_rep(seed, scale, traced)
    return run_inproc_rep(workload, seed, scale, traced)


def trace_seed(seed: int, rep: int) -> int:
    """Seed of repetition ``rep``'s trace: the run cycles through
    ``TRACES_PER_RUN`` traces, so repetition k and k + 3 replay the same."""
    return seed * TRACES_PER_RUN + rep % TRACES_PER_RUN


def repeat_until(seconds: float, make_rep, minimum: int):
    """Call ``make_rep(k)`` for k = 0, 1, ... until the next call would
    overrun ``seconds`` (but at least ``minimum`` times)."""
    start = time.perf_counter()
    reps, longest = [], 0.0
    while True:
        began = time.perf_counter()
        reps.append(make_rep(len(reps)))
        longest = max(longest, time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        if len(reps) >= minimum and elapsed + longest > seconds:
            return reps


def median_of(reps, key):
    return statistics.median(rep[key] for rep in reps)


# ----------------------------------------------------------------- timed run


def timed_run(workload: str, seed: int, seconds: float, scale: float):
    # One more repetition than traces, so at least one trace is
    # replayed twice and determinism is checked.
    reps = repeat_until(
        seconds,
        lambda k: run_rep(workload, trace_seed(seed, k), scale),
        TRACES_PER_RUN + 1,
    )
    checks = [check for rep in reps for check in rep["checks"]]
    if workload != "gateway-stream":
        for k in range(TRACES_PER_RUN):
            if len({rep["digest"] for rep in reps[k::TRACES_PER_RUN]}) != 1:
                checks.append(f"deterministic outputs differ across "
                              f"replays of trace seed {trace_seed(seed, k)}")
    # Latency percentiles pool every repetition's samples: a tail
    # percentile of one repetition rests on too few samples.
    pooled = sorted(sample for rep in reps for sample in rep["latencies_ms"])
    values = {"latency_p50_ms": quantile(pooled, 0.50),
              "latency_p99_ms": quantile(pooled, 0.99)}
    # Deterministic metrics: the mean over the run's traces, the same
    # on every run of the seed however many repetitions fit.
    for name in DETERMINISTIC:
        values[name] = statistics.mean(
            rep[name] for rep in reps[:TRACES_PER_RUN])
    metrics = {name: values[name] if name in values
               else median_of(reps, name) for name, _unit in END_TO_END}
    return {
        "correct": not checks,
        "checks": checks,
        "attempted": sum(rep["attempted"] for rep in reps),
        "failed": sum(rep["failed"] for rep in reps),
        "reps": len(reps),
        "metrics": metrics,
        "units": dict(END_TO_END),
    }


# ---------------------------------------------------------------- traced run


def import_ms(samples: int = 3) -> float:
    """Median ``import repro`` time in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import repro; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(samples):
        out = subprocess.run([sys.executable, "-c", code], env=sut_env(),
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=REP_TIMEOUT_S, check=True)
        times.append(float(out.stdout.strip()) * 1e3)
    return statistics.median(times)


def layer_metrics(rep) -> dict:
    """Per-layer metrics of one traced repetition."""
    spans = rep["spans"]
    counters = rep["counters"]

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def total_ms(name):
        return spans.get(name, {}).get("total_ns", 0) / 1e6

    place_calls = calls("scheduler.place_tasks")
    place_raised = spans.get("scheduler.place_tasks", {}).get("raised", 0)
    rounds = spans.get("dispatch.round", {})
    events = counters.get("simulator.events", 0)
    sim_self_ns = sum(row["self_ns"] for name, row in spans.items()
                      if name.startswith("simulator."))
    values = {
        "tuner.review_calls": calls("tuner.review"),
        "tuner.review_ms": total_ms("tuner.review"),
        "telemetry.mean_util_ms": total_ms("telemetry.mean_util"),
        "metrics.to_dict_calls": calls("metrics.to_dict"),
        "metrics.to_dict_ms": total_ms("metrics.to_dict"),
        "runtime.collect_ms": total_ms("runtime.collect"),
        "dag.task_graph_calls": calls("dag.task_graph"),
        "dag.task_graph_ms": total_ms("dag.task_graph"),
        "service.submit_calls": calls("service.submit"),
        "service.submit_ms": total_ms("service.submit"),
        "analysis.lint_calls": calls("analysis.lint"),
        "analysis.lint_ms": total_ms("analysis.lint"),
        "dispatch.round_ms_p50": rounds.get("p50_ns", 0) / 1e6,
        "dispatch.round_ms_p95": rounds.get("p95_ns", 0) / 1e6,
        "scheduler.place_calls": place_calls,
        "scheduler.place_ms": total_ms("scheduler.place_tasks"),
        "scheduler.placed_ratio": (1.0 - place_raised / place_calls
                                   if place_calls else 0.0),
        "scheduler.admission_retries": calls("scheduler.admission_retry"),
        "simulator.run_ms": total_ms("simulator.run"),
        "simulator.us_per_event": (sim_self_ns / 1e3 / events
                                   if events else 0.0),
    }
    for layer, row in layer_totals(spans).items():
        values[f"{layer}.calls"] = row["calls"]
        values[f"{layer}.self_ms"] = row["self_ms"]
    # Layers a workload does not use read 0 (gateway.* in-process).
    return {name: values.get(name, counters.get(name, 0.0))
            for name, _unit in PER_LAYER}


def traced_run(workload: str, seed: int, seconds: float, scale: float):
    started = time.perf_counter()
    repro_ms = import_ms()
    pairs = repeat_until(
        seconds - (time.perf_counter() - started),
        lambda k: (run_rep(workload, trace_seed(seed, k), scale),
                   run_rep(workload, trace_seed(seed, k), scale,
                           traced=True)),
        1,
    )
    untraced = [plain for plain, _traced in pairs]
    traced = [rep for _plain, rep in pairs]
    checks = [check for rep in untraced + traced for check in rep["checks"]]
    for plain, rep in pairs:
        if workload == "gateway-stream":
            # Live ticks land submissions at wall-clock-dependent
            # simulated instants, so costs and makespans may differ in
            # the last float digits; the outcome per tenant may not.
            same = (plain["completed_by_tenant"] == rep["completed_by_tenant"]
                    and all(math.isclose(plain[k], rep[k], rel_tol=1e-9)
                            for k in DETERMINISTIC))
        else:
            same = plain["digest"] == rep["digest"]
        if not same:
            checks.append("traced and untraced deterministic outputs differ")
    per_rep = [layer_metrics(rep) for rep in traced]
    metrics = {name: statistics.median(values[name] for values in per_rep)
               for name, _unit in PER_LAYER}
    metrics["import.repro_ms"] = repro_ms
    metrics["trace.overhead_ratio"] = (median_of(untraced, "throughput_per_s")
                                       / median_of(traced, "throughput_per_s"))
    return {
        "correct": not checks,
        "checks": checks,
        "attempted": sum(rep["attempted"] for rep in untraced + traced),
        "failed": sum(rep["failed"] for rep in untraced + traced),
        "reps": len(pairs),
        "metrics": metrics,
        "units": dict(PER_LAYER),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="work per repetition relative to the "
                             "workload's fixed size (self-test only)")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("udcbench: no src/repro beside udcbench/; run it from the "
              "root of a repository checkout", file=sys.stderr)
        return 2
    run = traced_run if args.trace else timed_run
    try:
        result = run(args.workload, args.seed, args.seconds, args.scale)
    except (RuntimeError, TransportError, OSError, ValueError) as exc:
        print(f"udcbench: {args.workload} failed: {exc}", file=sys.stderr)
        return 1
    for check in result["checks"]:
        print(f"CHECK FAILED: {check}")
    print(f"{args.workload} seed {args.seed}: {result['reps']} repetition(s)"
          f"{' (traced/untraced pairs)' if args.trace else ''}, "
          f"{result['attempted']} attempted, {result['failed']} failed")
    units = result["units"]
    for name, value in result["metrics"].items():
        print(f"  {name:<34} {value:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
