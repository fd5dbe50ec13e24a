"""``udc`` — command-line front door to the UDC runtime.

Subcommands:

* ``udc run APP.json [--spec SPEC.json] [...]`` — load a serialized IR
  program, apply a declarative aspect spec, execute it on a simulated
  datacenter, and print the run report (optionally a Gantt timeline and a
  fulfillment audit);
* ``udc profile APP.json`` — dry-run every task module across its
  candidate hardware and print the measurements (§3.2's tooling);
* ``udc autosize APP.json [--latency S]`` — emit a resource-aspect spec
  inferred from dry runs, ready to pass back to ``udc run --spec``;
* ``udc catalog DEMANDS.json`` — price a demand list against the 2021
  instance catalog vs UDC exact billing (the E1 arithmetic);
* ``udc chaos APP.json --faults FAULTS.json`` — run a program under a
  deterministic fault schedule (crashes, stragglers, fabric partitions,
  warm-pool exhaustion) and report how the declared resilience policies
  absorbed it (the E22 harness);
* ``udc trace APP.json`` — execute and print the hierarchical trace-span
  tree (schedule → allocate → env-acquire → execute → retry/hedge), plus
  an optional span-painted Gantt chart;
* ``udc metrics APP.json`` — execute and print the run's metrics registry
  as a Prometheus text snapshot or JSON;
* ``udc serve [--tenants N] [--policy fair|fifo]`` — replay a generated
  multi-tenant submission stream through the serving layer
  (:class:`~repro.service.UDCService`) and print per-tenant rollups,
  Jain's fairness index, and result-cache statistics;
* ``udc gateway [--port P] [--cells N]`` — serve the control plane over
  HTTP/1.1 + WebSocket (:class:`~repro.gateway.UDCGateway`): REST
  submission, streaming lifecycle events, bounded worker pool, and
  fair-share load shedding; ``--smoke`` runs an embedded closed-loop
  load generator and exits (the CI smoke path);
* ``udc lint [APP.json] --spec SPEC.json`` — statically analyze a
  definition (conflicts, feasibility vs the datacenter, DAG structure,
  information flow) without executing anything; ``--json`` emits a
  byte-deterministic report, exit 2 on error-severity findings; ``-``
  reads the app (or a ``modularize --json`` payload) from stdin;
* ``udc modularize SOURCE.py`` — compile a legacy single-file Python
  program (AST only, never executed) into a module DAG + definition
  that passes ``udc lint`` with zero findings (§4's module-cutter,
  claim C11); ``--json`` emits the byte-deterministic
  app+definition+report payload for piping into ``udc lint -``;
* ``udc record --workload NAME --journal J.jsonl`` — execute a named
  deterministic workload, journaling every control-plane event, with
  optional cadenced snapshots and a crash injector (``--crash-at N``
  exits 3 with the journal durable through event N);
* ``udc replay J.jsonl [--until N] [--resume]`` — re-execute a journal
  (config comes from its header), verifying every recorded fingerprint;
  ``--resume`` restarts a crashed run from the newest snapshot plus a
  journal-tail replay and finishes it — byte-identical to an
  uninterrupted run (exit 2 on divergence);
* ``udc bisect A.jsonl [B.jsonl]`` — binary-search two journals (or one
  journal against fresh re-execution) to the first divergent event id
  (exit 4 when a divergence is found).

All input formats are documented in each handler's docstring; everything
is plain JSON so non-Python frontends can target the same entry points.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.appmodel.loader import load_program_file
from repro.core.autosize import autosize
from repro.core.runtime import UDCRuntime
from repro.core.timeline import ascii_gantt, render_span_tree, span_gantt
from repro.core.verify import verify_run
from repro.execenv.attestation import Verifier
from repro.execenv.warmpool import WarmPool
from repro.hardware.topology import DatacenterSpec, build_datacenter
from repro.service import (
    BudgetExceeded,
    FifoAdmission,
    TenantSpec,
    UDCService,
    WeightedFairShare,
)
from repro.workloads.tenants import default_tenant_profiles, generate_tenant_trace

__all__ = ["main"]


def _build_dc(args) -> "object":
    return build_datacenter(
        DatacenterSpec(pods=args.pods, racks_per_pod=args.racks)
    )


def _add_dc_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--pods", type=int, default=1,
                        help="datacenter pods (default 1)")
    parser.add_argument("--racks", type=int, default=4,
                        help="racks per pod (default 4)")


def _add_cells_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cells", type=int, default=1,
                        help="placement cells to shard the datacenter "
                             "into (default 1: the global scheduler)")


def cmd_run(args) -> int:
    """Execute an IR program.

    ``APP.json`` is :meth:`IRProgram.to_dict` output; ``--spec`` is the
    declarative definition format of :func:`repro.core.spec.parse_definition`.
    """
    dag = load_program_file(args.app)
    definition = None
    if args.spec:
        with open(args.spec, "r", encoding="utf-8") as handle:
            definition = json.load(handle)
    runtime = UDCRuntime(
        _build_dc(args),
        warm_pool=WarmPool(enabled=args.warm),
        prewarm=args.warm,
    )
    result = runtime.run(dag, definition, tenant=args.tenant)
    print(result.format_table())
    if args.timeline:
        print()
        print(ascii_gantt(result))
    if args.verify:
        report = verify_run(result.objects, result.records,
                            Verifier(runtime.root_of_trust))
        print(f"\nfulfillment: {len(report.attested)} attested, "
              f"{len(report.trusted)} trusted, "
              f"{len(report.violated)} violated")
        for check in report.violated:
            print(f"  VIOLATED {check.module}.{check.prop}: promised "
                  f"{check.promised}, provided {check.provided}")
        return 0 if report.ok else 2
    return 0


def cmd_plan(args) -> int:
    """Placement preview: where would this app land, and at what burn rate
    (no execution, no allocations left behind)."""
    dag = load_program_file(args.app)
    definition = None
    if args.spec:
        with open(args.spec, "r", encoding="utf-8") as handle:
            definition = json.load(handle)
    runtime = UDCRuntime(_build_dc(args))
    rows = runtime.plan(dag, definition, tenant=args.tenant)
    for row in rows:
        if row["kind"] == "data":
            print(f"{row['module']:<12} data  {row['replicas']} replica(s) "
                  f"on {', '.join(row['devices'])}  "
                  f"${row['hourly_cost']:.4f}/h"
                  + ("  [anti-affinity degraded]"
                     if row["anti_affinity_degraded"] else ""))
        else:
            tenancy = " single-tenant" if row["single_tenant"] else ""
            print(f"{row['module']:<12} task  {row['amount']:g} x "
                  f"{row['device_type']} in {row['env']}{tenancy} "
                  f"on {', '.join(row['devices'])}  "
                  f"${row['hourly_cost']:.4f}/h")
    total = sum(row["hourly_cost"] for row in rows)
    print(f"\ntotal burn rate while deployed: ${total:.4f}/h")
    return 0


def cmd_inspect(args) -> int:
    """Describe an IR program: modules, stages, locality relationships."""
    dag = load_program_file(args.app)
    print(f"application: {dag.name}")
    print(f"modules: {len(dag.tasks)} tasks, {len(dag.data_modules)} data")
    for depth, stage in enumerate(dag.task_stages()):
        print(f"  stage {depth}: {', '.join(stage)}")
    for group in dag.merged_colocation_groups():
        print(f"  co-located: {' ~ '.join(sorted(group))}")
    for (task_name, data_name), weight in sorted(dag.affinities.items()):
        print(f"  affinity: {task_name} <-> {data_name} "
              f"({weight / (1 << 20):.1f} MB/run)")
    for edge in dag.edges:
        print(f"  edge: {edge.src} -> {edge.dst} "
              f"({edge.bytes_transferred} B)")
    return 0


def cmd_profile(args) -> int:
    """Dry-run profile every task module (work x candidate hardware)."""
    from repro.core.profiler import DryRunProfiler

    dag = load_program_file(args.app)
    profiler = DryRunProfiler()
    for task in dag.tasks:
        result = profiler.profile(task)
        print(f"{task.name}:")
        for entry in sorted(result.entries,
                            key=lambda e: (e.device_type.value, e.amount)):
            print(f"  {entry.amount:g} x {entry.device_type.value:<5} "
                  f"-> {entry.wall_seconds:10.4f}s  ${entry.cost:.6f}  "
                  f"util {entry.utilization:.0%}")
    return 0


def cmd_autosize(args) -> int:
    """Infer resource aspects from dry runs; prints a spec JSON."""
    dag = load_program_file(args.app)
    definition = autosize(
        dag,
        end_to_end_latency_s=args.latency,
        optimize=args.optimize,
    )
    spec = {
        name: {
            "resource": {
                "device": bundle.resource.device.value,
                "amount": bundle.resource.amount,
            }
        }
        for name, bundle in definition.bundles.items()
        if bundle.resource is not None
    }
    json.dump(spec, sys.stdout, indent=2)
    print()
    return 0


def cmd_catalog(args) -> int:
    """Price demands: ``DEMANDS.json`` is a list of
    ``{"cpus": .., "mem_gb": .., "gpus": .., "duty": ..}`` objects."""
    from repro.baselines.iaas import IaasCloud, udc_exact_hourly_cost
    from repro.hardware.catalog import default_catalog
    from repro.hardware.server import WorkloadDemand

    with open(args.demands, "r", encoding="utf-8") as handle:
        raw = json.load(handle)
    demands = [
        WorkloadDemand(
            cpus=float(d.get("cpus", 0)),
            mem_gb=float(d.get("mem_gb", 0)),
            gpus=float(d.get("gpus", 0)),
            duty=float(d.get("duty", 1.0)),
            name=str(d.get("name", f"job-{i}")),
        )
        for i, d in enumerate(raw)
    ]
    cloud = IaasCloud(default_catalog()).provision_all(demands)
    for allocation in cloud.allocations:
        print(f"{allocation.demand.name:<16} -> {allocation.instance.name:<16}"
              f" ${allocation.hourly_cost:8.3f}/h  "
              f"waste {allocation.waste_fraction:.0%}")
    for demand in cloud.unplaceable:
        print(f"{demand.name:<16} -> (no instance fits)")
    print(f"\nIaaS total: ${cloud.total_hourly_cost:.2f}/h   "
          f"UDC exact: ${udc_exact_hourly_cost(demands):.2f}/h   "
          f"waste {cloud.mean_waste_fraction:.1%}")
    return 0


def _apply_faults(runtime, faults: list, problems: List[str]) -> None:
    """Schedule each fault entry against the runtime's injector.

    Entries are dicts with a ``kind`` and kind-specific fields (see
    :func:`cmd_chaos`); malformed entries are collected into ``problems``
    rather than aborting mid-schedule.
    """
    from repro.hardware.fabric import Location

    injector = runtime.injector
    for index, fault in enumerate(faults):
        if not isinstance(fault, dict):
            problems.append(f"fault[{index}]: must be a mapping")
            continue
        kind = str(fault.get("kind", "crash"))
        try:
            if kind == "crash":
                injector.fail_at(
                    float(fault["at"]), str(fault["domain"]),
                    repair_after=(
                        float(fault["repair_after"])
                        if fault.get("repair_after") is not None else None
                    ),
                )
            elif kind == "slow":
                injector.slow_at(
                    float(fault["at"]), str(fault["domain"]),
                    factor=float(fault.get("factor", 4.0)),
                    duration_s=(
                        float(fault["duration_s"])
                        if fault.get("duration_s") is not None else None
                    ),
                )
            elif kind == "partition":
                pod_a, rack_a = fault["a"]
                pod_b, rack_b = fault["b"]
                injector.partition_at(
                    float(fault["at"]),
                    Location(int(pod_a), int(rack_a)),
                    Location(int(pod_b), int(rack_b)),
                    duration_s=(
                        float(fault["duration_s"])
                        if fault.get("duration_s") is not None else None
                    ),
                    stall_s=float(fault.get("stall_s", 30.0)),
                )
            elif kind == "warm-exhaust":
                injector.exhaust_warm_pool_at(
                    float(fault["at"]),
                    duration_s=(
                        float(fault["duration_s"])
                        if fault.get("duration_s") is not None else None
                    ),
                )
            elif kind == "random":
                injector.random_failures(
                    [str(d) for d in fault["domains"]],
                    horizon_s=float(fault["horizon_s"]),
                    mtbf_s=float(fault["mtbf_s"]),
                    repair_after=(
                        float(fault["repair_after"])
                        if fault.get("repair_after") is not None else None
                    ),
                )
            else:
                problems.append(
                    f"fault[{index}]: unknown kind {kind!r} (expected "
                    f"crash/slow/partition/warm-exhaust/random)"
                )
        except KeyError as exc:
            problems.append(f"fault[{index}] ({kind}): missing field {exc}")
        except (TypeError, ValueError) as exc:
            problems.append(f"fault[{index}] ({kind}): {exc}")


def cmd_chaos(args) -> int:
    """Execute an IR program under a deterministic fault schedule.

    ``--faults FAULTS.json`` is a list of fault entries::

        [
          {"at": 5.0, "kind": "crash", "domain": "fd:job",
           "repair_after": 10.0},
          {"at": 5.0, "kind": "slow", "domain": "fd:job", "factor": 8,
           "duration_s": 60.0},
          {"at": 5.0, "kind": "partition", "a": [0, 0], "b": [0, 1],
           "stall_s": 30.0, "duration_s": 60.0},
          {"at": 5.0, "kind": "warm-exhaust", "duration_s": 120.0},
          {"kind": "random", "domains": ["fd:job"], "horizon_s": 1000,
           "mtbf_s": 200, "repair_after": 30.0}
        ]

    Task failure domains are named ``fd:<module>``.  The same ``--seed``
    always produces the same run (the determinism the E22 benchmark
    asserts); resilience aspects in ``--spec`` (retry/hedge/deadline_s)
    determine how much of the schedule the application survives.
    """
    from repro.simulator.rng import RngRegistry

    dag = load_program_file(args.app)
    definition = None
    if args.spec:
        with open(args.spec, "r", encoding="utf-8") as handle:
            definition = json.load(handle)
    faults = []
    if args.faults:
        with open(args.faults, "r", encoding="utf-8") as handle:
            faults = json.load(handle)
        if not isinstance(faults, list):
            print("chaos: FAULTS.json must be a list of fault entries",
                  file=sys.stderr)
            return 2
    runtime = UDCRuntime(
        _build_dc(args),
        warm_pool=WarmPool(enabled=args.warm),
        prewarm=args.warm,
        rng=RngRegistry(args.seed),
    )
    submission = runtime.submit(dag, definition, tenant=args.tenant)
    problems: List[str] = []
    _apply_faults(runtime, faults, problems)
    if problems:
        for problem in problems:
            print(f"chaos: {problem}", file=sys.stderr)
        return 2
    runtime.drain()
    result = submission.result
    if args.json:
        payload = result.to_json_dict()
        payload["faults_injected"] = len(runtime.injector.injected)
        payload["breaker_opens"] = runtime.breakers.opens
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        print()
    else:
        print(result.format_table())
        print(f"\nchaos: {len(runtime.injector.injected)} fault(s) injected"
              f"   breaker opens: {runtime.breakers.opens}"
              f"   open now: {sorted(runtime.breakers.open_keys(runtime.sim.now))}")
    return 0 if result.slo_violations == 0 else 3


def _run_observed(args):
    """Shared execute-and-return-runtime path for trace/metrics."""
    from repro.simulator.rng import RngRegistry

    dag = load_program_file(args.app)
    definition = None
    if args.spec:
        with open(args.spec, "r", encoding="utf-8") as handle:
            definition = json.load(handle)
    runtime = UDCRuntime(
        _build_dc(args),
        warm_pool=WarmPool(enabled=args.warm),
        prewarm=args.warm,
        rng=RngRegistry(args.seed),
    )
    result = runtime.run(dag, definition, tenant=args.tenant)
    return runtime, result


def cmd_trace(args) -> int:
    """Execute and print the run's trace-span tree.

    Every module's lifecycle is a root span; scheduling, allocation,
    environment acquisition, transfers, compute, retries, recovery, and
    hedges nest beneath it with phase attribution — the structured
    replacement for eyeballing the flat event log.
    """
    runtime, _result = _run_observed(args)
    telemetry = runtime.telemetry
    if args.json:
        payload = [span.to_dict() for span in telemetry.spans]
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        print()
        return 0
    print(render_span_tree(telemetry, module=args.module))
    if args.gantt:
        print()
        print(span_gantt(telemetry))
    return 0


def _metrics_sharded(args):
    """Execute the app on a cell-sharded service and return the
    aggregated registry (per-cell labels + cross-cell sums)."""
    from repro.simulator.rng import RngRegistry

    dag = load_program_file(args.app)
    definition = None
    if args.spec:
        with open(args.spec, "r", encoding="utf-8") as handle:
            definition = json.load(handle)
    service = UDCService(
        _build_dc(args), cells=args.cells,
        warm_pool=WarmPool(enabled=args.warm), prewarm=args.warm,
        rng=RngRegistry(args.seed),
    )
    service.submit(args.tenant, dag, definition)
    service.drain()
    return service.metrics_snapshot()


def cmd_metrics(args) -> int:
    """Execute and print the run's metrics snapshot.

    ``--format prom`` (default) emits the Prometheus text exposition
    format; ``--format json`` emits the registry as JSON (wall-clock
    histograms included — this snapshot is for humans and scrapers, not
    for byte-reproducible reports).
    """
    if args.cells > 1:
        registry = _metrics_sharded(args)
    else:
        runtime, _result = _run_observed(args)
        registry = runtime.metrics_snapshot()
    if args.format == "json":
        json.dump(registry.to_dict(include_wall_clock=True), sys.stdout,
                  indent=2, sort_keys=True)
        print()
    else:
        sys.stdout.write(registry.render_prometheus())
    return 0


def cmd_lint(args) -> int:
    """Statically analyze a definition against an app and a datacenter.

    ``APP.json`` (optional) is :meth:`IRProgram.to_dict` output and
    unlocks the structural, information-flow, and deadline checks;
    ``--spec`` is the declarative definition JSON.  At least one of the
    two is required.  ``-`` as the app reads a JSON payload from stdin —
    either a bare IR program, or the combined ``udc modularize --json``
    output (``{"app": ..., "definition": ...}``), whose definition is
    used unless ``--spec`` overrides it; this is what makes
    ``udc modularize app.py --json | udc lint -`` a pipeline.  Exit
    codes: 0 clean (warnings allowed unless ``--strict``), 2 on gating
    findings, 2 on unreadable inputs.
    """
    from repro.analysis import analyze_definition

    if not args.app and not args.spec:
        print("lint: nothing to analyze (give APP.json and/or --spec)",
              file=sys.stderr)
        return 2
    definition = {}
    if args.spec:
        with open(args.spec, "r", encoding="utf-8") as handle:
            definition = json.load(handle)
    dag = None
    if args.app:
        from repro.appmodel.dag import DagValidationError
        from repro.appmodel.loader import load_program

        try:
            if args.app == "-":
                payload = json.load(sys.stdin)
                ir_dict = payload.get("app", payload) \
                    if isinstance(payload, dict) else payload
                if not args.spec and isinstance(payload, dict) \
                        and "definition" in payload:
                    definition = payload["definition"]
                dag = load_program(ir_dict)
            else:
                dag = load_program_file(args.app)
        except (DagValidationError, json.JSONDecodeError, KeyError,
                TypeError, ValueError) as exc:
            print(f"lint: {args.app}: {exc}", file=sys.stderr)
            return 2
    report = analyze_definition(definition, app=dag,
                                datacenter=_build_dc(args))
    if args.json:
        json.dump(report.to_json_dict(), sys.stdout, indent=2,
                  sort_keys=True)
        print()
    else:
        print(report.format_text())
    gating = report.errors if not args.strict \
        else report.errors + report.warnings
    return 2 if gating else 0


def cmd_modularize(args) -> int:
    """Compile a legacy Python source into a lint-clean UDC definition.

    ``SOURCE.py`` is analyzed statically (AST only — the file is never
    imported or executed).  The pipeline extracts the program's stores,
    functions, and data-flow graph, infers sensitivity labels, searches
    for the minimum-cross-dependency module cut, and emits an app +
    definition that passes ``udc lint`` with zero findings (the pipeline
    self-checks before printing).

    ``--json`` emits ``{"app": IR, "definition": spec, "report": ...}``
    byte-deterministically (same source + seed → identical bytes); pipe
    it into ``udc lint -``.  Exit codes mirror ``udc lint``: 0 on
    success, 2 when the source falls outside the supported subset.
    """
    from repro.analysis.program import ProgramAnalysisError, modularize

    try:
        with open(args.source, "r", encoding="utf-8") as handle:
            source = handle.read()
    except OSError as exc:
        print(f"modularize: {exc}", file=sys.stderr)
        return 2
    name = args.name or args.source.rsplit("/", 1)[-1].removesuffix(".py")
    try:
        result = modularize(source, name=name, seed=args.seed,
                            moves=args.moves, alpha=args.alpha,
                            datacenter=_build_dc(args))
    except ProgramAnalysisError as exc:
        print(f"modularize: {args.source}: {exc}", file=sys.stderr)
        return 2

    if args.json:
        sys.stdout.write(result.report_json() + "\n")
        return 0

    model, cut, taint = result.model, result.cut, result.taint
    print(f"modularize {name}: {len(model.tasks)} task(s), "
          f"{len(model.stores)} store(s), {len(model.drivers)} driver(s) "
          f"-> {len(cut.groups)} module(s)")
    if model.helpers:
        print(f"  inlined helpers: {', '.join(model.helpers)}")
    if model.dead:
        print(f"  dead code (not emitted): {', '.join(model.dead)}")
    if taint.raised:
        print(f"  labels raised to match writers: "
              f"{', '.join(taint.raised)}")
    print(f"  cut: cross-module traffic {cut.cross_bytes} B, "
          f"internalized {cut.internal_bytes} B, "
          f"parallel loss {cut.parallel_loss:g} work, "
          f"{cut.merges} merge(s), "
          f"{cut.moves_taken}/{cut.moves_tried} refinement move(s)")
    print("  modules:")
    for group in cut.groups:
        if group.kind == "task":
            label = taint.task_in[group.members[0]]
            task = result.emitted.dag.task(group.name)
            devices = ",".join(sorted(d.value for d in
                                      task.device_candidates))
            extra = " sanitizer" if task.sanitizer else ""
            print(f"    task  {group.name}  [{devices}]  "
                  f"label={label}{extra}")
        else:
            store = result.emitted.dag.data(group.name)
            label = taint.store_label[group.members[0]]
            print(f"    data  {group.name}  {store.size_gb:g}GB"
                  f"{' hot' if store.hot else ''}  label={label}")
    print("  lint: clean (0 findings)")
    return 0


def cmd_serve(args) -> int:
    """Replay a synthetic multi-tenant stream through the serving layer.

    Generates a diurnal-skewed submission trace
    (:func:`repro.workloads.tenants.generate_tenant_trace`), registers
    each profile's fair-share weight, submits everything in arrival
    order with a dispatch round every ``--round-every`` submissions,
    drains, and prints the per-tenant rollup plus Jain's fairness index
    and result-cache statistics.
    """
    profiles = default_tenant_profiles(count=args.tenants, seed=args.seed)
    trace = generate_tenant_trace(
        profiles,
        peak_rate_per_minute=args.rate,
        horizon_s=args.minutes * 60.0,
        repeat_fraction=args.repeat_fraction,
        seed=args.seed,
    )
    policy = (WeightedFairShare() if args.policy == "fair"
              else FifoAdmission())
    service = UDCService(_build_dc(args), policy=policy, cells=args.cells,
                         autopilot=args.autopilot,
                         warm_pool=WarmPool(enabled=args.warm),
                         prewarm=args.warm)
    spot_count = int(round(args.spot_fraction * len(profiles)))
    for index, profile in enumerate(profiles):
        service.register_tenant(profile.name, TenantSpec(
            weight=profile.weight,
            goal="cheapest" if index < spot_count else None,
            budget_dollars=args.budget,
            slo_s=args.slo,
        ))
    for index, arrival in enumerate(trace.submissions, start=1):
        try:
            service.submit(arrival.tenant, arrival.dag, arrival.definition,
                           inputs=arrival.inputs)
        except BudgetExceeded:
            pass  # counted as a rejection in the tenant rollup
        if index % args.round_every == 0:
            # Each round runs to quiescence so finished results land in
            # the cache before later re-submissions of the same inputs.
            service.drain()
    service.drain()

    rollups = service.rollup()
    fairness = service.fairness_index()
    stats = service.cache_stats
    drift = service.check_budget_accounting()
    economics_on = args.autopilot or args.budget is not None
    if args.json:
        payload = {
            "policy": args.policy,
            "rounds": service.rounds,
            "fairness_completed": fairness,
            "cache": {"hits": stats.hits, "misses": stats.misses,
                      "evictions": stats.evictions,
                      "hit_rate": stats.hit_rate},
            "tenants": [
                {"tenant": u.tenant, "submissions": u.submissions,
                 "completed": u.completed, "cache_hits": u.cache_hits,
                 "unplaceable": u.unplaceable, "rejected": u.rejected,
                 "total_cost": round(u.total_cost, 6),
                 "cost_saved": round(u.cost_saved, 6),
                 "billed_cost": round(u.billed_cost, 6),
                 "slo_misses": u.slo_misses}
                for u in rollups
            ],
        }
        if economics_on:
            payload["economics"] = {
                "autopilot": args.autopilot,
                "preemptions": service.preemptions,
                "budget": service.budget.snapshot(),
                "accounting_drift": drift,
            }
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        print()
        return 1 if (economics_on and drift) else 0

    weights = {profile.name: profile.weight for profile in profiles}
    print(f"{len(trace)} submissions from {len(profiles)} tenants over "
          f"{args.minutes:g} min ({args.policy} admission, "
          f"{service.rounds} dispatch rounds)")
    print()
    header = (f"{'tenant':<12} {'wt':>4} {'subs':>5} {'cached':>6} "
              f"{'done':>5} {'unpl':>5} {'cost $':>10} {'saved $':>10}")
    print(header)
    print("-" * len(header))
    for usage in rollups:
        print(f"{usage.tenant:<12} {weights.get(usage.tenant, 1.0):>4g} "
              f"{usage.submissions:>5} {usage.cache_hits:>6} "
              f"{usage.completed:>5} {usage.unplaceable:>5} "
              f"{usage.total_cost:>10.4f} {usage.cost_saved:>10.4f}")
    print()
    print(f"Jain fairness (completed): {fairness:.3f}")
    print(f"Result cache: {stats.hits} hits / {stats.misses} misses "
          f"({stats.hit_rate:.1%} hit rate), {stats.evictions} evictions")
    if economics_on:
        billed = sum(u.billed_cost for u in rollups)
        misses = sum(u.slo_misses for u in rollups)
        print(f"Economics: ${billed:.4f} billed, "
              f"{service.preemptions} preemption(s), "
              f"{misses} SLO miss(es), "
              f"{spot_count}/{len(profiles)} spot tenants")
        if drift:
            print("Budget accounting drift:", file=sys.stderr)
            for line in drift:
                print(f"  {line}", file=sys.stderr)
            return 1
        print("Budget accounting: ledger and enforcer agree (zero drift)")
    return 0


def cmd_gateway(args) -> int:
    """Serve the control plane over HTTP/1.1 + WebSocket.

    Binds :class:`repro.gateway.UDCGateway` on ``--host``/``--port``
    (port 0 picks an ephemeral port and prints it) over a fresh service
    sharded into ``--cells`` placement cells.  ``--smoke`` runs an
    embedded closed-loop load generator against the freshly started
    server, prints its JSON report, optionally writes a Prometheus
    metrics snapshot (``--metrics-out``), and shuts down — the CI
    smoke path.  Without it the server runs until ``--duration``
    elapses, SIGINT, or a ``POST /v1/shutdown``.
    """
    import asyncio

    from repro.core.telemetry import Telemetry
    from repro.gateway import GatewayConfig, UDCGateway

    policy = (WeightedFairShare() if args.policy == "fair"
              else FifoAdmission())
    service = UDCService(
        _build_dc(args), policy=policy, cells=args.cells,
        telemetry=Telemetry(enabled=not args.no_telemetry),
    )
    config = GatewayConfig(
        host=args.host, port=args.port, workers=args.workers,
        max_live=args.max_live, tick_sim_s=args.tick_sim_s,
    )
    gateway = UDCGateway(service, config)

    async def run() -> int:
        host, port = await gateway.start()
        print(f"udc gateway listening on {host}:{port} "
              f"({service.cells} cell(s), workers={config.workers}, "
              f"max_live={config.max_live})", flush=True)
        if args.smoke:
            from repro.workloads.loadgen import run_closed_loop

            report = await run_closed_loop(
                host, port, tenants=args.smoke_tenants,
                total=args.smoke_total,
                duration_s=args.duration or 60.0,
            )
            if args.metrics_out:
                with open(args.metrics_out, "w", encoding="utf-8") as out:
                    out.write(gateway.metrics_text())
            await gateway.shutdown()
            json.dump(report.to_dict(), sys.stdout, indent=2,
                      sort_keys=True)
            print()
            ok = report.completed > 0 and report.errors == 0
            return 0 if ok else 2
        if args.duration:
            try:
                await asyncio.wait_for(gateway.wait_closed(),
                                       args.duration)
            except asyncio.TimeoutError:
                await gateway.shutdown()
        else:
            await gateway.wait_closed()
        if args.metrics_out:
            with open(args.metrics_out, "w", encoding="utf-8") as out:
                out.write(gateway.metrics_text())
        return 0

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:
        return 0


def _replay_runner_for(args, config=None):
    """Build a ReplayRunner either from CLI args or a journal header."""
    from repro.replay import ReplayRunner, RunConfig

    if config is None:
        params = json.loads(args.params) if args.params else {}
        config = RunConfig(
            workload=args.workload, params=params, seed=args.seed,
            pods=args.pods, racks=args.racks, policy=args.policy,
            warm=args.warm, cells=args.cells,
            autopilot=getattr(args, "autopilot", False),
        )
    return ReplayRunner(config)


def _write_report(runner, service, path: Optional[str]) -> None:
    if not path:
        return
    with open(path, "wb") as handle:
        handle.write(runner.report_bytes(service))


def cmd_record(args) -> int:
    """Execute a named workload, journaling every control-plane event.

    ``--workload`` names a :data:`repro.replay.workloads.REPLAY_WORKLOADS`
    entry; ``--params`` is its JSON parameter object.  ``--snapshot-dir``
    + ``--snapshot-every N`` snapshot the full control plane after every
    Nth event; ``--crash-at K`` kills the run right after event K's
    journal line is durable (exit 3) — ``udc replay --resume`` finishes
    it.  ``--report`` writes the canonical final-report bytes, the
    artifact crash-resume equivalence is asserted on.
    """
    from repro.replay import SimulatedCrash

    runner = _replay_runner_for(args)
    try:
        service = runner.record(
            args.journal,
            snapshot_dir=args.snapshot_dir,
            snapshot_every=args.snapshot_every,
            crash_at=args.crash_at,
        )
    except SimulatedCrash as crash:
        print(f"record: simulated crash after event {crash.eid} "
              f"(journal intact at {args.journal})")
        return 3
    _write_report(runner, service, args.report)
    print(f"record: {len(runner.script.commands)} events journaled to "
          f"{args.journal}")
    return 0


def cmd_replay(args) -> int:
    """Re-execute a journal, verifying every recorded fingerprint.

    The run config comes from the journal header — a journal is
    self-contained.  Plain replay rebuilds the journaled prefix from
    scratch (``--until N`` stops early); ``--resume`` restarts a crashed
    run from the newest loadable snapshot in ``--snapshot-dir``, replays
    the journal tail, and finishes the remaining script, appending new
    events to the same journal.  Exit 2 if replay diverges from what the
    journal recorded.
    """
    from repro.replay import (
        ReplayDivergence,
        RunConfig,
        read_journal,
    )

    config_dict, events, torn = read_journal(args.journal)
    if torn:
        print(f"replay: dropped a torn final line in {args.journal} "
              f"(crash landed mid-append)", file=sys.stderr)
    runner = _replay_runner_for(args, RunConfig.from_json_dict(config_dict))
    try:
        if args.resume:
            service = runner.resume(
                args.journal,
                snapshot_dir=args.snapshot_dir,
                snapshot_every=args.snapshot_every,
            )
            print(f"replay: resumed {args.journal} to completion "
                  f"({len(runner.script.commands)} events)")
        else:
            service, replayed = runner.replay(
                args.journal, until=args.until,
                verify=not args.no_verify,
            )
            print(f"replay: {len(replayed)} of {len(events)} journaled "
                  f"events re-executed"
                  + ("" if args.no_verify else ", fingerprints verified"))
    except ReplayDivergence as div:
        print(f"replay: DIVERGED: {div}", file=sys.stderr)
        return 2
    _write_report(runner, service, args.report)
    return 0


def cmd_bisect(args) -> int:
    """Find the first divergent event between two runs.

    With two journals, binary-searches their shared prefix.  With one
    journal, probes fresh re-executions of the header config's script
    (O(log n) prefix runs) — where did the recorded run depart from what
    its config deterministically produces?  Exit 0 when identical, 4
    when a divergence is found.
    """
    from repro.replay import (
        RunConfig,
        bisect_replay,
        first_divergence,
        read_journal,
    )

    _config_a, events_a, _ = read_journal(args.journal_a)
    if args.journal_b:
        _config_b, events_b, _ = read_journal(args.journal_b)
        divergence = first_divergence(events_a, events_b)
    else:
        runner = _replay_runner_for(
            args, RunConfig.from_json_dict(_config_a)
        )
        divergence = bisect_replay(events_a, runner.fingerprint_at)
    if divergence is None:
        print("bisect: runs are identical")
        return 0
    print(f"bisect: {divergence.describe()}")
    event = (events_a[divergence.eid] if divergence.eid < len(events_a)
             else None)
    if event is not None:
        print(f"bisect: event {event.eid} is {event.op!r} "
              f"args={json.dumps(event.args, sort_keys=True)}")
    return 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="udc",
        description="User-Defined Cloud (HotOS '21 reproduction) CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute an IR program")
    run_p.add_argument("app", help="IR program JSON (IRProgram.to_dict)")
    run_p.add_argument("--spec", help="declarative aspect spec JSON")
    run_p.add_argument("--tenant", default="cli-tenant")
    run_p.add_argument("--warm", action="store_true",
                       help="enable warm bundled resource units")
    run_p.add_argument("--timeline", action="store_true",
                       help="print an ASCII Gantt chart")
    run_p.add_argument("--verify", action="store_true",
                       help="run the fulfillment audit (exit 2 on violation)")
    _add_dc_args(run_p)
    run_p.set_defaults(handler=cmd_run)

    plan_p = sub.add_parser("plan",
                            help="placement preview (no execution)")
    plan_p.add_argument("app")
    plan_p.add_argument("--spec")
    plan_p.add_argument("--tenant", default="cli-tenant")
    _add_dc_args(plan_p)
    plan_p.set_defaults(handler=cmd_plan)

    inspect_p = sub.add_parser("inspect", help="describe an IR program")
    inspect_p.add_argument("app")
    inspect_p.set_defaults(handler=cmd_inspect)

    profile_p = sub.add_parser("profile", help="dry-run profile all tasks")
    profile_p.add_argument("app")
    profile_p.set_defaults(handler=cmd_profile)

    autosize_p = sub.add_parser("autosize",
                                help="infer resource aspects from dry runs")
    autosize_p.add_argument("app")
    autosize_p.add_argument("--latency", type=float, default=None,
                            help="end-to-end latency target (seconds)")
    autosize_p.add_argument("--optimize", choices=("cost", "speed"),
                            default="cost")
    autosize_p.set_defaults(handler=cmd_autosize)

    catalog_p = sub.add_parser("catalog",
                               help="price demands against the 2021 catalog")
    catalog_p.add_argument("demands")
    catalog_p.set_defaults(handler=cmd_catalog)

    chaos_p = sub.add_parser(
        "chaos",
        help="execute under a deterministic fault schedule (exit 3 on "
             "SLO violation)",
    )
    chaos_p.add_argument("app", help="IR program JSON (IRProgram.to_dict)")
    chaos_p.add_argument("--spec", help="declarative aspect spec JSON "
                                        "(retry/hedge/deadline_s live here)")
    chaos_p.add_argument("--faults", help="fault schedule JSON (see docs)")
    chaos_p.add_argument("--seed", type=int, default=0,
                         help="RNG seed for jitter/random faults (default 0)")
    chaos_p.add_argument("--tenant", default="cli-tenant")
    chaos_p.add_argument("--warm", action="store_true",
                         help="enable warm bundled resource units")
    chaos_p.add_argument("--json", action="store_true",
                         help="emit the run summary as JSON")
    _add_dc_args(chaos_p)
    chaos_p.set_defaults(handler=cmd_chaos)

    trace_p = sub.add_parser(
        "trace", help="execute and print the trace-span tree"
    )
    trace_p.add_argument("app", help="IR program JSON (IRProgram.to_dict)")
    trace_p.add_argument("--spec", help="declarative aspect spec JSON")
    trace_p.add_argument("--seed", type=int, default=0,
                         help="RNG seed (default 0)")
    trace_p.add_argument("--tenant", default="cli-tenant")
    trace_p.add_argument("--warm", action="store_true",
                         help="enable warm bundled resource units")
    trace_p.add_argument("--module", default=None,
                         help="only show trees rooted at this module")
    trace_p.add_argument("--gantt", action="store_true",
                         help="also print the span-painted Gantt chart")
    trace_p.add_argument("--json", action="store_true",
                         help="emit the raw span log as JSON")
    _add_dc_args(trace_p)
    trace_p.set_defaults(handler=cmd_trace)

    metrics_p = sub.add_parser(
        "metrics", help="execute and print the metrics snapshot"
    )
    metrics_p.add_argument("app", help="IR program JSON (IRProgram.to_dict)")
    metrics_p.add_argument("--spec", help="declarative aspect spec JSON")
    metrics_p.add_argument("--seed", type=int, default=0,
                           help="RNG seed (default 0)")
    metrics_p.add_argument("--tenant", default="cli-tenant")
    metrics_p.add_argument("--warm", action="store_true",
                           help="enable warm bundled resource units")
    metrics_p.add_argument("--format", choices=("prom", "json"),
                           default="prom")
    _add_dc_args(metrics_p)
    _add_cells_arg(metrics_p)
    metrics_p.set_defaults(handler=cmd_metrics)

    lint_p = sub.add_parser(
        "lint",
        help="statically analyze a definition (exit 2 on error findings)",
    )
    lint_p.add_argument("app", nargs="?", default=None,
                        help="IR program JSON (optional; unlocks DAG "
                             "structure, flow, and deadline checks)")
    lint_p.add_argument("--spec", help="declarative aspect spec JSON")
    lint_p.add_argument("--strict", action="store_true",
                        help="warnings also gate (exit 2)")
    lint_p.add_argument("--json", action="store_true",
                        help="emit the report as deterministic JSON")
    _add_dc_args(lint_p)
    lint_p.set_defaults(handler=cmd_lint)

    modularize_p = sub.add_parser(
        "modularize",
        help="compile a legacy Python source into a lint-clean "
             "UDC definition (exit 2 on unsupported input)",
    )
    modularize_p.add_argument("source",
                              help="legacy single-file Python program "
                                   "(analyzed via AST, never executed)")
    modularize_p.add_argument("--name", default=None,
                              help="application name (default: the "
                                   "source file's stem)")
    modularize_p.add_argument("--seed", type=int, default=0,
                              help="cutter refinement RNG seed "
                                   "(default 0)")
    modularize_p.add_argument("--moves", type=int, default=64,
                              help="local-refinement move proposals "
                                   "(default 64)")
    modularize_p.add_argument("--alpha", type=float,
                              default=float(1 << 20),
                              help="bytes of cross-module traffic one "
                                   "serialized work-unit costs in the "
                                   "cut objective (default 1 MiB)")
    modularize_p.add_argument("--json", action="store_true",
                              help="emit the byte-deterministic "
                                   "app+definition+report JSON payload")
    _add_dc_args(modularize_p)
    modularize_p.set_defaults(handler=cmd_modularize)

    serve_p = sub.add_parser(
        "serve",
        help="replay a multi-tenant stream through the serving layer",
    )
    serve_p.add_argument("--tenants", type=int, default=8,
                         help="tenant population size (default 8)")
    serve_p.add_argument("--minutes", type=float, default=30.0,
                         help="trace horizon in minutes (default 30)")
    serve_p.add_argument("--rate", type=float, default=0.5,
                         help="peak submissions/min per tenant (default 0.5)")
    serve_p.add_argument("--repeat-fraction", type=float, default=0.25,
                         help="fraction of submissions re-using an earlier "
                              "input payload (default 0.25)")
    serve_p.add_argument("--round-every", type=int, default=8,
                         help="dispatch round every N submissions "
                              "(default 8)")
    serve_p.add_argument("--policy", choices=("fair", "fifo"),
                         default="fair",
                         help="admission ordering (default fair)")
    serve_p.add_argument("--seed", type=int, default=0,
                         help="RNG seed (default 0)")
    serve_p.add_argument("--warm", action="store_true",
                         help="enable warm bundled resource units")
    serve_p.add_argument("--autopilot", action="store_true",
                         help="enable the economic autopilot (adaptive "
                              "budget ceilings + forecast-sized warm "
                              "pools); gates on zero accounting drift")
    serve_p.add_argument("--spot-fraction", type=float, default=0.0,
                         help="fraction of tenants registered on the "
                              "preemptible spot tier (default 0)")
    serve_p.add_argument("--budget", type=float, default=None,
                         help="per-tenant budget in dollars (default "
                              "unlimited)")
    serve_p.add_argument("--slo", type=float, default=None,
                         help="per-tenant completion SLO in seconds "
                              "(default none)")
    serve_p.add_argument("--json", action="store_true",
                         help="emit the rollup as JSON")
    _add_dc_args(serve_p)
    _add_cells_arg(serve_p)
    serve_p.set_defaults(handler=cmd_serve)

    gateway_p = sub.add_parser(
        "gateway",
        help="serve the control plane over HTTP/1.1 + WebSocket",
    )
    gateway_p.add_argument("--host", default="127.0.0.1")
    gateway_p.add_argument("--port", type=int, default=8080,
                           help="listen port (0 picks an ephemeral port "
                                "and prints it; default 8080)")
    gateway_p.add_argument("--workers", type=int, default=64,
                           help="bounded worker-pool size (default 64)")
    gateway_p.add_argument("--max-live", type=int, default=512,
                           help="live-submission watermark where fair-"
                                "share load shedding engages "
                                "(default 512)")
    gateway_p.add_argument("--tick-sim-s", type=float, default=0.05,
                           help="simulated seconds per engine tick "
                                "(default 0.05)")
    gateway_p.add_argument("--duration", type=float, default=None,
                           help="shut down gracefully after this many "
                                "real seconds (default: run until "
                                "SIGINT or POST /v1/shutdown)")
    gateway_p.add_argument("--no-telemetry", action="store_true",
                           help="serve with telemetry disabled "
                                "(fleet-scale throughput)")
    gateway_p.add_argument("--policy", choices=("fair", "fifo"),
                           default="fair",
                           help="admission ordering (default fair)")
    gateway_p.add_argument("--smoke", action="store_true",
                           help="run an embedded closed-loop load "
                                "generator, print its JSON report, and "
                                "shut down (CI smoke path)")
    gateway_p.add_argument("--smoke-tenants", type=int, default=50,
                           help="smoke mode: concurrent tenants "
                                "(default 50)")
    gateway_p.add_argument("--smoke-total", type=int, default=200,
                           help="smoke mode: completions to reach "
                                "(default 200)")
    gateway_p.add_argument("--metrics-out", default=None,
                           help="write a Prometheus metrics snapshot "
                                "here before exiting")
    _add_dc_args(gateway_p)
    _add_cells_arg(gateway_p)
    gateway_p.set_defaults(handler=cmd_gateway)

    record_p = sub.add_parser(
        "record",
        help="journal a deterministic workload run (exit 3 on --crash-at)",
    )
    record_p.add_argument("--workload", required=True,
                          help="named workload (fig2-medical, tenant-trace)")
    record_p.add_argument("--journal", required=True,
                          help="journal JSONL path to write")
    record_p.add_argument("--params", default=None,
                          help="workload parameter JSON object")
    record_p.add_argument("--seed", type=int, default=0,
                          help="RNG seed (default 0)")
    record_p.add_argument("--policy", choices=("fair", "fifo"),
                          default="fair")
    record_p.add_argument("--warm", action="store_true",
                          help="enable warm bundled resource units")
    record_p.add_argument("--autopilot", action="store_true",
                          help="enable the economic autopilot for the "
                               "recorded run")
    record_p.add_argument("--snapshot-dir", default=None,
                          help="directory for cadenced snapshots")
    record_p.add_argument("--snapshot-every", type=int, default=None,
                          help="snapshot after every Nth event")
    record_p.add_argument("--crash-at", type=int, default=None,
                          help="simulate a control-plane crash after "
                               "this event id (exit 3)")
    record_p.add_argument("--report", default=None,
                          help="write the canonical final report here")
    _add_dc_args(record_p)
    _add_cells_arg(record_p)
    record_p.set_defaults(handler=cmd_record)

    replay_p = sub.add_parser(
        "replay",
        help="re-execute a journal, verifying fingerprints "
             "(exit 2 on divergence)",
    )
    replay_p.add_argument("journal", help="journal JSONL recorded by "
                                          "udc record")
    replay_p.add_argument("--until", type=int, default=None,
                          help="replay only through this event id")
    replay_p.add_argument("--resume", action="store_true",
                          help="finish a crashed run (snapshot + journal "
                               "tail), appending to the journal")
    replay_p.add_argument("--snapshot-dir", default=None,
                          help="snapshot directory for --resume")
    replay_p.add_argument("--snapshot-every", type=int, default=None,
                          help="keep snapshotting on this cadence while "
                               "resuming")
    replay_p.add_argument("--no-verify", action="store_true",
                          help="skip fingerprint verification")
    replay_p.add_argument("--report", default=None,
                          help="write the canonical final report here")
    replay_p.set_defaults(handler=cmd_replay)

    bisect_p = sub.add_parser(
        "bisect",
        help="binary-search to the first divergent event "
             "(exit 4 when found)",
    )
    bisect_p.add_argument("journal_a", help="journal JSONL")
    bisect_p.add_argument("journal_b", nargs="?", default=None,
                          help="second journal; omitted = probe fresh "
                               "re-executions of journal_a's config")
    bisect_p.set_defaults(handler=cmd_bisect)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
