"""Aspect-conflict pass (``UDC010``–``UDC015``).

Cross-module contradictions inside one definition — the checks §3.4
motivates ("users may define conflicting specifications for different
modules") plus the resilience-economics contradictions PR 1 made
expressible: a hedge+retry budget whose worst case multiplies past the
module's declared cost cap, and a deadline no placement can meet given
the declared work.

Unlike :mod:`repro.core.conflicts` (which *rewrites* consistency under
the strictest-wins policy at admission), this pass only reports: it runs
before any placement and leaves the definition untouched.
"""

from __future__ import annotations

from typing import List, Optional

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.appmodel.dag import ModuleDAG, topological_stages
from repro.appmodel.module import TaskModule
from repro.core.aspects import AspectBundle, ResourceGoal
from repro.core.spec import UserDefinition
from repro.distsem.consistency import ConsistencyLevel
from repro.hardware.devices import DEFAULT_SPECS, DeviceSpec, DeviceType
from repro.hardware.topology import DatacenterSpec

__all__ = ["conflict_pass"]

SECONDS_PER_HOUR = 3600.0


def _spec_for(datacenter_spec: Optional[DatacenterSpec],
              device_type: DeviceType) -> DeviceSpec:
    if datacenter_spec is not None:
        return datacenter_spec.spec_for(device_type)
    return DEFAULT_SPECS[device_type]


def _candidate_types(task: TaskModule,
                     bundle: AspectBundle) -> List[DeviceType]:
    """Device types this task could legally run on under its bundle."""
    resource = bundle.resource
    if resource is not None and resource.device is not None:
        if resource.device in task.device_candidates:
            return [resource.device]
        # Mismatch is the feasibility pass's UDC023; fall back to the
        # developer's candidates so cost/latency bounds stay meaningful.
    return sorted(task.device_candidates, key=lambda d: d.value)


def _min_exec_seconds(task: TaskModule, bundle: AspectBundle,
                      datacenter_spec: Optional[DatacenterSpec]) -> float:
    """Optimistic execution time: fastest candidate at the declared
    amount (or one unit), capped by the task's usable parallelism."""
    resource = bundle.resource
    amount = resource.amount if (resource is not None
                                 and resource.amount is not None) else 1.0
    best = 0.0
    for device_type in _candidate_types(task, bundle):
        spec = _spec_for(datacenter_spec, device_type)
        if spec.compute_rate <= 0:
            continue
        usable = task.usable_amount(min(amount, spec.capacity))
        best = max(best, spec.compute_rate * usable)
    return task.work / best if best > 0 else 0.0


def _min_attempt_cost(task: TaskModule, bundle: AspectBundle,
                      datacenter_spec: Optional[DatacenterSpec]) -> float:
    """Cheapest possible dollars for one attempt of this task."""
    resource = bundle.resource
    amount = resource.amount if (resource is not None
                                 and resource.amount is not None) else 1.0
    cheapest = None
    for device_type in _candidate_types(task, bundle):
        spec = _spec_for(datacenter_spec, device_type)
        if spec.compute_rate <= 0:
            continue
        usable = task.usable_amount(min(amount, spec.capacity))
        seconds = task.work / (spec.compute_rate * usable)
        cost = seconds / SECONDS_PER_HOUR * spec.unit_price_hour * amount
        if cheapest is None or cost < cheapest:
            cheapest = cost
    return cheapest or 0.0


def _critical_path_lower_bounds(app: ModuleDAG, definition: UserDefinition,
                                datacenter_spec: Optional[DatacenterSpec],
                                graph=None):
    """Per task: optimistic seconds from the app's start through it."""
    if graph is None:
        graph = app.effective_task_graph()
    lower = {}
    # A task cycle (the structural pass's UDC030) has no stages, and no
    # lower bound is derivable.
    for stage in topological_stages(graph) or []:
        for name in stage:
            own = _min_exec_seconds(app.task(name),
                                    definition.bundle_for(name),
                                    datacenter_spec)
            upstream = max((lower[p] for p in graph[name]), default=0.0)
            lower[name] = upstream + own
    return lower


def conflict_pass(
    definition: UserDefinition,
    app: Optional[ModuleDAG] = None,
    datacenter_spec: Optional[DatacenterSpec] = None,
    tenant_tier: Optional[str] = None,
) -> List[Diagnostic]:
    """Cross-module contradiction checks over one parsed definition.

    ``tenant_tier`` is the submitting tenant's effective tier
    (``"firm"`` / ``"spot"``) when the serving layer lints a submission;
    the CLI leaves it unset.
    """
    return _conflicts(definition, app, datacenter_spec, tenant_tier)


def _conflicts(definition: UserDefinition, app: Optional[ModuleDAG],
               datacenter_spec: Optional[DatacenterSpec],
               tenant_tier: Optional[str],
               task_graph=None) -> List[Diagnostic]:
    """:func:`conflict_pass`, reading ``app``'s effective task graph
    from ``task_graph`` when the caller already holds it."""
    findings: List[Diagnostic] = []

    # UDC014 — definition modules the app does not contain.  Everything
    # downstream (consistency pairings, flow labels) silently skips such
    # modules, so surface the mismatch explicitly.
    if app is not None:
        for name in sorted(definition.bundles):
            if name not in app.modules:
                findings.append(Diagnostic(
                    code="UDC014", severity=Severity.WARNING, module=name,
                    message=f"definition declares aspects for {name!r}, "
                            f"which app {app.name!r} does not contain",
                    hint="remove the stray entry or rename it to match "
                         "a module in the application",
                ))

    # UDC010 — a task demanding stricter consistency of a data module
    # than that module's replica source declares (undeclared data
    # consistency falls back to the provider default, eventual).
    if app is not None:
        for name in sorted(definition.bundles):
            if name not in app.modules:
                continue
            dist = definition.bundle_for(name).distributed
            if dist is None:
                continue
            for data_name in sorted(dist.data_consistency):
                expected = dist.data_consistency[data_name]
                own = definition.bundle_for(data_name).distributed
                declared = (own.consistency if own is not None
                            and own.consistency is not None
                            else ConsistencyLevel.EVENTUAL)
                if expected.rank > declared.rank:
                    findings.append(Diagnostic(
                        code="UDC010", severity=Severity.ERROR, module=name,
                        aspect="distributed",
                        message=f"demands {expected.value} consistency of "
                                f"{data_name}, but {data_name} declares "
                                f"{declared.value}",
                        hint=f"raise {data_name}'s consistency to "
                             f"{expected.value} or relax {name}'s "
                             f"expectation",
                    ))

    for name in sorted(definition.bundles):
        bundle = definition.bundle_for(name)
        dist = bundle.distributed
        if dist is None:
            continue
        task = None
        if app is not None and name in app.modules:
            module = app.modules[name]
            if isinstance(module, TaskModule):
                task = module

        # UDC015 — a persistent (never-evicted) deployment under spot
        # economics.  Spot capacity is preemption-eligible by definition
        # (a cheapest goal implies the spot tier, and a spot tenant's
        # submissions all run there), but the preemptor skips persistent
        # submissions — so the discount the spot placement is priced on
        # could never be honored.  The definition contradicts itself.
        resource = bundle.resource
        if dist.persistent:
            if resource is not None and resource.goal == ResourceGoal.CHEAPEST:
                findings.append(Diagnostic(
                    code="UDC015", severity=Severity.ERROR, module=name,
                    aspect="distributed",
                    message=f"module {name!r} is persistent but its "
                            f"resource goal is cheapest, which places it "
                            f"on the preemptible spot tier; a persistent "
                            f"deployment is never evicted, so the spot "
                            f"discount could never be honored",
                    hint="drop the persistent flag, or switch the goal "
                         "to fastest / a pinned device",
                ))
            elif tenant_tier == "spot":
                findings.append(Diagnostic(
                    code="UDC015", severity=Severity.ERROR, module=name,
                    aspect="distributed",
                    message=f"module {name!r} is persistent but the "
                            f"submitting tenant runs on the spot tier; "
                            f"spot work is preemption-eligible while "
                            f"persistent deployments are never evicted",
                    hint="submit from a firm-tier tenant or drop the "
                         "persistent flag",
                ))

        # UDC013 — cheapest goal + hedging: every hedge is a deliberate
        # duplicate execution, directly multiplying the cost the goal
        # asked to minimize.
        if (dist.hedge is not None and resource is not None
                and resource.goal == ResourceGoal.CHEAPEST):
            findings.append(Diagnostic(
                code="UDC013", severity=Severity.WARNING, module=name,
                aspect="distributed",
                message="resource goal is cheapest, but the hedge policy "
                        "duplicates execution (up to "
                        f"{dist.hedge.max_hedges} extra attempt(s))",
                hint="drop the hedge, or switch the goal to fastest if "
                     "tail latency matters more than cost",
            ))

        # UDC011 / UDC012 need the declared work, i.e. the app.
        if task is None:
            continue

        if dist.cost_cap_dollars is not None:
            per_attempt = _min_attempt_cost(task, bundle, datacenter_spec)
            attempts = dist.retry.max_attempts if dist.retry is not None else 1
            hedges = dist.hedge.max_hedges if dist.hedge is not None else 0
            worst = per_attempt * attempts * (1 + hedges)
            if worst > dist.cost_cap_dollars:
                budget = []
                if attempts > 1:
                    budget.append(f"{attempts} retry attempts")
                if hedges:
                    budget.append(f"{1 + hedges}x hedging")
                detail = " x ".join(budget) if budget else "one attempt"
                findings.append(Diagnostic(
                    code="UDC011", severity=Severity.ERROR, module=name,
                    aspect="distributed",
                    message=f"worst-case cost ${worst:.6f} ({detail} at "
                            f"${per_attempt:.6f}/attempt) exceeds the "
                            f"declared cost cap "
                            f"${dist.cost_cap_dollars:.6f}",
                    hint="lower max_attempts/max_hedges or raise "
                         "cost_cap_dollars above the worst case",
                ))

    # UDC012 — a deadline below the critical-path lower bound can never
    # be met, on any hardware the catalog offers.
    if app is not None:
        lower_bounds = _critical_path_lower_bounds(app, definition,
                                                   datacenter_spec,
                                                   task_graph)
        for name in sorted(lower_bounds):
            dist = definition.bundle_for(name).distributed
            if dist is None or dist.deadline_s is None:
                continue
            bound = lower_bounds[name]
            if dist.deadline_s < bound:
                findings.append(Diagnostic(
                    code="UDC012", severity=Severity.ERROR, module=name,
                    aspect="distributed",
                    message=f"deadline_s={dist.deadline_s:g} is below the "
                            f"critical-path lower bound {bound:.3f}s from "
                            f"the declared task costs",
                    hint=f"raise deadline_s to at least {bound:.3f} or "
                         f"reduce upstream work",
                ))

    return findings
