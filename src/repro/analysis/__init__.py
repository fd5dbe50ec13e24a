"""Static analysis of user definitions (``udc lint``).

The paper's §3.4 obliges UDC to detect conflicts among user-defined
aspects, and §4's verification story audits fulfillment *after* a run.
This package is the static half of that story: four independent passes
over ``(UserDefinition, ModuleDAG, datacenter catalog)`` that surface —
before any placement is attempted — the mistakes the runtime would
otherwise fail on mid-run:

* :mod:`~repro.analysis.conflicts` — cross-module contradictions
  (UDC010–UDC015);
* :mod:`~repro.analysis.feasibility` — definition vs. the datacenter
  catalog and tenant quota (UDC020–UDC026);
* :mod:`~repro.analysis.structure` — DAG shape problems (UDC030–UDC034);
* :mod:`~repro.analysis.infoflow` — sensitivity-lattice information flow
  (UDC040–UDC043).

:func:`analyze_definition` orchestrates them; each pass degrades
gracefully when its context (app, datacenter, quota) is absent, so the
same entry point serves the CLI, the opt-in ``analyze=`` parse hook, and
the :class:`~repro.service.UDCService` front door.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Union

from repro.analysis.conflicts import _conflicts, conflict_pass
from repro.analysis.diagnostics import (
    CODE_CATALOG,
    AnalysisError,
    AnalysisReport,
    Diagnostic,
    Severity,
)
from repro.analysis.feasibility import feasibility_pass
from repro.analysis.infoflow import Sensitivity, clearance_of, infoflow_pass
from repro.analysis.structure import structure_pass
from repro.appmodel.dag import ModuleDAG
from repro.core.spec import SpecError, UserDefinition, parse_definition
from repro.hardware.topology import Datacenter, DatacenterSpec, build_datacenter
from repro.service.tenants import TenantQuota

__all__ = [
    "AnalysisError",
    "AnalysisReport",
    "CODE_CATALOG",
    "Diagnostic",
    "Sensitivity",
    "Severity",
    "analyze_definition",
    "clearance_of",
    "conflict_pass",
    "feasibility_pass",
    "infoflow_pass",
    "structure_pass",
]


def _coerce_definition(definition: Any) -> UserDefinition:
    """Accept a raw dict, a parsed definition, or a fluent builder."""
    if isinstance(definition, UserDefinition):
        return definition
    build = getattr(definition, "build_definition", None)
    if callable(build):
        return build()
    return parse_definition(definition)


def analyze_definition(
    definition: Union[Dict[str, Any], UserDefinition, Any],
    app: Optional[ModuleDAG] = None,
    datacenter: Optional[Union[Datacenter, DatacenterSpec]] = None,
    *,
    quota: Optional[TenantQuota] = None,
    in_flight: int = 0,
    submitted: int = 0,
    tenant_tier: Optional[str] = None,
) -> AnalysisReport:
    """Run every applicable analysis pass and return one sorted report.

    ``definition`` may be a raw aspect dict, a parsed
    :class:`UserDefinition`, or anything with a ``build_definition()``
    hook (the fluent :class:`~repro.core.builder.DefinitionBuilder`).  A
    dict that fails to parse yields a UDC001 report (one finding per
    :class:`SpecError` problem) instead of raising.

    ``app`` unlocks the structural, information-flow, and cost/deadline
    checks; ``datacenter`` (built, or just a :class:`DatacenterSpec`)
    unlocks the feasibility pass; ``quota``/``in_flight``/``submitted``
    let the serving layer lint against a tenant's admission state, and
    ``tenant_tier`` (``"firm"`` / ``"spot"``) unlocks the tier-aware
    contradiction checks (UDC015).
    """
    return _analyze(definition, app, datacenter, quota=quota,
                    in_flight=in_flight, submitted=submitted,
                    tenant_tier=tenant_tier)


def _analyze(
    definition: Any,
    app: Optional[ModuleDAG],
    datacenter: Optional[Union[Datacenter, DatacenterSpec]],
    *,
    quota: Optional[TenantQuota] = None,
    in_flight: int = 0,
    submitted: int = 0,
    tenant_tier: Optional[str] = None,
    task_graph: Optional[Mapping[str, List[str]]] = None,
) -> AnalysisReport:
    """:func:`analyze_definition`, for the serving layer: ``task_graph``
    is ``app``'s effective task graph, which the service already holds
    (one per app shape) and which must match ``app``."""
    try:
        parsed = _coerce_definition(definition)
    except SpecError as exc:
        return AnalysisReport([
            Diagnostic(
                code="UDC001", severity=Severity.ERROR, module="*",
                message=problem,
                hint="fix the definition syntax; nothing else was checked",
            )
            for problem in exc.problems
        ])

    if isinstance(datacenter, DatacenterSpec):
        datacenter = build_datacenter(datacenter)
    dc_spec = datacenter.spec if datacenter is not None else None

    findings = list(_conflicts(parsed, app, dc_spec, tenant_tier,
                               task_graph))
    findings += feasibility_pass(
        parsed, app=app, datacenter=datacenter,
        quota=quota, in_flight=in_flight, submitted=submitted,
    )
    if app is not None:
        findings += structure_pass(app)
        findings += infoflow_pass(parsed, app)
    return AnalysisReport(findings)
