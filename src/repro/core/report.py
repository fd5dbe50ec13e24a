"""Run reports: what happened, per module and in aggregate.

The report is the runtime's user-facing output and the substrate for the
Figure-2/Table-1 benchmarks: per-module placement, timing breakdown, cost,
and the distributed-store statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.conflicts import ConflictResolution
from repro.core.objects import UDCObject
from repro.core.observability import MetricsCapture
from repro.core.telemetry import Telemetry
from repro.core.verify import FulfillmentRecord

__all__ = ["ModuleRow", "RunResult"]


@dataclass
class ModuleRow:
    """One module's line in the run report."""

    name: str
    kind: str
    device: str = "-"
    amount: str = "-"
    env: str = "-"
    single_tenant: bool = False
    replication: int = 1
    consistency: str = "-"
    wall_s: float = 0.0
    startup_s: float = 0.0
    compute_s: float = 0.0
    transfer_s: float = 0.0
    protection_s: float = 0.0
    checkpoint_s: float = 0.0
    failures: int = 0
    cost: float = 0.0
    retries: int = 0
    hedges: int = 0
    hedge_won: bool = False
    deadline_missed: bool = False


@dataclass
class RunResult:
    """Complete outcome of one application run on UDC."""

    app: str
    tenant: str
    makespan_s: float = 0.0
    rows: List[ModuleRow] = field(default_factory=list)
    total_cost: float = 0.0
    objects: Dict[str, UDCObject] = field(default_factory=dict)
    records: Dict[str, FulfillmentRecord] = field(default_factory=dict)
    telemetry: Optional[Telemetry] = None
    conflicts: Optional[ConflictResolution] = None
    #: task name -> functional result (when modules carry callables)
    outputs: Dict[str, object] = field(default_factory=dict)
    fabric_messages: int = 0
    fabric_bytes: int = 0
    warm_hits: int = 0
    warm_misses: int = 0
    #: the metrics registry captured at collection, O(1) to take (None
    #: when the run executed with telemetry disabled); read it rendered
    #: through :attr:`metrics`
    metrics_capture: Optional[MetricsCapture] = None
    _metrics: Optional[Dict] = field(default=None, init=False, repr=False,
                                     compare=False)

    @property
    def metrics(self) -> Optional[Dict]:
        """``MetricsRegistry.to_dict()`` as it read at collection time,
        rendered from :attr:`metrics_capture` on first read and kept
        (None when the run executed with telemetry disabled).

        It holds the whole service-wide registry, every tenant's
        labelled series included, so it must not be served to a tenant
        as it is.
        """
        if self._metrics is None and self.metrics_capture is not None:
            self._metrics = self.metrics_capture.to_dict()
        return self._metrics

    def row(self, name: str) -> ModuleRow:
        for row in self.rows:
            if row.name == name:
                return row
        raise KeyError(name)

    @property
    def total_startup_s(self) -> float:
        return sum(r.startup_s for r in self.rows)

    @property
    def total_failures(self) -> int:
        return sum(r.failures for r in self.rows)

    @property
    def total_retries(self) -> int:
        return sum(r.retries for r in self.rows)

    @property
    def total_hedges(self) -> int:
        return sum(r.hedges for r in self.rows)

    @property
    def slo_violations(self) -> int:
        """Modules abandoned at their deadline (the SLO miss count)."""
        return sum(1 for r in self.rows if r.deadline_missed)

    def to_json_dict(self) -> Dict:
        """Serializable summary for dashboards/external tooling.

        Contains the report's aggregates and per-module rows — not the
        live objects (which hold simulator state).
        """
        return {
            "app": self.app,
            "tenant": self.tenant,
            "makespan_s": self.makespan_s,
            "total_cost": self.total_cost,
            "total_failures": self.total_failures,
            "total_retries": self.total_retries,
            "total_hedges": self.total_hedges,
            "slo_violations": self.slo_violations,
            "fabric_messages": self.fabric_messages,
            "fabric_bytes": self.fabric_bytes,
            "warm_hits": self.warm_hits,
            "warm_misses": self.warm_misses,
            "metrics": self.metrics,
            "conflicts_resolved": (
                {name: level.value
                 for name, level in self.conflicts.resolved_levels.items()}
                if self.conflicts else {}
            ),
            "modules": [
                {
                    "name": row.name,
                    "kind": row.kind,
                    "device": row.device,
                    "amount": row.amount,
                    "env": row.env,
                    "single_tenant": row.single_tenant,
                    "replication": row.replication,
                    "consistency": row.consistency,
                    "wall_s": row.wall_s,
                    "startup_s": row.startup_s,
                    "compute_s": row.compute_s,
                    "transfer_s": row.transfer_s,
                    "protection_s": row.protection_s,
                    "checkpoint_s": row.checkpoint_s,
                    "failures": row.failures,
                    "retries": row.retries,
                    "hedges": row.hedges,
                    "hedge_won": row.hedge_won,
                    "deadline_missed": row.deadline_missed,
                    "cost": row.cost,
                }
                for row in self.rows
            ],
        }

    def format_table(self) -> str:
        """Human-readable per-module table (the Table-1 echo)."""
        header = (
            f"{'module':<8}{'kind':<6}{'device':<10}{'amt':>6}"
            f"{'env':<22}{'1T':<4}{'rep':>4}{'consist.':<12}"
            f"{'wall_s':>10}{'start_s':>9}{'fail':>5}{'cost_$':>10}"
        )
        lines = [header, "-" * len(header)]
        for row in self.rows:
            lines.append(
                f"{row.name:<8}{row.kind:<6}{row.device:<10}{row.amount:>6}"
                f"{row.env:<22}{'Y' if row.single_tenant else '-':<4}"
                f"{row.replication:>4}{row.consistency:<12}"
                f"{row.wall_s:>10.4f}{row.startup_s:>9.3f}"
                f"{row.failures:>5}{row.cost:>10.5f}"
            )
        lines.append("-" * len(header))
        lines.append(
            f"makespan: {self.makespan_s:.4f}s   total cost: ${self.total_cost:.5f}"
            f"   failures: {self.total_failures}"
            f"   fabric: {self.fabric_messages} msgs / {self.fabric_bytes} B"
        )
        if self.total_retries or self.total_hedges or self.slo_violations:
            lines.append(
                f"resilience: {self.total_retries} retries   "
                f"{self.total_hedges} hedges   "
                f"{self.slo_violations} SLO violation(s)"
            )
        return "\n".join(lines)
