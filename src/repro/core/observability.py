"""Structured observability: hierarchical spans and a metrics registry.

The paper's runtime loop is telemetry-driven ("UDC would perform fine
tuning ... based on telemetry data collected at the run time", §3.2), and
diagnosing the tail-latency and utilization claims at fleet scale needs
more than a flat event list.  This module supplies the two table-stakes
primitives (PAPERS.md: Dapper; Monarch):

* :class:`Span` — a timestamped, hierarchical trace span with *phase
  attribution*.  The runtime, scheduler, warm pool, and resilience
  machinery emit spans for every stage of a module's life:
  ``schedule → allocate → env-acquire → execute → retry/hedge/recover``.
  Spans carry a parent id, so one task's boot, transfers, compute,
  retries, and speculative hedges form a tree rooted at its lifecycle
  span (rendered by ``udc trace`` via :mod:`repro.core.timeline`).

* :class:`MetricsRegistry` — Prometheus-style counters, gauges, and
  histograms, maintained incrementally at emit time (no event-list
  re-scan) and renderable as a text exposition snapshot
  (:meth:`MetricsRegistry.render_prometheus`) or JSON
  (:meth:`MetricsRegistry.to_dict`), surfaced by ``udc metrics``.
  :meth:`MetricsRegistry.capture` keeps the registry as it stands in
  O(1), for each run result, and renders it only when read.

Both are owned by :class:`~repro.core.telemetry.Telemetry`, which keeps
the PR 2 guarantee: with ``enabled=False`` every span/metric call is a
fast no-op (``NULL_SPAN`` is returned; the registry is never even
constructed), so disabled observability stays off the allocator hot path.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsCapture",
    "MetricsRegistry",
    "NULL_SPAN",
    "Span",
]

# --------------------------------------------------------------------- spans

#: Canonical phase vocabulary.  Spans may use any string, but the emitters
#: in this repo stick to these so dashboards and the golden tests can key
#: off them.
PHASES = (
    "lifecycle",    # a module's whole run (the root span)
    "schedule",     # scheduler decision-making / dependency waits
    "allocate",     # pool allocation (compute, memory, standbys)
    "env-acquire",  # environment boot: cold start or warm-pool rebind
    "execute",      # transfers + chunked compute
    "retry",        # a re-execution attempt after a failure
    "hedge",        # a speculative duplicate attempt
    "recover",      # backoff + migration + checkpoint restore
    "service",      # serving-layer dispatch rounds and batched placement
)


@dataclass
class Span:
    """One timed operation in a trace tree.

    ``end_s`` is ``None`` while the span is open; :meth:`duration_s`
    treats an open span as zero-length.  ``status`` is ``"running"``
    until ended, then ``"ok"`` / ``"error"`` / ``"cancelled"`` /
    ``"abandoned"`` / ``"interrupted"``.
    """

    span_id: int
    parent_id: Optional[int]
    module: str
    name: str
    phase: str
    start_s: float
    end_s: Optional[float] = None
    status: str = "running"
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return (self.end_s - self.start_s) if self.end_s is not None else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "module": self.module,
            "name": self.name,
            "phase": self.phase,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "duration_s": self.duration_s,
            "status": self.status,
            "attrs": dict(self.attrs),
        }


class _NullSpan(Span):
    """The span returned when telemetry is disabled: writes vanish."""

    def __init__(self):
        super().__init__(span_id=-1, parent_id=None, module="", name="",
                         phase="", start_s=0.0)

    @property
    def attrs(self) -> Dict[str, object]:  # type: ignore[override]
        # A fresh dict per access: callers may write, nothing accumulates.
        return {}

    @attrs.setter
    def attrs(self, value) -> None:
        pass


#: Singleton no-op span handed out by disabled telemetry so emitters never
#: branch on "did I get a span back".
NULL_SPAN = _NullSpan()


# -------------------------------------------------------------------- metrics

#: Default histogram bucket upper bounds (seconds): spans sub-millisecond
#: control-plane work through multi-minute cold starts.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0,
    60.0, 120.0, 300.0,
)

#: Canonical help strings, attached the first time a family is created so
#: emit sites stay one-liners.
METRIC_HELP: Dict[str, str] = {
    "udc_placements_total": "Module placements performed, by module kind.",
    "udc_placement_latency_seconds":
        "Wall-clock latency of one scheduler placement decision.",
    "udc_env_startup_seconds":
        "Simulated environment boot time (cold or warm), per attempt.",
    "udc_task_wall_seconds": "Simulated end-to-end wall time per task module.",
    "udc_retries_total": "Task re-executions after failures.",
    "udc_failures_total": "Failure interrupts delivered to task attempts.",
    "udc_deadline_misses_total": "Modules abandoned at their deadline (SLO).",
    "udc_hedges_total": "Speculative duplicate attempts launched.",
    "udc_hedge_wins_total": "Hedged tasks where the duplicate finished first.",
    "udc_hedge_losses_total":
        "Hedges that lost the race or died before finishing.",
    "udc_breaker_trips_total": "Circuit breakers newly opened.",
    "udc_warm_pool_hits_total": "Environment acquisitions served warm.",
    "udc_warm_pool_misses_total": "Environment acquisitions that cold-start.",
    "udc_warm_pool_outage_misses_total":
        "Warm-pool misses attributable to an injected outage.",
    "udc_warm_pool_prewarmed_total": "Shells stocked by prewarm/refill.",
    "udc_warm_pool_hit_rate": "Lifetime warm-pool hit rate.",
    "udc_pool_utilization":
        "Instantaneous fraction of live pool capacity in use.",
    "udc_pool_mean_utilization": "Time-weighted mean pool utilization.",
    "udc_pool_capacity_units": "Live pool capacity, in device units.",
    "udc_pool_used_units": "Live pool capacity currently allocated.",
    "udc_pool_peak_used_units": "High-water mark of allocated capacity.",
    "udc_breakers_open": "Circuit breakers currently open.",
    "udc_tenant_submissions_total":
        "Submissions received by the serving layer, per tenant.",
    "udc_tenant_admitted_total":
        "Submissions admitted straight into the runtime, per tenant.",
    "udc_tenant_queued_total":
        "Submissions parked in the admission queue, per tenant.",
    "udc_tenant_rejections_total":
        "Submissions rejected at the front door by quota, per tenant.",
    "udc_tenant_cache_hits_total":
        "Submissions served from the result cache, per tenant.",
    "udc_tenant_cache_misses_total":
        "Submissions that missed the result cache, per tenant.",
    "udc_tenant_completed_total":
        "Submissions that ran to completion, per tenant.",
    "udc_tenant_unplaceable_total":
        "Submissions that could never be placed, per tenant.",
    "udc_tenant_cost_dollars_total":
        "Settled execution cost, per tenant, in dollars.",
    "udc_tenant_billed_dollars_total":
        "Dollars billed through the tenant's pricing plan (spot discounts "
        "land here; equals cost on the firm tier).",
    "udc_budget_rejections_total":
        "Submissions shed at the front door for an exhausted budget "
        "ceiling, per tenant.",
    "udc_slo_misses_total":
        "Completions whose queue wait + makespan blew the declared SLO, "
        "per tenant.",
    "udc_preemptions_total":
        "Spot-tier submissions evicted so firm-tier work could place.",
    "udc_tenant_preemptions_total":
        "Preemptions suffered, per (victim) tenant.",
    "udc_warm_pool_target_depth":
        "Forecast-driven shelf depth set by the autopilot, per env shape.",
    "udc_tenant_queue_wait_seconds":
        "Simulated time a submission waited in the admission queue.",
    "udc_service_rounds_total": "Serving-layer dispatch rounds executed.",
    "udc_service_dispatched_total":
        "Buffered submissions dispatched by scheduling rounds.",
    "udc_lint_checks_total":
        "Submissions run through the static analyzer at the front door.",
    "udc_lint_findings_total":
        "Static-analysis findings surfaced at the front door, by severity.",
    "udc_lint_rejections_total":
        "Submissions rejected by error-severity lint findings, per tenant.",
}

#: Metric families measured in host wall-clock time rather than simulated
#: time.  Everything else in a run is deterministic for a given seed;
#: these are not, so JSON snapshots embedded in run reports exclude them
#: by default (``MetricsRegistry.to_dict``) to keep report bytes
#: reproducible.  The Prometheus text rendering always includes them.
WALL_CLOCK_METRICS = frozenset({
    "udc_placement_latency_seconds",
    # Gateway families measure real network/event-loop time, which
    # varies run to run like placement latency does.
    "udc_gateway_request_seconds",
    "udc_gateway_tick_seconds",
})

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Optional[Dict[str, str]]) -> LabelKey:
    if not labels:
        return ()
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class _Instrument:
    """Base of the instrument kinds.  Versioned: the first mutation after
    a :meth:`MetricsRegistry.capture` appends the old state to the
    instrument's own history, so every capture can still read the state
    it saw (see :meth:`_state_at`)."""

    __slots__ = ("_registry", "_born", "_epoch", "_epochs", "_states")

    def __init__(self, registry: MetricsRegistry):
        self._registry = registry
        #: registry epoch at creation (captures before it do not show
        #: the instrument) and at the last mutation
        self._born = self._epoch = registry._epoch
        #: the history, oldest first: each saved state, with the epoch
        #: whose first mutation saved it (captures with an earlier epoch
        #: saw it).  The epoch is the registry's own int, shared by
        #: every instrument saving in that epoch.
        self._epochs: List[int] = []
        self._states: List[object] = []

    def _save(self) -> None:
        """Keep the current state for the captures taken since the last
        mutation; called before every mutation, O(1)."""
        epoch = self._registry._epoch
        if self._epoch != epoch:
            self._epochs.append(epoch)
            self._states.append(self._state())
            self._epoch = epoch

    def _state_at(self, epoch: int):
        """The state capture ``epoch`` saw (the instrument is born at or
        before it)."""
        if epoch >= self._epoch:
            return self._state()
        return self._states[bisect_right(self._epochs, epoch)]

    def _state(self):
        return self.value

    def _fields(self, state) -> Dict[str, object]:
        return {"value": state}


class Counter(_Instrument):
    """Monotonically increasing value."""

    __slots__ = ("value",)

    def __init__(self, registry: MetricsRegistry):
        super().__init__(registry)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        self._save()
        self.value += amount


class Gauge(_Instrument):
    """A value that can go up and down (or be set outright)."""

    __slots__ = ("value",)

    def __init__(self, registry: MetricsRegistry):
        super().__init__(registry)
        self.value = 0.0

    def set(self, value: float) -> None:
        # A set that leaves the value bit-identical (same type, equal,
        # same sign) is not a mutation and keeps no history.  Equality
        # alone would not do: -0.0 == 0.0 renders differently, and a NaN
        # is never equal, so it always counts.
        old = self.value
        if type(value) is type(old) and value == old and (
                value or math.copysign(1.0, value) == math.copysign(1.0, old)):
            return
        self._save()
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self._save()
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self._save()
        self.value -= amount


class Histogram(_Instrument):
    """Cumulative-bucket histogram (Prometheus semantics).

    ``bucket_counts[i]`` counts observations ``<= buckets[i]``; the
    implicit final ``+Inf`` bucket equals ``count``.
    """

    __slots__ = ("buckets", "bucket_counts", "sum", "count")

    def __init__(self, registry: MetricsRegistry,
                 buckets: Tuple[float, ...] = DEFAULT_BUCKETS):
        super().__init__(registry)
        self.buckets = tuple(sorted(buckets))
        self.bucket_counts = [0] * len(self.buckets)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self._save()
        self.sum += value
        self.count += 1
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.bucket_counts[i] += 1

    def _state(self):
        return (self.sum, self.count, *self.bucket_counts)

    def _fields(self, state) -> Dict[str, object]:
        total, count, *bucket_counts = state
        buckets: Dict[str, object] = {
            f"{bound:g}": bucket
            for bound, bucket in zip(self.buckets, bucket_counts)
        }
        buckets["+Inf"] = count
        return {"buckets": buckets, "sum": total, "count": count}

    def quantile(self, q: float) -> float:
        """Estimated q-quantile from the cumulative buckets (upper bound)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        for bound, cumulative in zip(self.buckets, self.bucket_counts):
            if cumulative >= rank:
                return bound
        return math.inf


@dataclass
class _Family:
    """All instruments sharing one metric name."""

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    help: str
    #: registry epoch at creation: captures before it do not show it
    born: int
    buckets: Tuple[float, ...] = DEFAULT_BUCKETS
    instruments: Dict[LabelKey, _Instrument] = field(default_factory=dict)


class MetricsCapture:
    """The registry as it stood at one :meth:`MetricsRegistry.capture`.

    Taking one is O(1); :meth:`to_dict` renders it on read, from the
    instruments' current state and their histories.
    """

    __slots__ = ("registry", "epoch")

    def __init__(self, registry: MetricsRegistry, epoch: int):
        self.registry = registry
        self.epoch = epoch

    def to_dict(self) -> Dict[str, object]:
        """What :meth:`MetricsRegistry.to_dict` returned at capture time
        (wall-clock families left out)."""
        return self.registry._render(self.epoch, False)


class MetricsRegistry:
    """Named counters/gauges/histograms with optional labels.

    Instruments are created on first use; a name is bound to one kind for
    the registry's lifetime (mixing kinds raises).  Rendering never
    changes a metric value, so snapshots are safe to take mid-run.
    """

    def __init__(self):
        self._families: Dict[str, _Family] = {}
        #: captures taken so far; mutations happen in this epoch
        self._epoch = 0

    def _family(self, name: str, kind: str, help_text: str = "",
                buckets: Tuple[float, ...] = DEFAULT_BUCKETS) -> _Family:
        family = self._families.get(name)
        if family is None:
            family = _Family(
                name=name, kind=kind,
                help=help_text or METRIC_HELP.get(name, ""),
                born=self._epoch, buckets=buckets,
            )
            self._families[name] = family
        elif family.kind != kind:
            raise ValueError(
                f"metric {name!r} is a {family.kind}, not a {kind}"
            )
        return family

    def counter(self, name: str, labels: Optional[Dict[str, str]] = None,
                help: str = "") -> Counter:
        instruments = self._family(name, "counter", help).instruments
        key = _label_key(labels)
        instrument = instruments.get(key)
        if instrument is None:
            instrument = instruments[key] = Counter(self)
        return instrument

    def gauge(self, name: str, labels: Optional[Dict[str, str]] = None,
              help: str = "") -> Gauge:
        instruments = self._family(name, "gauge", help).instruments
        key = _label_key(labels)
        instrument = instruments.get(key)
        if instrument is None:
            instrument = instruments[key] = Gauge(self)
        return instrument

    def histogram(self, name: str, labels: Optional[Dict[str, str]] = None,
                  buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
                  help: str = "") -> Histogram:
        family = self._family(name, "histogram", help, buckets)
        key = _label_key(labels)
        instrument = family.instruments.get(key)
        if instrument is None:
            instrument = family.instruments[key] = Histogram(
                self, family.buckets)
        return instrument

    def capture(self) -> MetricsCapture:
        """Capture the registry as it stands, in O(1).

        The capture renders on read (:meth:`MetricsCapture.to_dict`)
        exactly what :meth:`to_dict` returns now.  It bumps the epoch,
        so the next mutation of each instrument first saves the state
        this capture saw.
        """
        capture = MetricsCapture(self, self._epoch)
        self._epoch += 1
        return capture

    # -- reads ---------------------------------------------------------------

    def value(self, name: str,
              labels: Optional[Dict[str, str]] = None) -> float:
        """Current value of a counter/gauge (0.0 when never emitted)."""
        family = self._families.get(name)
        if family is None:
            return 0.0
        instrument = family.instruments.get(_label_key(labels))
        if instrument is None:
            return 0.0
        if isinstance(instrument, Histogram):
            raise ValueError(f"{name!r} is a histogram; read it via family")
        return instrument.value

    def families(self) -> Iterable[_Family]:
        return (self._families[name] for name in sorted(self._families))

    # -- rendering -----------------------------------------------------------

    @staticmethod
    def _fmt_labels(key: LabelKey, extra: str = "") -> str:
        parts = [f'{k}="{v}"' for k, v in key]
        if extra:
            parts.append(extra)
        return "{" + ",".join(parts) + "}" if parts else ""

    @staticmethod
    def _fmt_value(value: float) -> str:
        return f"{value:g}"

    def render_prometheus(self) -> str:
        """Text exposition snapshot (Prometheus format, version 0.0.4)."""
        lines: List[str] = []
        for family in self.families():
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for key in sorted(family.instruments):
                instrument = family.instruments[key]
                if isinstance(instrument, Histogram):
                    for bound, bucket in zip(instrument.buckets,
                                             instrument.bucket_counts):
                        le = self._fmt_labels(key, f'le="{bound:g}"')
                        lines.append(
                            f"{family.name}_bucket{le} {bucket}"
                        )
                    le = self._fmt_labels(key, 'le="+Inf"')
                    lines.append(
                        f"{family.name}_bucket{le} {instrument.count}"
                    )
                    lines.append(
                        f"{family.name}_sum{self._fmt_labels(key)} "
                        f"{self._fmt_value(instrument.sum)}"
                    )
                    lines.append(
                        f"{family.name}_count{self._fmt_labels(key)} "
                        f"{instrument.count}"
                    )
                else:
                    lines.append(
                        f"{family.name}{self._fmt_labels(key)} "
                        f"{self._fmt_value(instrument.value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    def to_dict(self, include_wall_clock: bool = False) -> Dict[str, object]:
        """JSON-serializable snapshot, keyed by metric name: the values at
        call time, in fresh dicts.

        It renders through the capture path at the live epoch but takes
        no capture: nothing holds on to it, so the next mutations need
        not save the state it read.

        Wall-clock families (:data:`WALL_CLOCK_METRICS`) are skipped
        unless ``include_wall_clock`` — they vary run to run and would
        break byte-identical report reproducibility.
        """
        return self._render(self._epoch, include_wall_clock)

    def _render(self, epoch: int,
                include_wall_clock: bool) -> Dict[str, object]:
        """The registry as capture ``epoch`` saw it: families and label
        sets in sorted order, those born after it left out."""
        snapshot: Dict[str, object] = {}
        for family in self.families():
            if family.born > epoch or (
                    not include_wall_clock
                    and family.name in WALL_CLOCK_METRICS):
                continue
            instruments = family.instruments
            values = []
            for key in sorted(instruments):
                instrument = instruments[key]
                if instrument._born <= epoch:
                    values.append({
                        "labels": dict(key),
                        **instrument._fields(instrument._state_at(epoch)),
                    })
            snapshot[family.name] = {"type": family.kind,
                                     "help": family.help, "values": values}
        return snapshot
