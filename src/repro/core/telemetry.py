"""Runtime telemetry (paper §3.2).

*"UDC would perform fine tuning (enlarging or shrinking the amount of
resources for a module, migrating modules across hardware units, etc.)
based on telemetry data collected at the run time."*

:class:`Telemetry` records per-module utilization samples, typed events,
hierarchical trace :class:`~repro.core.observability.Span`\\ s, and a lazy
:class:`~repro.core.observability.MetricsRegistry`.  The tuner consumes
samples, the run report and ``udc trace`` consume spans, ``udc metrics``
consumes the registry, and the pool set's time-weighted utilization
supplies the E2/E4 metrics.  Reads (``samples_for``, ``events_of``,
``spans_for``) are served from incrementally-maintained indexes, not
full-log scans, and ``mean_utilization`` from a running per-module sum,
so the per-submission cost of the tuner's reads does not grow with how
long the service has been up.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Union

from repro.core.observability import NULL_SPAN, MetricsRegistry, Span

__all__ = ["Sample", "Telemetry", "TelemetryEvent"]

#: Event details may be given as a zero-arg callable so hot paths never
#: pay f-string formatting when telemetry is disabled (or, for callers
#: on the placement fast path, even when enabled — the string is built
#: once at record time, not at call-site argument-evaluation time).
Detail = Union[str, Callable[[], str]]

#: Tolerance for float noise on utilization samples: values within this
#: epsilon outside [0, 1] are clamped instead of rejected (a usable/
#: allocated division can land at 1 + 1e-16 — or, symmetrically, at
#: -1e-16 after a subtractive correction — without being a caller bug).
_UTIL_EPS = 1e-9

#: Whether the builtin ``sum()`` of floats is compensated (Neumaier
#: summation, CPython 3.12+) or a plain left-to-right fold.  The running
#: utilization sum follows the same algorithm, so ``mean_utilization``
#: reads bit for bit what a re-sum of the sample log would.
_COMPENSATED_SUM = sum([1.0, 1e100, 1.0, -1e100]) == 2.0


class _RunningSum:
    """``sum(values) / len(values)`` over an append-only stream, O(1)
    per append and per read, in the builtin ``sum()``'s arithmetic."""

    __slots__ = ("total", "compensation", "count")

    def __init__(self):
        # sum() starts from the int 0; 0 + x == 0.0 + x for every float
        # x (both turn -0.0 into 0.0).
        self.total = 0.0
        self.compensation = 0.0
        self.count = 0

    def add(self, value: float) -> None:
        self.count += 1
        total = self.total + value
        if _COMPENSATED_SUM:
            if abs(self.total) >= abs(value):
                self.compensation += (self.total - total) + value
            else:
                self.compensation += (value - total) + self.total
        self.total = total

    def mean(self) -> float:
        total = self.total
        # sum() adds the compensation back only when it is non-zero and
        # finite, so a negative or infinite total keeps its sign.
        if self.compensation and math.isfinite(self.compensation):
            total += self.compensation
        return total / self.count


@dataclass(frozen=True)
class Sample:
    """One observation of a module's resource usage."""

    time: float
    module: str
    #: fraction of the module's allocated compute actually busy [0, 1]
    compute_utilization: float
    allocated_amount: float


@dataclass(frozen=True)
class TelemetryEvent:
    """A discrete runtime occurrence (placement, resize, migration, ...)."""

    time: float
    module: str
    kind: str
    detail: str = ""


class Telemetry:
    """Append-only sample/event/span log plus metrics for one run.

    ``enabled=False`` turns the whole thing into a sink: events, samples,
    and spans are discarded without being built (lazy ``detail`` callables
    are never invoked, span emitters get :data:`NULL_SPAN` back, metric
    increments return before touching the registry — which is never even
    constructed), keeping observability off the allocator's critical path
    in fleet-scale runs.  Note the tuner consumes samples — a runtime with
    telemetry disabled also stops adaptive resizing.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.samples: List[Sample] = []
        self.events: List[TelemetryEvent] = []
        self.spans: List[Span] = []
        self._samples_by_module: Dict[str, List[Sample]] = {}
        self._utilization: Dict[str, _RunningSum] = {}
        self._events_by_kind: Dict[str, List[TelemetryEvent]] = {}
        self._spans_by_module: Dict[str, List[Span]] = {}
        self._span_ids = itertools.count()
        self._metrics: Optional[MetricsRegistry] = None

    # -- samples and events ---------------------------------------------------

    def sample(self, time: float, module: str, compute_utilization: float,
               allocated_amount: float) -> None:
        if not self.enabled:
            return
        if not -_UTIL_EPS <= compute_utilization <= 1.0 + _UTIL_EPS:
            raise ValueError(
                f"utilization must be in [0,1], got {compute_utilization}"
            )
        sample = Sample(
            time=time,
            module=module,
            compute_utilization=min(max(compute_utilization, 0.0), 1.0),
            allocated_amount=allocated_amount,
        )
        self.samples.append(sample)
        self._samples_by_module.setdefault(module, []).append(sample)
        running = self._utilization.get(module)
        if running is None:
            running = self._utilization[module] = _RunningSum()
        running.add(sample.compute_utilization)

    def event(self, time: float, module: str, kind: str,
              detail: Detail = "") -> None:
        if not self.enabled:
            return
        if callable(detail):
            detail = detail()
        event = TelemetryEvent(time=time, module=module, kind=kind,
                               detail=detail)
        self.events.append(event)
        self._events_by_kind.setdefault(kind, []).append(event)

    def samples_for(self, module: str) -> List[Sample]:
        return list(self._samples_by_module.get(module, ()))

    def events_of(self, kind: str) -> List[TelemetryEvent]:
        return list(self._events_by_kind.get(kind, ()))

    def mean_utilization(self, module: str) -> Optional[float]:
        """Mean compute utilization over every sample of ``module`` (None
        before the first), O(1): read from the running sum, which equals
        ``sum(...) / len(...)`` over :meth:`samples_for` bit for bit."""
        running = self._utilization.get(module)
        return running.mean() if running is not None else None

    def counts(self) -> Dict[str, int]:
        return {
            kind: len(events)
            for kind, events in self._events_by_kind.items()
        }

    # -- spans ---------------------------------------------------------------

    def span_start(self, time: float, module: str, name: str, phase: str,
                   parent: Optional[Span] = None, **attrs) -> Span:
        """Open a span; returns :data:`NULL_SPAN` when disabled.

        ``parent`` may be a live span, ``None`` (a root), or
        :data:`NULL_SPAN` (treated as a root, so emitters can thread a
        possibly-null parent without branching).
        """
        if not self.enabled:
            return NULL_SPAN
        parent_id = (parent.span_id
                     if parent is not None and parent.span_id >= 0 else None)
        span = Span(
            span_id=next(self._span_ids), parent_id=parent_id,
            module=module, name=name, phase=phase, start_s=time,
            attrs=attrs,
        )
        self.spans.append(span)
        self._spans_by_module.setdefault(module, []).append(span)
        return span

    def span_end(self, span: Optional[Span], time: float,
                 status: str = "ok") -> None:
        """Close ``span``.  Tolerates ``None`` and :data:`NULL_SPAN` so
        interrupt handlers can blindly close whatever was in flight."""
        if span is None or not self.enabled or span.span_id < 0:
            return
        span.end_s = time
        span.status = status

    def spans_for(self, module: str) -> List[Span]:
        return list(self._spans_by_module.get(module, ()))

    def span_children(self) -> Dict[Optional[int], List[Span]]:
        """Parent-id -> children map (roots under ``None``), in emit order."""
        children: Dict[Optional[int], List[Span]] = {}
        for span in self.spans:
            children.setdefault(span.parent_id, []).append(span)
        return children

    def root_spans(self) -> List[Span]:
        return [s for s in self.spans if s.parent_id is None]

    # -- metrics --------------------------------------------------------------

    @property
    def metrics(self) -> MetricsRegistry:
        """The run's registry, constructed on first touch."""
        if self._metrics is None:
            self._metrics = MetricsRegistry()
        return self._metrics

    def inc(self, name: str, amount: float = 1.0,
            labels: Optional[Dict[str, str]] = None) -> None:
        if not self.enabled:
            return
        self.metrics.counter(name, labels).inc(amount)

    def observe(self, name: str, value: float,
                labels: Optional[Dict[str, str]] = None) -> None:
        if not self.enabled:
            return
        self.metrics.histogram(name, labels).observe(value)

    def gauge_set(self, name: str, value: float,
                  labels: Optional[Dict[str, str]] = None) -> None:
        if not self.enabled:
            return
        self.metrics.gauge(name, labels).set(value)
