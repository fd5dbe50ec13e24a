"""Span tracer for the benchmark's traced run.

The tracer wraps public entry points of each layer *from outside* the
program: it replaces a class attribute (or a module function) with a
wrapper that records one span per call — name, start, end, parent span
and whether the call raised — and leaves ``src/`` untouched.  Spans stay
in memory and are written once, when the run ends.

Only synchronous functions are wrapped.  Generator functions and
coroutines return before their work is done, so a span around them would
time object creation, not work; the layers that run inside simulator
processes show up as children of ``simulator.run`` instead.  Because no
wrapped call ever suspends, spans nest strictly even inside the
gateway's asyncio loop, and a span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import importlib
import json
import time
from typing import Dict, List, Optional, Tuple

#: (module, attribute path, span name).  The span name's prefix before
#: the first dot is the layer the call is charged to.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    # gateway: wire + server handlers (sync parts of the asyncio loop)
    ("repro.gateway.server", "write_response", "gateway.write_response"),
    ("repro.gateway.server", "UDCGateway._submit", "gateway.submit"),
    ("repro.gateway.server", "UDCGateway._note_progress",
     "gateway.note_progress"),
    ("repro.gateway.server", "UDCGateway._emit_final", "gateway.emit_final"),
    ("repro.gateway.server", "UDCGateway.metrics_text",
     "gateway.metrics_text"),
    # service front door: submit, quota, result cache, finalize
    ("repro.service.service", "UDCService.submit", "service.submit"),
    ("repro.service.service", "UDCService.drain", "service.drain"),
    ("repro.service.service", "UDCService._finalize", "service.finalize"),
    ("repro.service.cache", "ResultCache.get", "service.cache_get"),
    ("repro.service.cache", "ResultCache.put", "service.cache_put"),
    # static analysis at the front door
    ("repro.service.service", "UDCService._lint", "analysis.lint"),
    ("repro.analysis", "analyze_definition", "analysis.analyze"),
    # dispatch rounds and the cell router
    ("repro.service.service", "UDCService.dispatch_round", "dispatch.round"),
    ("repro.core.cells", "CellRouter.order", "router.order"),
    # scheduler and pools
    ("repro.core.scheduler", "UdcScheduler.place_tasks",
     "scheduler.place_tasks"),
    ("repro.core.scheduler", "UdcScheduler.place_data",
     "scheduler.place_data"),
    ("repro.core.runtime", "UDCRuntime._retry_admissions",
     "scheduler.admission_retry"),
    ("repro.hardware.pools", "ResourcePool.allocate", "scheduler.allocate"),
    ("repro.hardware.pools", "ResourcePool.release", "scheduler.release"),
    # application DAG
    ("repro.appmodel.dag", "ModuleDAG.effective_task_graph",
     "dag.task_graph"),
    ("repro.appmodel.dag", "ModuleDAG.to_networkx", "dag.to_networkx"),
    ("repro.appmodel.dag", "ModuleDAG.task_stages", "dag.task_stages"),
    # discrete-event engine and the runtime around it
    ("repro.simulator.engine", "Simulator.run", "simulator.run"),
    ("repro.core.runtime", "UDCRuntime.submit", "runtime.submit"),
    ("repro.core.runtime", "UDCRuntime._collect", "runtime.collect"),
    ("repro.core.runtime", "UDCRuntime.drain", "runtime.drain"),
    ("repro.core.runtime", "UDCRuntime.preempt", "runtime.preempt"),
    # tuner, telemetry and metrics
    ("repro.core.tuner", "FineTuner.review_allocation", "tuner.review"),
    ("repro.core.telemetry", "Telemetry.mean_utilization",
     "telemetry.mean_util"),
    ("repro.core.telemetry", "Telemetry.sample", "telemetry.sample"),
    ("repro.core.observability", "MetricsRegistry.to_dict",
     "metrics.to_dict"),
    ("repro.core.observability", "MetricsRegistry.render_prometheus",
     "metrics.render"),
    ("repro.core.runtime", "UDCRuntime.metrics_snapshot", "metrics.snapshot"),
    # warm pool and economics
    ("repro.execenv.warmpool", "WarmPool.try_acquire", "warmpool.acquire"),
    ("repro.execenv.warmpool", "WarmPool.refill", "warmpool.refill"),
    ("repro.economics.autopilot", "BudgetEnforcer.admit", "economics.admit"),
    ("repro.economics.autopilot", "BudgetEnforcer.charge",
     "economics.charge"),
    ("repro.economics.autopilot", "AdaptiveBudgetHook.on_round",
     "economics.plan"),
    ("repro.economics.autopilot", "WarmPoolForecaster.roll",
     "economics.forecast"),
)

#: every layer a span name can be charged to, in report order
LAYERS = ("gateway", "service", "analysis", "dispatch", "router",
          "scheduler", "dag", "simulator", "runtime", "tuner", "telemetry",
          "metrics", "warmpool", "economics")


class Tracer:
    """Records nested spans around wrapped calls; one per process."""

    def __init__(self):
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        #: (name id, start ns, end ns, parent index or -1, raised 0/1)
        self.spans: List[Optional[tuple]] = []
        self._stack: List[int] = []

    # -- installation ------------------------------------------------------

    def install(self, targets=TARGETS) -> None:
        """Wrap every target; call before the program builds its objects
        so bound methods captured at construction are wrapped too."""
        for module_name, path, span_name in targets:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            setattr(owner, attr,
                    self._wrap(owner.__dict__[attr], span_name))

    def reset(self) -> None:
        """Forget spans recorded so far (set-up calls, for instance)."""
        self.spans.clear()
        self._stack.clear()

    def _wrap(self, fn, span_name: str):
        name_id = self._name_ids.get(span_name)
        if name_id is None:
            name_id = self._name_ids[span_name] = len(self.names)
            self.names.append(span_name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            raised = 0
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised = 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, raised)

        traced.__name__ = getattr(fn, "__name__", span_name)
        traced.__qualname__ = getattr(fn, "__qualname__", span_name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    # -- reporting ---------------------------------------------------------

    def rollup(self) -> Dict[str, Dict[str, object]]:
        """Per span name: calls, raised, total and self ns, p50/p95 ns."""
        spans = [s for s in self.spans if s is not None]
        child_ns = [0] * len(self.spans)
        for name_id, start, end, parent, _raised in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        table: Dict[str, Dict[str, object]] = {}
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            name_id, start, end, _parent, raised = span
            row = table.setdefault(self.names[name_id], {
                "calls": 0, "raised": 0, "total_ns": 0, "self_ns": 0,
                "durations_ns": [],
            })
            row["calls"] += 1
            row["raised"] += raised
            row["total_ns"] += end - start
            row["self_ns"] += end - start - child_ns[index]
            row["durations_ns"].append(end - start)
        for row in table.values():
            durations = sorted(row.pop("durations_ns"))
            last = len(durations) - 1
            row["p50_ns"] = durations[round(0.50 * last)]
            row["p95_ns"] = durations[round(0.95 * last)]
        return table

    def dump(self, path: str) -> None:
        """Write every span as compact JSON (written once, at exit)."""
        with open(path, "w", encoding="utf-8") as out:
            json.dump({"names": self.names,
                       "fields": ["name", "start_ns", "end_ns", "parent",
                                  "raised"],
                       "spans": [s for s in self.spans if s is not None]},
                      out, separators=(",", ":"))


def layer_totals(table: Dict[str, Dict[str, object]]) -> Dict[str, Dict]:
    """Collapse a :meth:`Tracer.rollup` to per-layer calls and self ms."""
    totals = {layer: {"calls": 0, "self_ms": 0.0} for layer in LAYERS}
    for name, row in table.items():
        layer = totals[name.split(".", 1)[0]]
        layer["calls"] += row["calls"]
        layer["self_ms"] += row["self_ns"] / 1e6
    return totals
