"""Tests for the structured observability layer (PR 3).

Covers the span/metrics primitives (`repro.core.observability`), their
Telemetry integration (NULL_SPAN no-ops, lazy registry), the satellite
edge-case fixes that rode along (CostComparison zero baseline, warm-pool
prewarm during an outage, utilization epsilon clamp), the `udc trace` /
`udc metrics` CLI commands, and a golden end-to-end trace of the Figure-2
medical pipeline with one retried module (A4) and one hedged module (B2).
"""

import gc
import json
import math
import random

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.appmodel.ir import compile_dag
from repro.cli import main
from repro.core.observability import (
    NULL_SPAN,
    DEFAULT_BUCKETS,
    MetricsRegistry,
    WALL_CLOCK_METRICS,
)
from repro.core.runtime import UDCRuntime
from repro.core.telemetry import Telemetry
from repro.core.timeline import render_span_tree, span_gantt
from repro.distsem.resilience import CircuitBreakerRegistry
from repro.economics.cost import compare_costs
from repro.execenv.environments import EnvKind
from repro.execenv.warmpool import WarmPool
from repro.hardware.topology import DatacenterSpec, build_datacenter
from repro.service import TenantSpec, UDCService
from repro.simulator.rng import RngRegistry
from repro.workloads.medical import build_medical_app
from repro.workloads.tenants import (
    default_tenant_profiles,
    generate_tenant_trace,
)

SPEC = DatacenterSpec(pods=1, racks_per_pod=4)

FIG2_INPUTS = {
    "A1": {"pixels": list(range(256)), "patient": "p-obs"},
    "A3": {"patient": "p-obs"},
    "B1": {"consented": True},
}


# ----------------------------------------------- satellite: cost zero baseline


def test_saving_fraction_zero_baseline_is_infinite_loss():
    # A free baseline vs. a paid alternative is an infinite loss, not the
    # silent "no saving" 0.0 this used to report.
    comparison = compare_costs("udc", 0.0, "iaas", 5.0)
    assert comparison.ratio == 0.0
    assert comparison.saving_fraction == float("-inf")
    assert comparison.as_dict()["saving"] == float("-inf")


def test_saving_fraction_two_zero_costs_is_a_wash():
    comparison = compare_costs("a", 0.0, "b", 0.0)
    assert comparison.ratio == 1.0
    assert comparison.saving_fraction == 0.0


def test_saving_fraction_normal_cases_unchanged():
    assert compare_costs("a", 10.0, "b", 5.0).saving_fraction == 0.5
    assert compare_costs("a", 5.0, "b", 10.0).saving_fraction == -1.0


# ------------------------------------------- satellite: prewarm during outage


def test_prewarm_is_deferred_during_outage():
    pool = WarmPool(target_depth=2)
    pool.exhaust()
    pool.prewarm(EnvKind.CONTAINER, False, count=3)

    # No shells land while the outage holds; the request is accounted.
    assert pool.depth(EnvKind.CONTAINER, False) == 0
    assert pool.stats.prewarms_deferred == 3
    assert pool.stats.prewarmed == 0

    # Misses during the outage are attributed to it.
    assert not pool.try_acquire(EnvKind.CONTAINER, False)
    assert pool.stats.misses == 1
    assert pool.stats.outage_misses == 1

    # After restore, the banked prewarms replay exactly once; a racing
    # refill sees the shelf already past target and must not add the
    # same shells a second time (the double-count bug).
    assert pool.restore() == 3
    assert pool.stats.prewarmed == 3
    assert pool.refill() == 0
    assert pool.depth(EnvKind.CONTAINER, False) == 3
    assert pool.try_acquire(EnvKind.CONTAINER, False)
    assert pool.stats.outage_misses == 1  # post-outage misses not attributed


def test_prewarm_normal_path_still_stocks():
    pool = WarmPool(target_depth=2)
    pool.prewarm(EnvKind.CONTAINER, False, count=2)
    assert pool.depth(EnvKind.CONTAINER, False) == 2
    assert pool.stats.prewarmed == 2
    assert pool.stats.prewarms_deferred == 0


def test_warm_pool_metrics_maintained_incrementally():
    pool = WarmPool(target_depth=1)
    telemetry = Telemetry()
    pool.telemetry = telemetry

    pool.prewarm(EnvKind.CONTAINER, False)
    assert telemetry.metrics.value("udc_warm_pool_prewarmed_total") == 1.0

    assert pool.try_acquire(EnvKind.CONTAINER, False)
    assert not pool.try_acquire(EnvKind.CONTAINER, False)
    assert telemetry.metrics.value("udc_warm_pool_hits_total") == 1.0
    assert telemetry.metrics.value("udc_warm_pool_misses_total") == 1.0
    assert telemetry.metrics.value("udc_warm_pool_hit_rate") == 0.5

    pool.exhaust()
    assert not pool.try_acquire(EnvKind.CONTAINER, False)
    assert telemetry.metrics.value("udc_warm_pool_outage_misses_total") == 1.0


# --------------------------------------------- satellite: sample epsilon clamp


def test_sample_clamps_float_noise_on_both_bounds():
    telemetry = Telemetry()
    telemetry.sample(0.0, "m", compute_utilization=-1e-12,
                     allocated_amount=1.0)
    telemetry.sample(1.0, "m", compute_utilization=1.0 + 1e-12,
                     allocated_amount=1.0)
    values = [s.compute_utilization for s in telemetry.samples_for("m")]
    assert values == [0.0, 1.0]


def test_sample_still_rejects_out_of_range_values():
    telemetry = Telemetry()
    with pytest.raises(ValueError):
        telemetry.sample(0.0, "m", compute_utilization=-0.01,
                         allocated_amount=1.0)
    with pytest.raises(ValueError):
        telemetry.sample(0.0, "m", compute_utilization=1.01,
                         allocated_amount=1.0)


# --------------------------------------------------------------- span basics


def test_span_tree_parent_child_and_indexes():
    telemetry = Telemetry()
    root = telemetry.span_start(0.0, "m", "task", "lifecycle", tenant="t")
    child = telemetry.span_start(0.5, "m", "attempt", "execute",
                                 parent=root, attempt=0)
    telemetry.span_end(child, 1.0)
    telemetry.span_end(root, 1.5)

    assert child.parent_id == root.span_id
    assert root.parent_id is None
    assert telemetry.root_spans() == [root]
    assert telemetry.span_children()[root.span_id] == [child]
    assert telemetry.spans_for("m") == [root, child]
    assert child.duration_s == 0.5
    assert root.status == "ok"

    payload = child.to_dict()
    assert payload["phase"] == "execute"
    assert payload["attrs"] == {"attempt": 0}
    json.dumps(payload)  # serializable


def test_span_end_tolerates_none_and_null_span():
    telemetry = Telemetry()
    telemetry.span_end(None, 1.0)          # nothing in flight
    telemetry.span_end(NULL_SPAN, 1.0)     # from a disabled period
    assert NULL_SPAN.end_s is None

    open_span = telemetry.span_start(0.0, "m", "task", "lifecycle")
    assert open_span.duration_s == 0.0     # open spans are zero-length
    telemetry.span_end(open_span, 2.0, status="error")
    assert open_span.status == "error"


def test_null_span_parent_is_treated_as_root():
    telemetry = Telemetry()
    span = telemetry.span_start(0.0, "m", "task", "lifecycle",
                                parent=NULL_SPAN)
    assert span.parent_id is None


def test_disabled_telemetry_spans_and_metrics_are_noops():
    telemetry = Telemetry(enabled=False)
    span = telemetry.span_start(0.0, "m", "task", "lifecycle")
    assert span is NULL_SPAN
    span.attrs.update(device="gpu-0")      # vanishes
    assert span.attrs == {}
    telemetry.span_end(span, 1.0)

    telemetry.inc("udc_retries_total")
    telemetry.observe("udc_task_wall_seconds", 1.0)
    telemetry.gauge_set("udc_breakers_open", 1.0)

    assert telemetry.spans == []
    # The registry is never even constructed on the disabled path.
    assert telemetry._metrics is None


# ------------------------------------------------------------ metrics registry


def test_registry_counters_gauges_and_labels():
    registry = MetricsRegistry()
    registry.counter("c", {"k": "a"}).inc()
    registry.counter("c", {"k": "a"}).inc(2.0)
    registry.counter("c", {"k": "b"}).inc()
    registry.gauge("g").set(0.25)

    assert registry.value("c", {"k": "a"}) == 3.0
    assert registry.value("c", {"k": "b"}) == 1.0
    assert registry.value("g") == 0.25
    assert registry.value("never-emitted") == 0.0

    with pytest.raises(ValueError):
        registry.gauge("c")                # kind is sticky per name
    with pytest.raises(ValueError):
        registry.counter("c").inc(-1.0)    # counters only go up


def test_histogram_buckets_and_quantile():
    registry = MetricsRegistry()
    histogram = registry.histogram("h")
    for value in (0.0001, 0.3, 400.0):     # below, middle, above all buckets
        histogram.observe(value)

    assert histogram.count == 3
    assert histogram.sum == pytest.approx(400.3001)
    assert histogram.bucket_counts[0] == 1                 # <= 0.0005
    assert histogram.bucket_counts[-1] == 2                # <= 300.0
    assert histogram.quantile(0.5) == 0.5                  # upper bound
    assert histogram.quantile(1.0) == math.inf             # beyond buckets
    assert registry.histogram("h").buckets == tuple(sorted(DEFAULT_BUCKETS))

    with pytest.raises(ValueError):
        registry.value("h")                # histograms read via family
    with pytest.raises(ValueError):
        histogram.quantile(1.5)


def test_prometheus_rendering():
    registry = MetricsRegistry()
    registry.counter("udc_retries_total").inc()
    registry.counter("c", {"k": "a"}).inc(3.0)
    registry.histogram("h").observe(0.2)

    text = registry.render_prometheus()
    assert "# HELP udc_retries_total Task re-executions after failures." in text
    assert "# TYPE udc_retries_total counter" in text
    assert "udc_retries_total 1" in text
    assert 'c{k="a"} 3' in text
    assert 'h_bucket{le="0.5"} 1' in text
    assert 'h_bucket{le="+Inf"} 1' in text
    assert "h_sum 0.2" in text
    assert "h_count 1" in text


def test_to_dict_excludes_wall_clock_families_by_default():
    registry = MetricsRegistry()
    registry.counter("udc_retries_total").inc()
    for name in WALL_CLOCK_METRICS:
        registry.histogram(name).observe(0.001)

    snapshot = registry.to_dict()
    assert "udc_retries_total" in snapshot
    for name in WALL_CLOCK_METRICS:
        assert name not in snapshot

    full = registry.to_dict(include_wall_clock=True)
    for name in WALL_CLOCK_METRICS:
        assert name in full
    json.dumps(full)  # serializable either way


def _eager_render(registry, include_wall_clock=False):
    """Reference snapshot: every family rendered from scratch, sharing
    nothing with the registry's cached renderings."""
    out = {}
    for family in registry.families():
        if not include_wall_clock and family.name in WALL_CLOCK_METRICS:
            continue
        values = []
        for key in sorted(family.instruments):
            instrument = family.instruments[key]
            entry = {"labels": dict(key)}
            if family.kind == "histogram":
                entry["buckets"] = {
                    f"{bound:g}": count for bound, count in zip(
                        instrument.buckets, instrument.bucket_counts)}
                entry["buckets"]["+Inf"] = instrument.count
                entry["sum"] = instrument.sum
                entry["count"] = instrument.count
            else:
                entry["value"] = instrument.value
            values.append(entry)
        out[family.name] = {"type": family.kind, "help": family.help,
                            "values": values}
    return out


def test_earlier_snapshot_unchanged_by_later_activity():
    registry = MetricsRegistry()
    registry.counter("c", {"k": "a"}).inc()
    registry.gauge("g").set(0.5)
    registry.histogram("h").observe(0.2)
    registry.counter("still").inc()
    registry.counter("lazy", {"k": "a"})
    registry.gauge("idle", {"k": "a"})
    first = registry.to_dict()
    first_bytes = json.dumps(first)
    capture = registry.capture()

    registry.counter("c", {"k": "a"}).inc(2.0)
    registry.counter("c", {"k": "b"}).inc()     # new instrument
    registry.gauge("g").dec(0.25)
    registry.histogram("h").observe(7.0)
    registry.counter("added").inc()              # new family
    # New instruments with no update yet still show up.
    registry.counter("lazy", {"k": "b"})
    registry.gauge("idle", {"k": "b"})
    second = registry.to_dict()

    assert json.dumps(first) == first_bytes
    assert second is not first
    assert json.dumps(second) == json.dumps(_eager_render(registry))
    # A capture taken with the first snapshot still renders it.
    assert json.dumps(capture.to_dict()) == first_bytes
    # Versioned: an untouched instrument saves no history, a touched
    # one saves the state the capture saw, once.
    assert registry.counter("still")._states == []
    assert registry.counter("c", {"k": "a"})._states == [1.0]
    assert second["c"]["values"][1]["value"] == 1.0


_NAMES = ("c", "g", "h")
_KINDS = {"c": "counter", "g": "gauge", "h": "histogram"}
_op = st.tuples(
    st.sampled_from(("inc", "set", "observe", "snapshot")),
    st.sampled_from(_NAMES),
    st.sampled_from(("", "a", "b", "c", "d")),
    st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
)


@given(ops=st.lists(_op, max_size=60))
@settings(max_examples=150, deadline=None)
def test_to_dict_equals_scratch_render_and_keeps_earlier_snapshots(ops):
    """Property: under any interleaving of inc/set/observe, new label
    sets and snapshots, every snapshot equals a from-scratch render of
    the registry at that moment and never changes afterwards."""
    registry = MetricsRegistry()
    taken = []
    for action, name, label, amount in ops:
        labels = {"k": label} if label else None
        kind = _KINDS[name]
        if action == "snapshot":
            snapshot = registry.to_dict()
            expected = json.dumps(_eager_render(registry))
            assert json.dumps(snapshot) == expected
            taken.append((snapshot, expected))
        elif kind == "counter":
            registry.counter(name, labels).inc(abs(amount))
        elif kind == "gauge":
            gauge = registry.gauge(name, labels)
            if action == "inc":
                gauge.inc(amount)
            else:
                gauge.set(amount)
        else:
            registry.histogram(name, labels).observe(abs(amount))
    final = registry.to_dict()
    assert json.dumps(final) == json.dumps(_eager_render(registry))
    for snapshot, rendered in taken:
        assert json.dumps(snapshot) == rendered


_CAPTURE_NAMES = ("c", "g", "h", "late_c", "late_g", "late_h")
_capture_op = st.tuples(
    st.sampled_from(("update", "update", "adjust", "touch", "capture",
                     "to_dict")),
    st.sampled_from(_CAPTURE_NAMES),
    st.sampled_from(("", "a")),
    st.sampled_from((0.0, -0.0, 1.0, 2.5, 1, float("nan"), 7.0)),
)


@given(ops=st.lists(_capture_op, max_size=80))
# One instrument updated between three captures: the middle capture
# reads a saved state, not the first or the live one.
@example(ops=[("update", "c", "", 1.0), ("capture", "c", "", 0.0),
              ("update", "c", "", 1.0), ("capture", "c", "", 0.0),
              ("update", "c", "", 1.0)])
@settings(max_examples=200, deadline=None)
def test_captures_render_what_an_eager_render_read_at_capture(ops):
    """Property: under any interleaving of mutations, families and label
    sets born after a capture (a "touch" creates one without updating
    it), other captures and live to_dict() reads, every capture renders
    exactly what an eager render read when it was taken."""
    registry = MetricsRegistry()
    taken = []
    for action, name, label, amount in ops:
        labels = {"k": label} if label else None
        kind = _KINDS[name[-1]]
        if action == "capture":
            taken.append((registry.capture(),
                          json.dumps(_eager_render(registry))))
        elif action == "to_dict":
            assert (json.dumps(registry.to_dict())
                    == json.dumps(_eager_render(registry)))
        elif kind == "gauge":
            gauge = registry.gauge(name, labels)
            if action == "update":
                gauge.set(amount)
            elif action == "adjust":
                gauge.dec(amount)
        else:
            instrument = (registry.counter(name, labels) if kind == "counter"
                          else registry.histogram(name, labels))
            if action != "touch" and amount == amount:
                if kind == "counter":
                    instrument.inc(abs(amount))
                else:
                    instrument.observe(abs(amount))
    for capture, rendered in taken:
        assert json.dumps(capture.to_dict()) == rendered


def test_rerender_replaces_only_changed_entries():
    """A family re-rendered after one label's update changes only that
    entry, leaves the earlier rendering untouched, and only the updated
    instrument saves history for the capture before it."""
    registry = MetricsRegistry()
    for tenant in range(8):
        registry.counter("per_tenant", {"tenant": f"t{tenant}"}).inc()
    capture = registry.capture()
    first = registry.to_dict()["per_tenant"]
    registry.counter("per_tenant", {"tenant": "t3"}).inc()
    second = registry.to_dict()["per_tenant"]
    assert second is not first
    assert [entry["value"] for entry in first["values"]] == [1.0] * 8
    assert second["values"][3]["value"] == 2.0
    assert all(second["values"][i] == first["values"][i]
               for i in range(8) if i != 3)
    assert capture.to_dict()["per_tenant"] == first
    histories = [registry.counter("per_tenant", {"tenant": f"t{t}"})._states
                 for t in range(8)]
    assert histories == [[]] * 3 + [[1.0]] + [[]] * 4


def test_gauge_signed_zero_and_nan_render_exactly():
    registry = MetricsRegistry()
    gauge = registry.gauge("g")
    rendered = []
    captures = []
    for value in (-0.0, 0.0, float("nan"), float("nan"), -0.0):
        gauge.set(value)
        rendered.append(
            json.dumps(registry.to_dict()["g"]["values"][0]["value"]))
        captures.append(registry.capture())
    assert rendered == ["-0.0", "0.0", "NaN", "NaN", "-0.0"]
    # Each capture's history entry keeps the exact value it saw.
    assert [json.dumps(capture.to_dict()["g"]["values"][0]["value"])
            for capture in captures] == rendered
    # Only a set that is not bit-identical saves history.
    gauge.set(0.5)
    registry.capture()
    saved = len(gauge._states)
    gauge.set(0.5)
    assert len(gauge._states) == saved
    gauge.set(1.0)
    assert len(gauge._states) == saved + 1
    one = registry.capture()
    gauge.set(1)                           # equal, but renders as 1
    assert json.dumps(registry.to_dict()["g"]["values"][0]["value"]) == "1"
    assert json.dumps(one.to_dict()["g"]["values"][0]["value"]) == "1.0"


def test_mean_utilization_equals_resum_bit_for_bit():
    rng = random.Random(20)
    telemetry = Telemetry()
    modules = ("a", "b", "c")
    assert telemetry.mean_utilization("a") is None
    # Clamped edges (float noise either side of [0, 1], signed zero), a
    # run of values too small to move a plain running sum (where a
    # compensated sum differs), and a seeded uniform stream.
    edges = [-1e-12, 1.0 + 1e-12, -0.0, 0.0, 1.0, 5e-324, 1e-300]
    stream = edges + [1e-16] * 50 + [rng.random() for _ in range(2000)]
    rng.shuffle(stream)
    for step, value in enumerate(stream):
        module = modules[rng.randrange(len(modules))]
        telemetry.sample(float(step), module, value, allocated_amount=1.0)
        samples = telemetry.samples_for(module)
        expected = (sum(s.compute_utilization for s in samples)
                    / len(samples))
        assert telemetry.mean_utilization(module).hex() == expected.hex()
    tail = Telemetry()
    for value in [1.0] + [1e-16] * 10:
        tail.sample(0.0, "m", value, allocated_amount=1.0)
    expected = sum(s.compute_utilization for s in tail.samples_for("m")) / 11
    assert tail.mean_utilization("m").hex() == expected.hex()


def test_service_run_metrics_equal_eager_render_at_collection(monkeypatch):
    """Every RunResult.metrics of a multi-round, multi-tenant run holds
    exactly what a from-scratch render read when it was collected, and
    still does after the rest of the run."""
    expected = {}
    capture = MetricsRegistry.capture

    def recording(self):
        taken = capture(self)
        expected[taken] = json.dumps(_eager_render(self))
        return taken

    monkeypatch.setattr(MetricsRegistry, "capture", recording)
    service = UDCService(build_datacenter(SPEC), telemetry=Telemetry())
    profiles = default_tenant_profiles(count=6, seed=1)
    for profile in profiles:
        service.register_tenant(profile.name,
                                TenantSpec(weight=profile.weight))
    trace = generate_tenant_trace(profiles, peak_rate_per_minute=3.0,
                                  horizon_s=600.0, seed=4)
    for index, arrival in enumerate(trace.submissions, start=1):
        service.submit(arrival.tenant, arrival.dag, arrival.definition,
                       inputs=arrival.inputs)
        if index % 4 == 0:
            service.drain()
    service.drain()

    results = [handle.result for handle in service.handles
               if not handle.cached and handle.result is not None]
    assert len(results) >= 10
    tenants = {result.tenant for result in results}
    assert len(tenants) >= 3
    for result in results:
        assert json.dumps(result.metrics) == expected[result.metrics_capture]
    # Consecutive results differ: each one read the registry at its own
    # collection.
    assert results[0].metrics != results[-1].metrics


def _serve_trace(tenants=6, horizon_s=600.0):
    service = UDCService(build_datacenter(SPEC), telemetry=Telemetry())
    profiles = default_tenant_profiles(count=tenants, seed=1)
    for profile in profiles:
        service.register_tenant(profile.name,
                                TenantSpec(weight=profile.weight))
    trace = generate_tenant_trace(profiles, peak_rate_per_minute=3.0,
                                  horizon_s=horizon_s, seed=4)
    for index, arrival in enumerate(trace.submissions, start=1):
        service.submit(arrival.tenant, arrival.dag, arrival.definition,
                       inputs=arrival.inputs)
        if index % 4 == 0:
            service.drain()
    service.drain()
    return service


def _tracked_after(run):
    """Tracked objects alive after ``run()``, with its result held."""
    kept = run()
    for _ in range(3):   # untracks atom-only tuples, nested ones too
        gc.collect()
    count = len(gc.get_objects())
    del kept
    return count


def test_unread_run_metrics_render_nothing_and_retain_little(monkeypatch):
    """Collecting a result's metrics is O(1): a telemetry-on run that
    never reads ``result.metrics`` renders no entry, and its captures
    (with the history they make instruments keep) retain at most 5
    tracked objects per finalized result."""
    renders = []
    render = MetricsRegistry._render

    def counting(self, epoch, include_wall_clock):
        renders.append(epoch)
        return render(self, epoch, include_wall_clock)

    monkeypatch.setattr(MetricsRegistry, "_render", counting)
    _serve_trace()                         # warm imports and caches
    service = None

    def captured():
        nonlocal service
        service = _serve_trace()
        return service

    with_captures = _tracked_after(captured)
    assert renders == []
    results = [handle.result for handle in service.handles
               if handle.result is not None and not handle.cached]
    assert len(results) >= 10
    assert all(result.metrics_capture is not None for result in results)
    assert all(result._metrics is None for result in results)
    service = None

    monkeypatch.setattr(MetricsRegistry, "capture", lambda self: None)
    without_captures = _tracked_after(_serve_trace)
    assert (with_captures - without_captures) / len(results) <= 5


def test_breaker_trips_feed_the_registry():
    telemetry = Telemetry()
    breakers = CircuitBreakerRegistry(threshold=1, cooldown_s=100.0)
    breakers.telemetry = telemetry
    breakers.record_failure("gpu-0", 0.0)
    breakers.record_failure("gpu-1", 1.0)
    breakers.record_success("gpu-0", 2.0)   # success does not trip anything

    assert telemetry.metrics.value("udc_breaker_trips_total") == 2.0
    assert telemetry.metrics.value("udc_breakers_open") == 2.0


# --------------------------------------------- golden fig2 trace with faults


def run_fig2_with_faults():
    """The Figure-2 medical pipeline with one retried and one hedged module.

    A4's failure domain crashes at t=3.0 (mid-execution), exercising the
    recover + retry path; B2's device turns straggler at t=40.0 (after it
    has started), so its hedge policy launches a duplicate that wins.
    """
    dag, definition = build_medical_app()
    definition["A4"]["distributed"]["retry"] = {
        "max_attempts": 3, "base_backoff_s": 0.5, "jitter": 0.0,
    }
    definition["B2"]["distributed"]["hedge"] = 1.5
    runtime = UDCRuntime(
        build_datacenter(SPEC),
        warm_pool=WarmPool(enabled=True),
        prewarm=True,
        rng=RngRegistry(7),
    )
    runtime.injector.slow_at(40.0, "fd:B2", factor=10.0)
    submission = runtime.submit(
        dag, definition, tenant="hospital", inputs=FIG2_INPUTS,
        failure_plan=[(3.0, "fd:A4")],
    )
    runtime.drain()
    return runtime, submission.result


@pytest.fixture(scope="module")
def fig2_run():
    return run_fig2_with_faults()


def test_fig2_completes_with_retry_and_hedge(fig2_run):
    runtime, result = fig2_run
    assert set(result.outputs) == {"A1", "A2", "A3", "A4", "B1", "B2"}
    assert result.row("A4").retries == 1
    assert result.row("B2").hedges == 1
    assert result.row("B2").hedge_won


def test_fig2_golden_span_tree_retried_module(fig2_run):
    runtime, _result = fig2_run
    telemetry = runtime.telemetry
    children = telemetry.span_children()

    root = next(s for s in telemetry.spans_for("A4") if s.name == "task")
    assert root.phase == "lifecycle"
    assert root.status == "ok"
    assert root.attrs["tenant"] == "hospital"

    # Golden shape: first attempt interrupted by the injected crash, a
    # recover window, then a successful retry attempt.
    shape = [(s.name, s.phase, s.status) for s in children[root.span_id]]
    assert shape == [
        ("wait-deps", "schedule", "ok"),
        ("attempt", "execute", "interrupted"),
        ("recover", "recover", "ok"),
        ("attempt", "retry", "ok"),
    ]

    retry_attempt = children[root.span_id][-1]
    assert retry_attempt.attrs["attempt"] == 1
    retry_children = [(s.name, s.phase, s.status)
                      for s in children[retry_attempt.span_id]]
    assert retry_children == [
        ("env-acquire", "env-acquire", "ok"),
        ("transfer-in", "execute", "ok"),
        ("execute", "execute", "ok"),
        ("transfer-out", "execute", "ok"),
    ]

    # Every A4 span except the root hangs off the lifecycle tree.
    span_ids = {root.span_id}
    frontier = [root]
    while frontier:
        nxt = [c for s in frontier for c in children.get(s.span_id, ())]
        span_ids.update(s.span_id for s in nxt)
        frontier = nxt
    lifecycle_spans = [s for s in telemetry.spans_for("A4")
                       if s.span_id in span_ids]
    scheduler_spans = [s for s in telemetry.spans_for("A4")
                       if s.span_id not in span_ids]
    assert all(s.name in ("schedule", "allocate") for s in scheduler_spans)
    assert len(lifecycle_spans) + len(scheduler_spans) \
        == len(telemetry.spans_for("A4"))


def test_fig2_golden_span_tree_hedged_module(fig2_run):
    runtime, _result = fig2_run
    telemetry = runtime.telemetry
    children = telemetry.span_children()

    root = next(s for s in telemetry.spans_for("B2") if s.name == "task")
    assert root.status == "ok"
    kids = children[root.span_id]

    # The straggler primary is interrupted when the hedge wins.
    primary = next(s for s in kids if s.name == "attempt")
    assert primary.phase == "execute"
    assert primary.status == "interrupted"

    hedge = next(s for s in kids if s.name == "hedge")
    assert hedge.phase == "hedge"
    assert hedge.status == "ok"
    assert hedge.parent_id == root.span_id
    assert hedge.start_s > primary.start_s
    # A hedge runs the same attempt phases as the primary.
    hedge_children = [(s.name, s.phase, s.status)
                      for s in children[hedge.span_id]]
    assert hedge_children == [
        ("env-acquire", "env-acquire", "ok"),
        ("transfer-in", "execute", "ok"),
        ("execute", "execute", "ok"),
        ("transfer-out", "execute", "ok"),
    ]


def test_fig2_no_span_left_running(fig2_run):
    runtime, _result = fig2_run
    assert [s for s in runtime.telemetry.spans if s.status == "running"] \
        == []


def test_fig2_metrics_snapshot(fig2_run):
    runtime, result = fig2_run
    registry = runtime.metrics_snapshot()

    assert registry.value("udc_retries_total") == 1.0
    assert registry.value("udc_hedges_total") == 1.0
    assert registry.value("udc_hedge_wins_total") == 1.0
    assert registry.value("udc_hedge_losses_total") == 0.0
    assert registry.value("udc_deadline_misses_total") == 0.0
    # One failure interrupt: the injected A4 crash.
    assert registry.value("udc_failures_total") == 1.0
    assert registry.value("udc_placements_total", {"kind": "task"}) == 6.0
    assert registry.value("udc_placements_total", {"kind": "data"}) == 4.0
    assert registry.value("udc_warm_pool_hits_total") >= 1.0
    assert 0.0 < registry.value("udc_warm_pool_hit_rate") <= 1.0

    # One wall observation per finished task; env startups cover the six
    # primary attempts, the retry, and the hedge.
    wall = registry.histogram("udc_task_wall_seconds")
    assert wall.count == 6
    startups = registry.histogram("udc_env_startup_seconds")
    assert startups.count == 8

    # Per-device-type pool gauges are collected at snapshot time.
    assert registry.value("udc_pool_capacity_units",
                          {"device_type": "cpu"}) > 0.0

    # The snapshot rides the run report, minus wall-clock families.
    assert result.metrics is not None
    assert result.metrics["udc_retries_total"]["values"][0]["value"] == 1.0
    assert "udc_placement_latency_seconds" not in result.metrics
    assert result.to_json_dict()["metrics"] == result.metrics


def test_fig2_metric_counters_deterministic_across_runs():
    # Counters are exact and must match run to run.
    def counters(result):
        return {name: family["values"]
                for name, family in result.metrics.items()
                if family["type"] == "counter"}

    _, first = run_fig2_with_faults()
    _, second = run_fig2_with_faults()
    assert counters(first) == counters(second)


def test_fig2_report_identical_across_runs_despite_global_counters():
    # Regression for the cross-run histogram jitter once blamed on id
    # counters: store op ids and checkpoint ids are now per-instance, and
    # the remaining process-global counters (device, env, allocation,
    # unit ids) only name things — their values never feed modeled
    # payload sizes or placement order.  Inflate every one of them
    # between two identical runs and the full reports, histogram sums
    # included, must stay byte-for-byte equal.
    import itertools

    from repro.core import bundle as core_bundle
    from repro.execenv import environments as execenv_environments
    from repro.hardware import devices as hardware_devices
    from repro.hardware import pools as hardware_pools
    from repro.hardware import server as hardware_server

    _, first = run_fig2_with_faults()

    globals_to_inflate = [
        (hardware_devices, "_device_ids"),
        (hardware_server, "_server_ids"),
        (hardware_pools, "_alloc_ids"),
        (core_bundle, "_unit_ids"),
        (execenv_environments, "_env_ids"),
    ]
    originals = {}
    for mod, name in globals_to_inflate:
        originals[(mod, name)] = getattr(mod, name)
        # Jump far enough that every generated id string gets longer.
        setattr(mod, name, itertools.count(10_000_000))
    try:
        _, second = run_fig2_with_faults()
    finally:
        for (mod, name), counter in originals.items():
            setattr(mod, name, counter)

    assert json.dumps(first.to_json_dict(), sort_keys=True) \
        == json.dumps(second.to_json_dict(), sort_keys=True)


def test_fig2_span_tree_rendering(fig2_run):
    runtime, _result = fig2_run
    text = render_span_tree(runtime.telemetry)
    assert "A4:task/lifecycle" in text
    assert "A4:attempt/retry" in text
    assert "B2:hedge/hedge" in text
    assert "<interrupted>" in text

    filtered = render_span_tree(runtime.telemetry, module="B2")
    assert "B2:task/lifecycle" in filtered
    assert "A4:" not in filtered

    gantt = span_gantt(runtime.telemetry)
    assert "legend:" in gantt
    b2_row = next(line for line in gantt.splitlines()
                  if line.lstrip().startswith("B2 |"))
    assert "h" in b2_row  # the hedge window is visible


def test_render_span_tree_empty_telemetry():
    assert "no spans recorded" in render_span_tree(Telemetry())
    assert "no lifecycle spans" in span_gantt(Telemetry())


# ------------------------------------------------------ disabled-run guarantee


def test_disabled_telemetry_run_records_nothing():
    dag, definition = build_medical_app()
    runtime = UDCRuntime(
        build_datacenter(SPEC), telemetry=Telemetry(enabled=False),
    )
    result = runtime.run(dag, definition, tenant="hospital",
                         inputs=FIG2_INPUTS)
    assert set(result.outputs) == {"A1", "A2", "A3", "A4", "B1", "B2"}
    assert runtime.telemetry.spans == []
    assert runtime.telemetry._metrics is None  # registry never built
    assert result.metrics is None
    assert result.to_json_dict()["metrics"] is None


# ----------------------------------------------------------------- CLI surface


@pytest.fixture()
def medical_cli_files(tmp_path):
    dag, definition = build_medical_app()
    app_path = tmp_path / "medical.json"
    app_path.write_text(json.dumps(compile_dag(dag).to_dict()))
    spec_path = tmp_path / "medical_spec.json"
    spec_path.write_text(json.dumps(definition))
    return str(app_path), str(spec_path)


def test_cli_trace(medical_cli_files, capsys):
    app_path, spec_path = medical_cli_files
    assert main(["trace", app_path, "--spec", spec_path,
                 "--warm", "--gantt"]) == 0
    out = capsys.readouterr().out
    assert "task/lifecycle" in out
    assert "schedule/schedule" in out
    assert "env-acquire" in out
    assert "legend:" in out  # the --gantt section


def test_cli_trace_json(medical_cli_files, capsys):
    app_path, spec_path = medical_cli_files
    assert main(["trace", app_path, "--spec", spec_path, "--json"]) == 0
    spans = json.loads(capsys.readouterr().out)
    assert any(s["phase"] == "lifecycle" for s in spans)
    parent_ids = {s["span_id"] for s in spans}
    assert all(s["parent_id"] in parent_ids
               for s in spans if s["parent_id"] is not None)


def test_cli_metrics_prometheus(medical_cli_files, capsys):
    app_path, spec_path = medical_cli_files
    assert main(["metrics", app_path, "--spec", spec_path, "--warm"]) == 0
    out = capsys.readouterr().out
    assert "# TYPE udc_placements_total counter" in out
    assert 'udc_placements_total{kind="task"} 6' in out
    assert "udc_task_wall_seconds_count 6" in out
    assert "# TYPE udc_pool_utilization gauge" in out


def test_cli_metrics_json_includes_wall_clock(medical_cli_files, capsys):
    app_path, spec_path = medical_cli_files
    assert main(["metrics", app_path, "--spec", spec_path,
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["udc_placements_total"]["type"] == "counter"
    # The CLI snapshot is for humans, so wall-clock families stay in.
    assert "udc_placement_latency_seconds" in payload
