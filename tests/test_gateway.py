"""Gateway behavior plus the PR-8 serving-layer regression suite.

The gateway tests run a real :class:`~repro.gateway.UDCGateway` on an
ephemeral loopback port and drive it with the real
:class:`~repro.gateway.GatewayClient` — the wire codec, worker pool,
engine ticks, shedding, and shutdown paths are all exercised end to
end.  The regression tests pin the four bugfixes that rode along:
tenant-scoped result caching for sensitivity-labeled apps, timed-drain
finalization, incremental in-flight counters, and lint-before-cache-hit.
"""

import asyncio

import pytest

from repro.analysis import AnalysisError
from repro.appmodel.annotations import AppBuilder
from repro.core.spec import parse_definition
from repro.gateway import GatewayClient, GatewayConfig, GatewayError, \
    UDCGateway
from repro.gateway.wire import WebSocketConnection
from repro.hardware.devices import DeviceType
from repro.hardware.topology import DatacenterSpec, build_datacenter
from repro.service.cache import SubmissionKey, requires_tenant_scope
from repro.service.service import UDCService

SPEC = DatacenterSpec(
    pods=1, racks_per_pod=2,
    devices_per_rack={DeviceType.CPU: 8, DeviceType.GPU: 4,
                      DeviceType.DRAM: 2, DeviceType.SSD: 2},
)


def make_service(**kwargs):
    return UDCService(build_datacenter(SPEC), **kwargs)


def _noop(ctx):
    return None


def cpu_job(name, work=2.0):
    app = AppBuilder(name)
    app.task(name="crunch", work=work)(_noop)
    return app.build(), {"crunch": {"resource": "cheapest"}}


def phi_job(name, encrypted=True, sensitivity="phi"):
    """A PHI-labeled pipeline; ``encrypted=False`` seeds a UDC042 error."""
    app = AppBuilder(name)
    app.task(name="ingest", work=1.0)(_noop)
    vault = app.data("vault", size_gb=1, sensitivity=sensitivity)
    app.writes("ingest", vault, bytes_per_run=1 << 10)
    definition = {
        "ingest": {"resource": "cheapest"},
        "vault": {"resource": "ssd"},
    }
    if encrypted:
        definition["vault"]["execenv"] = {
            "protection": ["encrypt", "integrity"]
        }
    return app.build(), definition


def run_gateway(scenario, service=None, config=None):
    """Start a gateway on an ephemeral port, run ``scenario(gw,
    service)``, and guarantee a shutdown even on failure."""

    async def main():
        svc = service if service is not None else make_service()
        gateway = UDCGateway(
            svc, config or GatewayConfig(port=0, tick_sim_s=0.5))
        await gateway.start()
        try:
            return await scenario(gateway, svc)
        finally:
            await gateway.shutdown()

    return asyncio.run(main())


# ------------------------------------------------------------- tentpole


def test_concurrent_submits_all_complete():
    async def scenario(gateway, service):
        async with GatewayClient(gateway.host, gateway.port) as client:
            await asyncio.gather(*(
                client.register_tenant(f"t{i}") for i in range(5)
            ))
            outcomes = await asyncio.gather(*(
                client.submit_and_wait(
                    f"t{i % 5}", {"archetype": "tiny", "tag": f"t{i % 5}"},
                    inputs={"iter": i}, timeout_s=30,
                )
                for i in range(20)
            ))
        return outcomes

    outcomes = run_gateway(scenario)
    assert len(outcomes) == 20
    assert all(o["done"] and o["status"] == "done" for o in outcomes)
    # Every submission got a distinct service-wide seq.
    assert len({o["seq"] for o in outcomes}) == 20


def test_stream_events_arrive_in_order():
    async def scenario(gateway, service):
        async with GatewayClient(gateway.host, gateway.port) as client:
            session = await client.stream()
            accepted = await client.submit(
                "streamer", {"archetype": "web", "tag": "s"})
            await session.watch(accepted["seq"])
            events = []
            async for event in session.events_until_result(accepted["seq"]):
                events.append(event)
            await session.close()
        return events

    events = run_gateway(scenario)
    # Per-watch event_seq is contiguous from zero: ordered delivery.
    assert [e["event_seq"] for e in events] == list(range(len(events)))
    kinds = [e["event"] for e in events]
    assert kinds[0] == "status"
    assert kinds[-1] == "result"
    # Status transitions replay the lifecycle in order, ending done.
    statuses = [e["status"] for e in events if e["event"] == "status"]
    assert statuses[0] in ("pending", "queued", "running")
    assert statuses[-1] == "done"
    assert statuses == sorted(
        statuses, key=("pending", "queued", "running", "done").index)
    # Spans and the metric summary arrive before the terminal result.
    assert "metric" in kinds and kinds.index("metric") < kinds.index(
        "result")
    assert events[-1]["payload"]["done"] is True


def test_ticks_jump_to_the_next_simulated_event():
    """A lone batch submission takes far fewer engine ticks than its
    simulated makespan in fixed ``tick_sim_s`` steps, and its stream
    still replays the lifecycle in order."""
    config = GatewayConfig(port=0, tick_sim_s=0.05)

    async def scenario(gateway, service):
        async with GatewayClient(gateway.host, gateway.port) as client:
            session = await client.stream()
            accepted = await client.submit(
                "batcher", {"archetype": "batch", "tag": "b"})
            await session.watch(accepted["seq"])
            events = [event async for event in
                      session.events_until_result(accepted["seq"])]
            await session.close()
        ticks = service.telemetry.metrics.value("udc_gateway_ticks_total")
        return events, ticks

    events, ticks = run_gateway(scenario, config=config)
    makespan = events[-1]["payload"]["makespan_s"]
    fixed_steps = makespan / config.tick_sim_s
    assert fixed_steps > 100
    assert 0 < ticks < fixed_steps / 4
    assert [e["event_seq"] for e in events] == list(range(len(events)))
    statuses = [e["status"] for e in events if e["event"] == "status"]
    assert statuses[-1] == "done"
    assert statuses == sorted(
        statuses, key=("pending", "queued", "running", "done").index)


def test_coalesced_frames_keep_every_watch_contiguous(monkeypatch):
    """Several watches share one WebSocket; the server sends each
    wakeup's queued events as one write, and every watch's event_seq
    still runs 0, 1, 2, ... with exactly one result."""
    batch_sizes = []
    send_batch = WebSocketConnection.send_json_batch

    async def recording(self, payloads):
        payloads = list(payloads)
        if not self.mask_frames:  # the server side of the connection
            batch_sizes.append(len(payloads))
        await send_batch(self, payloads)

    monkeypatch.setattr(WebSocketConnection, "send_json_batch", recording)

    async def scenario(gateway, service):
        async with GatewayClient(gateway.host, gateway.port) as client:
            session = await client.stream()
            seqs = []
            for i in range(6):
                accepted = await client.submit(
                    f"w{i % 3}", {"archetype": "tiny", "tag": f"w{i % 3}"},
                    inputs={"i": i})
                seqs.append(accepted["seq"])
                await session.watch(accepted["seq"])
            events = {seq: [] for seq in seqs}
            results = 0
            while results < len(seqs):
                event = await session.next_event()
                assert event is not None
                events[event["seq"]].append(event)
                results += event["event"] == "result"
            await session.close()
        return events

    events = run_gateway(scenario)
    for seq, stream in events.items():
        assert [e["event_seq"] for e in stream] == list(range(len(stream)))
        assert [e["event"] for e in stream].count("result") == 1
        assert stream[-1]["event"] == "result"
    assert max(batch_sizes) > 1
    assert sum(batch_sizes) == sum(len(s) for s in events.values())


def test_load_shed_returns_429_and_consumes_no_quota():
    config = GatewayConfig(port=0, tick_sim_s=0.5, max_live=1)

    async def scenario(gateway, service):
        async with GatewayClient(gateway.host, gateway.port) as client:
            await client.register_tenant("greedy", max_submissions=2)
            # Pause the engine tick so the first submission stays live
            # for the whole shed window — otherwise a fast tick could
            # finalize it between the shed and the assertions below.
            gateway._tick_task.cancel()
            try:
                await gateway._tick_task
            except asyncio.CancelledError:
                pass
            first = await client.submit(
                "greedy", {"archetype": "tiny", "tag": "g"},
                inputs={"iter": 1})
            with pytest.raises(GatewayError) as err:
                await client.submit(
                    "greedy", {"archetype": "tiny", "tag": "g"},
                    inputs={"iter": 2})
            shed = err.value
            assert shed.status == 429
            assert shed.payload["error"] == "shed"
            assert shed.retry_after_s is not None
            # The shed consumed nothing: no submission recorded, no
            # in-flight slot, no lifetime-quota charge.
            assert service.tenants["greedy"].submitted == 1
            assert service.in_flight("greedy") == 1
            gateway._tick_task = asyncio.create_task(gateway._tick_loop())
            await client.result(first["seq"], wait=True, timeout_s=30)
            # With the slot free the tenant's remaining lifetime quota
            # is intact — a post-shed submit is the 2nd of 2 allowed.
            retry = await client.submit_and_wait(
                "greedy", {"archetype": "tiny", "tag": "g"},
                inputs={"iter": 2}, timeout_s=30)
            assert retry["done"]
        return gateway._shed_total

    shed_total = run_gateway(scenario, config=config)
    assert shed_total == 1


def test_graceful_shutdown_drains_in_flight():
    async def scenario(gateway, service):
        async with GatewayClient(gateway.host, gateway.port) as client:
            accepted = [
                await client.submit(
                    "drainer", {"archetype": "batch", "tag": "d"},
                    inputs={"iter": i})
                for i in range(3)
            ]
            assert all(not a.get("done") for a in accepted)
            await client.shutdown_server()
        await gateway.wait_closed()
        # Draining finished everything before the server stopped.
        assert service.open_count == 0
        assert service.pending_count == 0
        statuses = {h.status for h in service.handles}
        assert statuses <= {"done", "unplaceable", "cached"}
        done = [h for h in service.handles if h.status == "done"]
        assert len(done) == 3
        assert all(h.result is not None for h in done)
        return True

    assert run_gateway(scenario)


def test_draining_gateway_refuses_new_submissions():
    async def scenario(gateway, service):
        async with GatewayClient(gateway.host, gateway.port) as client:
            gateway._draining = True
            with pytest.raises(GatewayError) as err:
                await client.submit("x", {"archetype": "tiny", "tag": "x"})
            gateway._draining = False
            assert err.value.status == 503
        return True

    assert run_gateway(scenario)


# --------------------------------------- regression: tenant-scoped cache


def test_sensitive_results_never_serve_across_tenants():
    """Tenant B must not read tenant A's cached PHI result (the key
    once ignored the tenant entirely), nor the result of a
    public-labeled app whose definition asks for encryption (the scope
    decision once read only the DAG's labels)."""
    service = make_service()
    dag, definition = phi_job("records")
    first = service.submit("hospital-a", dag, definition)
    service.drain()
    assert first.result is not None

    other = service.submit("hospital-b", dag, definition)
    assert not other.cached, \
        "tenant B was served tenant A's cached PHI result"
    service.drain()

    # Same tenant still enjoys its own cached result...
    again = service.submit("hospital-a", dag, definition)
    assert again.cached
    # Encryption requested by the definition scopes a public app too.
    sealed_dag, sealed_def = phi_job("sealed", sensitivity="public")
    service.submit("hospital-a", sealed_dag, sealed_def)
    service.drain()
    sealed = service.submit("hospital-b", sealed_dag, sealed_def)
    assert not sealed.cached, \
        "tenant B was served tenant A's cached encrypted result"
    service.drain()
    assert service.submit("hospital-a", sealed_dag, sealed_def).cached
    # ...and public apps keep sharing cross-tenant.
    pub_dag, pub_def = cpu_job("public-job")
    service.submit("hospital-a", pub_dag, pub_def)
    service.drain()
    shared = service.submit("hospital-b", pub_dag, pub_def)
    assert shared.cached


def test_tenant_scope_predicate_and_key_shape():
    phi_dag, _ = phi_job("scoped")
    pub_dag, _ = cpu_job("unscoped")
    sealed_dag, sealed_def = phi_job("sealed", sensitivity="public")
    assert requires_tenant_scope(phi_dag, None)
    assert not requires_tenant_scope(pub_dag, None)
    assert not requires_tenant_scope(sealed_dag, None)
    assert requires_tenant_scope(sealed_dag, sealed_def)
    assert requires_tenant_scope(sealed_dag, parse_definition(sealed_def))
    scoped = SubmissionKey.of("a", phi_dag, None, None).result
    assert scoped[0] == ("tenant", "a")
    assert SubmissionKey.of("b", phi_dag, None, None).result != scoped
    assert SubmissionKey.of("a", sealed_dag, sealed_def, None).scope == \
        ("tenant", "a")
    # Public apps share one key regardless of tenant.
    shared = SubmissionKey.of("a", pub_dag, None, None)
    assert shared.scope == ("shared",)
    assert shared.result == SubmissionKey.of("b", pub_dag, None, None).result


# ------------------------------------- regression: timed-drain finalize


def test_timed_drain_finalizes_completed_handles():
    """``drain(until=...)`` used to return [] and leave finished
    submissions unfinalized until a quiescent drain."""
    service = make_service()
    dag, definition = cpu_job("tick-me")
    handle = service.submit("ticker", dag, definition)
    sim = service.runtime.sim
    finished = service.drain(until=sim.now + 1000.0)
    assert handle in finished
    assert handle.result is not None
    assert handle.outputs == {"crunch": None}
    # Finalization reached the ledger and freed the in-flight slot.
    assert service.in_flight("ticker") == 0
    usage = {u.tenant: u for u in service.rollup()}["ticker"]
    assert usage.completed == 1
    # A tick that completes nothing finalizes nothing.
    assert service.drain(until=sim.now + 1.0) == []


def test_timed_drain_leaves_queued_work_parked():
    service = make_service()
    big_dag, big_def = cpu_job("hog", work=50.0)
    handles = [service.submit("hog", big_dag, big_def,
                              inputs={"i": i}) for i in range(40)]
    sim = service.runtime.sim
    service.drain(until=sim.now + 0.001)
    # A timed drain is a tick, not a verdict: nothing is unplaceable.
    assert all(h.status != "unplaceable" for h in handles)
    service.drain()
    assert all(h.status in ("done", "unplaceable") for h in handles)


# ------------------------------- regression: incremental in-flight count


def test_in_flight_matches_reference_scan_throughout():
    service = make_service()
    dag, definition = cpu_job("counted")
    tenants = ["alpha", "beta"]

    def assert_equivalent():
        for tenant in tenants + ["never-seen"]:
            assert service.in_flight(tenant) == \
                service._in_flight_scan(tenant)

    assert_equivalent()
    handles = []
    for index in range(6):
        handles.append(service.submit(tenants[index % 2], dag, definition,
                                      inputs={"i": index}))
        assert_equivalent()
    sim = service.runtime.sim
    service.drain(until=sim.now + 1e9)
    assert_equivalent()
    # Cache hits are never live.
    hit = service.submit("alpha", dag, definition, inputs={"i": 0})
    assert hit.cached
    assert_equivalent()
    service.drain()
    assert_equivalent()
    assert service.in_flight("alpha") == 0
    assert service.in_flight("beta") == 0


# ------------------------------------ regression: lint before cache hit


def test_cache_hit_still_lints():
    """A result cached under a lint-free service must not bypass the
    front-door analyzer once linting is on (cache hits used to
    short-circuit ``_lint`` entirely)."""
    service = make_service(lint=False)
    dag, definition = phi_job("leaky", encrypted=False)
    service.submit("clinic", dag, definition)
    service.drain()
    hit = service.submit("clinic", dag, definition)
    assert hit.cached  # lint off: the cache serves the defect freely

    service.lint = True
    with pytest.raises(AnalysisError) as err:
        service.submit("clinic", dag, definition)
    assert any(d.code == "UDC042" for d in err.value.report)


def test_lint_memo_replays_metrics_identically():
    service = make_service()
    dag, definition = cpu_job("relint")
    service.submit("m", dag, definition, inputs={"i": 1})
    registry = service.telemetry.metrics
    counter = registry.counter("udc_lint_checks_total",
                               {"tenant": "m"})
    first = counter.value
    service.submit("m", dag, definition, inputs={"i": 2})
    # Memoized verdict, same metric emission.
    assert counter.value == first + 1


# ------------------------------------ regression: tenant registration


@pytest.mark.parametrize("body", [
    '{"name": "t", "weight": "heavy"}',
    '{"name": "t", "weight": 0}',
    '{"name": "t", "max_in_flight": "3"}',
    '{"name": "t", "weight": 1e309}',
    '{"name": "t", "weight": NaN}',
    '{"name": "t", "max_submissions": true}',
], ids=["str-weight", "zero-weight", "str-quota", "inf-weight",
        "nan-weight", "bool-quota"])
def test_malformed_tenant_body_is_a_400(body):
    """These used to surface as 500 ``internal`` — or, for a non-finite
    weight, register a tenant whose stride pass never advances."""
    async def scenario(gateway, service):
        async with GatewayClient(gateway.host, gateway.port) as client:
            with pytest.raises(GatewayError) as err:
                await client._json("POST", "/v1/tenants", body)
        assert err.value.status == 400
        assert err.value.payload["error"] == "bad-request"
        assert "t" not in service.tenants
        return True

    assert run_gateway(scenario)


def test_tenant_registration_builds_a_spec():
    async def scenario(gateway, service):
        async with GatewayClient(gateway.host, gateway.port) as client:
            reply = await client.register_tenant("t", weight=2,
                                                 max_in_flight=3)
        assert reply == {"name": "t", "weight": 2.0}
        spec = service.spec_of("t")
        assert spec.weight == 2.0 and spec.quota.max_in_flight == 3
        assert spec.quota.max_submissions is None
        return True

    assert run_gateway(scenario)


# ------------------------------------- regression: per-submission spans


def test_repeated_submission_streams_only_its_own_spans():
    """A second submission of the same (tenant, app) streams its own
    lifecycle spans, not its predecessor's as well."""

    async def scenario(gateway, service):
        streamed = []
        async with GatewayClient(gateway.host, gateway.port) as client:
            session = await client.stream()
            for run in range(2):
                accepted = await client.submit(
                    "repeater", {"archetype": "web", "tag": "same"},
                    inputs={"run": run})
                await session.watch(accepted["seq"])
                streamed.append([
                    event["span"]
                    async for event in session.events_until_result(
                        accepted["seq"])
                    if event["event"] == "span"])
            await session.close()
        return streamed, service.handles

    (first, second), handles = run_gateway(scenario)
    assert [h.app for h in handles] == [handles[0].app] * 2
    assert first and len(second) == len(first)
    first_ids = {span["span_id"] for span in first}
    assert not first_ids & {span["span_id"] for span in second}
    own = handles[1].submission.spans
    assert [span["span_id"] for span in second] == [s.span_id for s in own]
