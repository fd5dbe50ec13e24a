"""`UDCGateway`: the asyncio front door over :class:`UDCService`.

One event loop, three moving parts:

* **Connection handlers** parse keep-alive HTTP/1.1 requests
  (:mod:`repro.gateway.wire`) and route them.  Handlers that touch the
  control plane borrow a token from a
  :class:`~repro.gateway.limiter.CapacityLimiter` — the bounded worker
  pool — so a burst queues at the front door instead of piling
  unbounded synchronous work onto the loop.  Service calls themselves
  are synchronous and atomic (no awaits inside), so the discrete-event
  core never sees interleaved mutation.
* **One engine task** (:meth:`UDCGateway._tick_loop`) advances the
  simulated clock in timed ticks — ``service.drain(until=...)`` —
  finalizing completions as they happen.  A tick runs ``tick_sim_s``,
  or on to the next simulated event when that is later and nothing
  waits to be dispatched, so no tick covers an interval in which
  nothing happens.  A full ``drain()`` is reserved for shutdown:
  quiescent drains mark still-queued submissions unplaceable, which is
  a verdict a live server must not issue every tick.
* **Overload control**: past a live-submission watermark
  (``max_live``), admission is fair-share gated with the service's own
  weighted policy — a tenant already at or over its weighted share of
  the watermark is shed with ``429`` and a measured ``Retry-After``
  (an EWMA of the recent finalization rate), while tenants under their
  share are still admitted.  Shed requests consume no tenant quota and
  no control-plane work.

The streaming channel (``GET /v1/stream`` + WebSocket upgrade) carries
ordered per-submission events: ``status`` transitions as ticks observe
them, closed lifecycle ``span``s and a ``metric`` summary at
completion, then a terminal ``result``.  Each watch numbers its events
with a contiguous ``event_seq`` so clients can assert ordering.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import math
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.appmodel.annotations import AppBuilder
from repro.appmodel.dag import DagValidationError, ModuleDAG
from repro.appmodel.loader import load_program
from repro.core.spec import SpecError
from repro.gateway.limiter import CapacityLimiter
from repro.gateway.wire import (
    MAX_HEADER_BYTES,
    WebSocketConnection,
    WireError,
    read_request,
    websocket_accept_value,
    write_response,
)
from repro.service.service import SubmissionHandle, UDCService
from repro.service.tenants import QuotaExceeded, TenantQuota, TenantSpec
from repro.workloads.cluster import ARCHETYPE_BUILDERS

__all__ = ["GatewayConfig", "UDCGateway"]


def _gateway_noop(ctx):
    """Task body for the gateway's built-in tiny archetype (module-level
    so DAGs stay picklable by reference, as in the cluster workload)."""
    return None


def _is_number(value: Any, kind=(int, float)) -> bool:
    """A JSON number of ``kind`` (``true``/``false`` parse as ints; they
    are not numbers here)."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _tiny_app(tag: str) -> Tuple[ModuleDAG, Dict]:
    """The smallest useful app: one cheap CPU task.  Load generators
    submit it to measure the serving path, not the placement search."""
    app = AppBuilder(f"tiny-{tag}")
    app.task(name="crunch", work=0.5)(_gateway_noop)
    return app.build(), {"crunch": {"resource": "cheapest"}}


#: archetype name -> builder(tag) -> (dag, default definition)
_APP_BUILDERS = {
    name: builder for name, (builder, _weight) in ARCHETYPE_BUILDERS.items()
}
_APP_BUILDERS["tiny"] = _tiny_app


@dataclass
class GatewayConfig:
    """Tunables for one gateway instance."""

    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port (read it back from :attr:`UDCGateway.port`)
    port: int = 0
    #: worker-pool size: concurrent requests allowed past the front door
    workers: int = 64
    #: live-submission watermark where fair-share load shedding engages
    max_live: int = 512
    #: simulated seconds the engine advances per tick, at least: with
    #: nothing waiting to be dispatched, a tick runs on to the next
    #: simulated event when that is later (an empty event heap keeps
    #: this fixed step)
    tick_sim_s: float = 0.05
    #: real seconds the engine sleeps when there is no open work
    idle_sleep_s: float = 0.002
    #: LRU capacity for DAGs built from submission payloads
    dag_cache_capacity: int = 512
    #: default long-poll timeout for ``?wait=1`` result fetches
    wait_timeout_s: float = 30.0


class _HttpError(Exception):
    """A handler outcome that is an HTTP error, not a crash."""

    def __init__(self, status: int, body: Dict[str, Any],
                 headers: Optional[Dict[str, str]] = None):
        super().__init__(body.get("error", str(status)))
        self.status = status
        self.body = body
        self.headers = headers


@dataclass
class _Watch:
    """One WebSocket subscription to one submission's lifecycle."""

    seq: int
    queue: "asyncio.Queue[Optional[Dict[str, Any]]]"
    last_status: str = ""
    #: contiguous per-watch event counter (clients assert ordering on it)
    event_seq: int = 0
    done: bool = field(default=False)


class UDCGateway:
    """Serve one :class:`UDCService` over HTTP/1.1 + WebSocket."""

    def __init__(self, service: UDCService,
                 config: Optional[GatewayConfig] = None):
        self.service = service
        self.config = config or GatewayConfig()
        self.limiter = CapacityLimiter(self.config.workers)
        self.telemetry = service.telemetry
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._tick_task: Optional[asyncio.Task] = None
        self._stopped: Optional[asyncio.Event] = None
        self._draining = False
        #: seq -> handle, for result fetches and stream watches
        self._handles: Dict[int, SubmissionHandle] = {}
        #: seq -> futures resolved when the submission finalizes
        self._waiters: Dict[int, List[asyncio.Future]] = {}
        #: seq -> live stream watches
        self._watches: Dict[int, List[_Watch]] = {}
        #: payload fingerprint -> (dag, default definition)
        self._dag_cache: "OrderedDict[str, Tuple[ModuleDAG, Dict]]" = \
            OrderedDict()
        #: tenant weights mirrored for O(1) fair-share math at shed time
        self._weights: Dict[str, float] = {}
        self._weight_sum = 0.0
        #: EWMA of finalizations per real second (feeds Retry-After)
        self._finalize_rate = 0.0
        self._rate_mark: Optional[float] = None
        self._conn_writers: set = set()
        self._shed_total = 0

    # ------------------------------------------------------------ lifecycle

    async def start(self) -> Tuple[str, int]:
        """Bind the listener and start the engine; returns (host, port)."""
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._connection, self.config.host, self.config.port,
            limit=2 * MAX_HEADER_BYTES,
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        self._tick_task = asyncio.create_task(self._tick_loop())
        return self.host, self.port

    async def serve(self) -> None:
        """:meth:`start` then block until a graceful shutdown completes."""
        await self.start()
        await self.wait_closed()

    async def wait_closed(self) -> None:
        if self._stopped is not None:
            await self._stopped.wait()

    async def shutdown(self) -> None:
        """Graceful shutdown: refuse new work, finish what is in flight.

        New submissions get 503 the moment draining starts; the listener
        closes; the engine finishes every open submission with one final
        quiescent drain (queued work that never fits is finalized as
        unplaceable rather than abandoned); waiters and stream watchers
        are notified; then connections close and :meth:`serve` returns.
        """
        if self._draining:
            await self.wait_closed()
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
        if self._tick_task is not None:
            self._tick_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._tick_task
        finished = self.service.drain()
        self._note_progress(finished)
        # A few loop turns so resolved waiters write their responses
        # and stream writers flush their terminal events.
        for _ in range(4):
            await asyncio.sleep(0)
        for seq, futures in list(self._waiters.items()):
            handle = self._handles.get(seq)
            for fut in futures:
                if not fut.done():
                    if handle is not None:
                        fut.set_result(handle)
                    else:
                        fut.cancel()
        self._waiters.clear()
        for watches in self._watches.values():
            for watch in watches:
                watch.queue.put_nowait(None)
        self._watches.clear()
        await asyncio.sleep(0)
        for writer in list(self._conn_writers):
            writer.close()
        if self._server is not None:
            await self._server.wait_closed()
        if self._stopped is not None:
            self._stopped.set()

    # --------------------------------------------------------------- engine

    async def _tick_loop(self) -> None:
        """Advance the control plane in simulated-time ticks."""
        sim = self.service.runtime.sim
        while True:
            if self.service.pending_count or self.service.open_count:
                start = time.monotonic()
                until = sim.now + self.config.tick_sim_s
                # Nothing to dispatch: run on to the next simulated event,
                # so no tick (each one an event-loop turn between a
                # request and its result) covers an empty interval.
                if not self.service.pending_count \
                        and sim.next_event_time < math.inf:
                    until = max(until, sim.next_event_time)
                finished = self.service.drain(until=until)
                self.telemetry.inc("udc_gateway_ticks_total")
                self.telemetry.observe("udc_gateway_tick_seconds",
                                       time.monotonic() - start)
                self._note_progress(finished)
                # Yield so handlers run between ticks even under load.
                await asyncio.sleep(0)
            else:
                await asyncio.sleep(self.config.idle_sleep_s)

    def _note_progress(self, finished: List[SubmissionHandle]) -> None:
        """Resolve waiters and stream watches after a drain tick."""
        now = time.monotonic()
        if finished:
            self.telemetry.inc("udc_gateway_finalized_total",
                               float(len(finished)))
            if self._rate_mark is not None:
                sample = len(finished) / max(now - self._rate_mark, 1e-6)
                self._finalize_rate = (
                    sample if self._finalize_rate == 0.0
                    else 0.7 * self._finalize_rate + 0.3 * sample
                )
            self._rate_mark = now
        elif self._rate_mark is None:
            self._rate_mark = now
        for handle in finished:
            for fut in self._waiters.pop(handle.seq, ()):
                if not fut.done():
                    fut.set_result(handle)
            for watch in self._watches.pop(handle.seq, ()):
                self._emit_final(watch, handle)
        # Status transitions for submissions still in flight.
        for seq, watches in self._watches.items():
            handle = self._handles.get(seq)
            if handle is None:
                continue
            for watch in watches:
                self._emit_status(watch, handle)

    def _retry_after(self) -> float:
        """Seconds a shed tenant should back off: roughly how long the
        service needs to finalize one watermark's worth of excess."""
        live = self.service.live_count
        excess = max(live - self.config.max_live, 0) + 1
        if self._finalize_rate <= 0.0:
            return 1.0
        return min(max(excess / self._finalize_rate, 0.05), 5.0)

    def _shed_check(self, tenant: str) -> None:
        """Raise 429 when over the watermark and over fair share.

        Below ``max_live`` everyone is admitted.  Above it, a tenant is
        admitted only while its live submissions sit under its weighted
        share of the watermark — so overload sheds the heavy hitters
        first and light tenants keep landing work (the same weights the
        admission policy schedules with).
        """
        if self.service.live_count < self.config.max_live:
            return
        weight = self._weights.get(tenant)
        if weight is None:
            policy = self.service.policy
            weight = (policy.weight_of(tenant)
                      if hasattr(policy, "weight_of") else 1.0)
            self._note_weight(tenant, weight)
        total = self._weight_sum or weight
        share = max(1, math.ceil(self.config.max_live * weight / total))
        if self.service.in_flight(tenant) < share:
            return
        retry_after = self._retry_after()
        self._shed_total += 1
        self.telemetry.inc("udc_gateway_shed_total")
        raise _HttpError(
            429,
            {"error": "shed", "detail": "over fair share at the live-"
             "submission watermark; retry after the hinted backoff",
             "retry_after_s": retry_after},
            {"retry-after": f"{retry_after:.3f}"},
        )

    def _note_weight(self, tenant: str, weight: float) -> None:
        old = self._weights.get(tenant)
        if old is not None:
            self._weight_sum -= old
        self._weights[tenant] = weight
        self._weight_sum += weight

    # ---------------------------------------------------------- connections

    async def _connection(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
        self._conn_writers.add(writer)
        try:
            while True:
                request = await read_request(reader)
                if request is None:
                    break
                if request.wants_websocket:
                    await self._websocket_session(request, reader, writer)
                    break
                await self._handle_http(request, writer)
                await writer.drain()
                if request.headers.get("connection", "").lower() == "close":
                    break
        except WireError as exc:
            with contextlib.suppress(ConnectionError):
                write_response(writer, 400,
                               {"error": "bad-request", "detail": str(exc)},
                               keep_alive=False)
                await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self._conn_writers.discard(writer)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _handle_http(self, request, writer) -> None:
        start = time.monotonic()
        try:
            status, body, headers, content_type = await self._route(request)
        except _HttpError as exc:
            status, body, headers = exc.status, exc.body, exc.headers
            content_type = "application/json"
        except WireError as exc:
            status = 400
            body = {"error": "bad-request", "detail": str(exc)}
            headers, content_type = None, "application/json"
        except Exception as exc:  # noqa: BLE001 - the server must answer
            status = 500
            body = {"error": "internal", "detail": f"{type(exc).__name__}: "
                    f"{exc}"}
            headers, content_type = None, "application/json"
        write_response(writer, status, body, content_type=content_type,
                       extra_headers=headers)
        self.telemetry.inc(
            "udc_gateway_requests_total",
            labels={"route": self._route_label(request), "code": str(status)},
        )
        self.telemetry.observe("udc_gateway_request_seconds",
                               time.monotonic() - start,
                               labels={"route": self._route_label(request)})

    @staticmethod
    def _route_label(request) -> str:
        """Bounded-cardinality route label (seqs collapse to a pattern)."""
        path = request.path
        if path.startswith("/v1/submissions/"):
            path = "/v1/submissions/{seq}"
        return f"{request.method} {path}"

    # --------------------------------------------------------------- routes

    async def _route(self, request):
        """Dispatch one request; returns (status, body, headers, ctype)."""
        method, path = request.method, request.path
        if path == "/v1/healthz" and method == "GET":
            return 200, self._health_payload(), None, "application/json"
        if path == "/v1/metrics" and method == "GET":
            async with self.limiter:
                text = self.metrics_text()
            return 200, text, None, "text/plain; version=0.0.4"
        if path == "/v1/tenants" and method == "POST":
            async with self.limiter:
                return self._register_tenant(request)
        if path == "/v1/submissions" and method == "POST":
            async with self.limiter:
                return self._submit(request)
        if path.startswith("/v1/submissions/") and method == "GET":
            return await self._get_submission(request)
        if path == "/v1/shutdown" and method == "POST":
            asyncio.get_running_loop().create_task(self.shutdown())
            return 202, {"status": "draining"}, None, "application/json"
        if path in ("/v1/healthz", "/v1/metrics", "/v1/tenants",
                    "/v1/submissions", "/v1/shutdown"):
            raise _HttpError(405, {"error": "method-not-allowed"})
        raise _HttpError(404, {"error": "not-found", "path": path})

    def _health_payload(self) -> Dict[str, Any]:
        return {
            "status": "draining" if self._draining else "ok",
            "live": self.service.live_count,
            "open": self.service.open_count,
            "pending": self.service.pending_count,
            "workers_busy": self.limiter.borrowed_tokens,
            "workers_waiting": self.limiter.waiting,
            "shed_total": self._shed_total,
            "cells": self.service.cells,
        }

    def metrics_text(self) -> str:
        """Prometheus text exposition with gateway gauges refreshed."""
        registry = self.service.metrics_snapshot()
        self.telemetry.gauge_set("udc_gateway_workers_busy",
                                 float(self.limiter.borrowed_tokens))
        self.telemetry.gauge_set("udc_gateway_workers_total",
                                 float(self.limiter.total_tokens))
        self.telemetry.gauge_set("udc_gateway_live",
                                 float(self.service.live_count))
        self.telemetry.gauge_set(
            "udc_gateway_watches",
            float(sum(len(w) for w in self._watches.values())),
        )
        return registry.render_prometheus()

    def _register_tenant(self, request):
        if self._draining:
            raise _HttpError(503, {"error": "draining"})
        payload = request.json()
        if not isinstance(payload, dict) or "name" not in payload:
            raise _HttpError(400, {"error": "bad-request",
                                   "detail": "body must carry 'name'"})
        name = str(payload["name"])
        weight = payload.get("weight", 1.0)
        limits = {key: payload[key] for key in ("max_in_flight",
                                                "max_submissions")
                  if key in payload}
        try:
            if not _is_number(weight) or not all(
                    value is None or _is_number(value, int)
                    for value in limits.values()):
                raise ValueError("'weight' must be a number; 'max_in_flight' "
                                 "and 'max_submissions' integers or null")
            spec = TenantSpec(weight=float(weight),
                              quota=TenantQuota(**limits) if limits else None)
        except (ValueError, OverflowError) as exc:
            raise _HttpError(400, {"error": "bad-request",
                                   "detail": str(exc)}) from exc
        tenant = self.service.register_tenant(name, spec)
        self._note_weight(name, spec.weight)
        return 200, {"name": tenant.name, "weight": tenant.weight}, None, \
            "application/json"

    def _submit(self, request):
        if self._draining:
            raise _HttpError(503, {"error": "draining"})
        payload = request.json()
        if not isinstance(payload, dict):
            raise _HttpError(400, {"error": "bad-request",
                                   "detail": "body must be a JSON object"})
        tenant = payload.get("tenant")
        if not tenant:
            raise _HttpError(400, {"error": "bad-request",
                                   "detail": "body must carry 'tenant'"})
        tenant = str(tenant)
        app, definition = self._build_app(payload)
        if "definition" in payload:
            definition = payload["definition"]
        self._shed_check(tenant)
        try:
            handle = self.service.submit(tenant, app, definition,
                                         inputs=payload.get("inputs"))
        except QuotaExceeded as exc:
            retry_after = self._retry_after()
            raise _HttpError(
                429, {"error": "quota-exceeded", "detail": str(exc),
                      "retry_after_s": retry_after},
                {"retry-after": f"{retry_after:.3f}"},
            ) from exc
        except (SpecError, DagValidationError) as exc:
            raise _HttpError(400, {"error": "invalid-definition",
                                   "detail": str(exc)}) from exc
        except Exception as exc:
            report = getattr(exc, "report", None)
            if report is None:  # not an AnalysisError: re-raise as 500
                raise
            raise _HttpError(
                422,
                {"error": "lint-rejected",
                 "diagnostics": [diag.to_dict() for diag in report]},
            ) from exc
        self._handles[handle.seq] = handle
        if handle.cached:
            return 200, self._result_payload(handle), None, \
                "application/json"
        body = {"seq": handle.seq, "status": handle.status,
                "cached": False, "cell": handle.cell}
        return 202, body, None, "application/json"

    async def _get_submission(self, request):
        try:
            seq = int(request.path.rsplit("/", 1)[1])
        except ValueError as exc:
            raise _HttpError(400, {"error": "bad-request",
                                   "detail": "seq must be an integer"}) \
                from exc
        async with self.limiter:
            handle = self._handles.get(seq)
            if handle is None:
                raise _HttpError(404, {"error": "unknown-seq", "seq": seq})
            if self._settled(handle):
                return 200, self._result_payload(handle), None, \
                    "application/json"
            wait = request.query.get("wait", "") in ("1", "true", "yes")
            if not wait:
                body = {"seq": seq, "status": handle.status, "done": False}
                return 200, body, None, "application/json"
            fut = asyncio.get_running_loop().create_future()
            self._waiters.setdefault(seq, []).append(fut)
        timeout = float(request.query.get("timeout_s",
                                          self.config.wait_timeout_s))
        # The long poll waits *outside* the worker pool: a parked
        # request must not hold a token other tenants need to make the
        # very progress it is waiting for.
        try:
            handle = await asyncio.wait_for(fut, timeout)
        except asyncio.TimeoutError:
            waiters = self._waiters.get(seq, [])
            if fut in waiters:
                waiters.remove(fut)
            handle = self._handles[seq]
            body = {"seq": seq, "status": handle.status, "done": False,
                    "timed_out": True}
            return 200, body, None, "application/json"
        except asyncio.CancelledError:
            raise _HttpError(503, {"error": "draining"}) from None
        return 200, self._result_payload(handle), None, "application/json"

    # ------------------------------------------------------------ app build

    def _build_app(self, payload: Dict[str, Any]) -> Tuple[ModuleDAG, Dict]:
        spec = payload.get("app")
        if not isinstance(spec, dict):
            raise _HttpError(400, {"error": "bad-request",
                                   "detail": "body must carry an 'app' "
                                   "object"})
        key = json.dumps(spec, sort_keys=True)
        cached = self._dag_cache.get(key)
        if cached is not None:
            self._dag_cache.move_to_end(key)
            return cached
        if "archetype" in spec:
            builder = _APP_BUILDERS.get(spec["archetype"])
            if builder is None:
                raise _HttpError(
                    400, {"error": "unknown-archetype",
                          "known": sorted(_APP_BUILDERS)})
            dag, definition = builder(str(spec.get("tag", "0")))
        elif "ir" in spec:
            try:
                dag = load_program(spec["ir"])
            except DagValidationError as exc:
                raise _HttpError(400, {"error": "invalid-ir",
                                       "detail": str(exc)}) from exc
            definition = {}
        else:
            raise _HttpError(400, {"error": "bad-request",
                                   "detail": "app needs 'archetype' or "
                                   "'ir'"})
        self._dag_cache[key] = (dag, definition)
        while len(self._dag_cache) > self.config.dag_cache_capacity:
            self._dag_cache.popitem(last=False)
        return dag, definition

    # -------------------------------------------------------------- results

    @staticmethod
    def _settled(handle: SubmissionHandle) -> bool:
        """Finalized (result collected) or terminal without one."""
        return (handle.cached or handle.result is not None
                or handle.status == "unplaceable")

    def _result_payload(self, handle: SubmissionHandle) -> Dict[str, Any]:
        body: Dict[str, Any] = {
            "seq": handle.seq,
            "tenant": handle.tenant,
            "app": handle.app,
            "status": handle.status,
            "done": True,
            "cached": handle.cached,
            "cell": handle.cell,
        }
        result = handle.result
        if result is not None and handle.status != "unplaceable":
            body["makespan_s"] = result.makespan_s
            body["total_cost"] = result.total_cost
            body["outputs"] = {
                name: value if _jsonable(value) else repr(value)
                for name, value in sorted(result.outputs.items())
            }
        return body

    # ------------------------------------------------------------ streaming

    async def _websocket_session(self, request, reader, writer) -> None:
        key = request.headers.get("sec-websocket-key")
        if request.path != "/v1/stream" or not key:
            write_response(writer, 400, {"error": "bad-upgrade"},
                           keep_alive=False)
            await writer.drain()
            return
        writer.write(
            b"HTTP/1.1 101 Switching Protocols\r\n"
            b"upgrade: websocket\r\n"
            b"connection: Upgrade\r\n"
            b"sec-websocket-accept: "
            + websocket_accept_value(key).encode("latin-1")
            + b"\r\n\r\n"
        )
        await writer.drain()
        ws = WebSocketConnection(reader, writer, mask_frames=False)
        queue: "asyncio.Queue[Optional[Dict[str, Any]]]" = asyncio.Queue()
        pump = asyncio.create_task(self._ws_pump(ws, queue))
        mine: List[_Watch] = []
        try:
            while True:
                message = await ws.recv_json()
                if message is None or not isinstance(message, dict):
                    break
                op = message.get("op")
                if op == "watch":
                    self._start_watch(message, queue, mine)
                elif op == "ping":
                    queue.put_nowait({"event": "pong"})
                else:
                    queue.put_nowait({"event": "error",
                                      "error": "unknown-op", "op": op})
        except (WireError, json.JSONDecodeError):
            pass
        finally:
            for watch in mine:
                watches = self._watches.get(watch.seq)
                if watches and watch in watches:
                    watches.remove(watch)
                    if not watches:
                        del self._watches[watch.seq]
            queue.put_nowait(None)
            with contextlib.suppress(Exception):
                await asyncio.wait_for(pump, timeout=1.0)
            await ws.close()

    def _start_watch(self, message, queue, mine: List[_Watch]) -> None:
        try:
            seq = int(message["seq"])
        except (KeyError, TypeError, ValueError):
            queue.put_nowait({"event": "error", "error": "bad-watch"})
            return
        handle = self._handles.get(seq)
        if handle is None:
            queue.put_nowait({"event": "error", "error": "unknown-seq",
                              "seq": seq})
            return
        watch = _Watch(seq=seq, queue=queue)
        if self._settled(handle):
            self._emit_final(watch, handle)
            return
        self._emit_status(watch, handle)
        self._watches.setdefault(seq, []).append(watch)
        mine.append(watch)

    async def _ws_pump(self, ws: WebSocketConnection, queue) -> None:
        """Drain one connection's event queue onto the socket.

        Each wakeup takes every event already queued — a tick that
        finalizes a submission queues its whole terminal series at once
        — and sends them with one write and one drain.
        """
        while True:
            batch = [await queue.get()]
            while not queue.empty():
                batch.append(queue.get_nowait())
            # None ends the stream: send what precedes it, then stop.
            closing = None in batch
            if closing:
                del batch[batch.index(None):]
            if batch:
                try:
                    await ws.send_json_batch(batch)
                except (ConnectionError, RuntimeError):
                    return
            if closing:
                return

    def _emit(self, watch: _Watch, payload: Dict[str, Any]) -> None:
        payload["event_seq"] = watch.event_seq
        watch.event_seq += 1
        watch.queue.put_nowait(payload)

    def _emit_status(self, watch: _Watch, handle: SubmissionHandle) -> None:
        status = handle.status
        if status != watch.last_status:
            watch.last_status = status
            self._emit(watch, {"event": "status", "seq": handle.seq,
                               "status": status})

    def _emit_final(self, watch: _Watch, handle: SubmissionHandle) -> None:
        """Terminal event series: status, spans, metric summary, result."""
        self._emit_status(watch, handle)
        for span in self._spans_of(handle):
            self._emit(watch, {"event": "span", "seq": handle.seq,
                               "span": span.to_dict()})
        result = handle.result
        if result is not None and handle.status != "unplaceable":
            self._emit(watch, {"event": "metric", "seq": handle.seq,
                               "makespan_s": result.makespan_s,
                               "total_cost": result.total_cost})
        self._emit(watch, {"event": "result", "seq": handle.seq,
                           "payload": self._result_payload(handle)})
        watch.done = True

    def _spans_of(self, handle: SubmissionHandle) -> List[Any]:
        """The closed lifecycle spans of the handle's own submission.

        Read from the runtime :class:`~repro.core.runtime.Submission`,
        which keeps its task root spans, so a repeated (tenant, app)
        streams only its own spans and the cost does not grow with the
        span log.  Cache hits and undispatched handles have none.
        """
        if handle.cached or handle.submission is None:
            return []
        return [span for span in handle.submission.spans
                if span.end_s is not None]


def _jsonable(value: Any) -> bool:
    try:
        json.dumps(value)
        return True
    except (TypeError, ValueError):
        return False
