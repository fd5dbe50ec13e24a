"""Closed-loop load client for the ``gateway-stream`` workload.

One single-threaded process, two connections: an HTTP/1.1 keep-alive
connection for submissions and one WebSocket for every submission's
event stream.  The client keeps a fixed window of ``tiny`` submissions
in flight, each with unique inputs, round-robin over the tenants, and
sends the next one only after a result event frees a slot (a closed
loop).  It speaks the wire protocols itself with the standard library,
so its cost does not change when the gateway's own codec does.

Besides latencies it checks the stream: exactly one ``result`` event per
submitted seq and a contiguous ``event_seq`` per watch.  It also reports
its own CPU share and how late it sent each submission after a slot
freed, which shows whether the load generator was the bottleneck.
"""

from __future__ import annotations

import base64
import json
import os
import random
import selectors
import socket
import struct
import time
from typing import Dict, List, Optional, Tuple


class TransportError(Exception):
    """The connection broke or carried something the client can't parse."""


def _encode_frame(payload: bytes, mask: bytes) -> bytes:
    """One masked, unfragmented text frame (clients must mask)."""
    length = len(payload)
    if length < 126:
        head = struct.pack("!BB", 0x81, 0x80 | length)
    elif length < 1 << 16:
        head = struct.pack("!BBH", 0x81, 0x80 | 126, length)
    else:
        head = struct.pack("!BBQ", 0x81, 0x80 | 127, length)
    masked = bytes(b ^ mask[i % 4] for i, b in enumerate(payload))
    return head + mask + masked


class _HttpParser:
    """Incremental parser for Content-Length HTTP/1.1 responses."""

    def __init__(self):
        self.buffer = b""

    def feed(self, data: bytes) -> List[Tuple[int, bytes]]:
        self.buffer += data
        responses = []
        while True:
            end = self.buffer.find(b"\r\n\r\n")
            if end < 0:
                return responses
            head = self.buffer[:end].decode("latin-1").split("\r\n")
            try:
                status = int(head[0].split(" ", 2)[1])
            except (IndexError, ValueError) as exc:
                raise TransportError(f"bad status line {head[0]!r}") from exc
            length = 0
            for line in head[1:]:
                name, _, value = line.partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value.strip())
            total = end + 4 + length
            if len(self.buffer) < total:
                return responses
            responses.append((status, self.buffer[end + 4:total]))
            self.buffer = self.buffer[total:]


class _FrameParser:
    """Incremental parser for the server's unmasked WebSocket frames."""

    def __init__(self):
        self.buffer = b""

    def feed(self, data: bytes) -> List[Tuple[int, bytes]]:
        self.buffer += data
        frames = []
        while len(self.buffer) >= 2:
            opcode = self.buffer[0] & 0x0F
            length = self.buffer[1] & 0x7F
            offset = 2
            if length == 126:
                if len(self.buffer) < 4:
                    break
                length = struct.unpack("!H", self.buffer[2:4])[0]
                offset = 4
            elif length == 127:
                if len(self.buffer) < 10:
                    break
                length = struct.unpack("!Q", self.buffer[2:10])[0]
                offset = 10
            if len(self.buffer) < offset + length:
                break
            frames.append((opcode, self.buffer[offset:offset + length]))
            self.buffer = self.buffer[offset + length:]
        return frames


class GatewayLoad:
    """Drive one gateway process through set-up and a closed loop."""

    def __init__(self, port: int, *, tenants: int, window: int,
                 results: int, seed: int, host: str = "127.0.0.1"):
        self.host, self.port = host, port
        self.window = window
        self.results = results
        self.seed = seed
        rng = random.Random(seed)
        names = [f"tenant-{i:02d}" for i in range(tenants)]
        rng.shuffle(names)
        self.tenants = names
        self.payload_bytes = [1 << rng.randint(10, 20)
                              for _ in range(results)]
        self._mask_counter = 0
        self.http: Optional[socket.socket] = None
        self.ws: Optional[socket.socket] = None
        self._http_parser = _HttpParser()
        #: stream bytes that arrived with the upgrade response
        self._leftover = b""

    # -- connections -------------------------------------------------------

    def connect(self) -> None:
        self.http = socket.create_connection((self.host, self.port))
        self.http.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.ws = socket.create_connection((self.host, self.port))
        self.ws.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        key = base64.b64encode(os.urandom(16)).decode("ascii")
        self.ws.sendall((
            "GET /v1/stream HTTP/1.1\r\n"
            f"host: {self.host}:{self.port}\r\n"
            "upgrade: websocket\r\nconnection: Upgrade\r\n"
            f"sec-websocket-key: {key}\r\n"
            "sec-websocket-version: 13\r\n\r\n").encode("latin-1"))
        head = b""
        while b"\r\n\r\n" not in head:
            chunk = self.ws.recv(4096)
            if not chunk:
                raise TransportError("stream closed during the handshake")
            head += chunk
        if not head.startswith(b"HTTP/1.1 101"):
            raise TransportError(f"upgrade refused: {head[:40]!r}")
        self._leftover = head[head.index(b"\r\n\r\n") + 4:]

    def close(self) -> None:
        for sock in (self.http, self.ws):
            if sock is not None:
                sock.close()
        self.http = self.ws = None

    def _request_bytes(self, method: str, path: str,
                       body: Optional[dict] = None) -> bytes:
        payload = json.dumps(body).encode() if body is not None else b""
        return (f"{method} {path} HTTP/1.1\r\nhost: {self.host}\r\n"
                f"content-type: application/json\r\n"
                f"content-length: {len(payload)}\r\n\r\n"
                ).encode("latin-1") + payload

    def request(self, method: str, path: str,
                body: Optional[dict] = None) -> Tuple[int, bytes]:
        """One blocking request/response on the keep-alive connection."""
        self.http.sendall(self._request_bytes(method, path, body))
        while True:
            responses = self._http_parser.feed(self._recv(self.http))
            if responses:
                return responses[0]

    @staticmethod
    def _recv(sock: socket.socket) -> bytes:
        try:
            data = sock.recv(1 << 16)
        except OSError as exc:
            raise TransportError(str(exc)) from exc
        if not data:
            raise TransportError("connection closed by the server")
        return data

    def setup(self) -> None:
        """Connect, register every tenant, and check health."""
        self.connect()
        for name in sorted(self.tenants):
            status, _ = self.request("POST", "/v1/tenants",
                                     {"name": name, "weight": 1.0})
            if status != 200:
                raise TransportError(f"tenant registration got {status}")
        status, _ = self.request("GET", "/v1/healthz")
        if status != 200:
            raise TransportError(f"health check got {status}")

    def _watch(self, seq: int) -> None:
        self._mask_counter += 1
        mask = struct.pack("!I", self._mask_counter & 0xFFFFFFFF)
        self.ws.sendall(_encode_frame(
            json.dumps({"op": "watch", "seq": seq}).encode(), mask))

    # -- the closed loop ---------------------------------------------------

    def run(self) -> Dict[str, object]:
        """Submit ``results`` submissions with ``window`` in flight."""
        clock = time.perf_counter
        frames = _FrameParser()
        selector = selectors.DefaultSelector()
        selector.register(self.http, selectors.EVENT_READ, "http")
        selector.register(self.ws, selectors.EVENT_READ, "ws")

        sent_at: Dict[int, float] = {}      # seq -> submit send time
        next_event: Dict[int, int] = {}     # seq -> expected event_seq
        result_events: Dict[int, int] = {}  # seq -> result events seen
        latencies: List[float] = []
        lags: List[float] = []
        span_events = stream_bytes = 0
        failed = transport_errors = order_errors = 0
        outstanding: Optional[float] = None  # send time of the open POST
        submitted = done = 0
        free_slots: List[float] = []
        start = clock()
        cpu_start = time.process_time()
        free_slots.extend([start] * self.window)
        last_progress = start

        pending = frames.feed(self._leftover)
        try:
            while done + failed < self.results:
                if (outstanding is None and free_slots
                        and submitted < self.results):
                    index = submitted
                    tenant = self.tenants[index % len(self.tenants)]
                    body = {
                        "tenant": tenant,
                        "app": {"archetype": "tiny", "tag": tenant},
                        "inputs": {"request": f"s{self.seed}-{index}",
                                   "payload_bytes":
                                   self.payload_bytes[index]},
                    }
                    now = clock()
                    lags.append(now - free_slots.pop(0))
                    self.http.sendall(self._request_bytes(
                        "POST", "/v1/submissions", body))
                    outstanding = now
                    submitted += 1
                events = pending or []
                pending = None
                if not events:
                    ready = selector.select(timeout=1.0)
                    if not ready and clock() - last_progress > 30.0:
                        raise TransportError("no progress for 30 s")
                    for key, _mask in ready:
                        data = self._recv(key.fileobj)
                        if key.data == "http":
                            for status, raw in self._http_parser.feed(data):
                                sent, outstanding = outstanding, None
                                if status == 202:
                                    seq = json.loads(raw)["seq"]
                                    sent_at[seq] = sent
                                    next_event[seq] = 0
                                    self._watch(seq)
                                else:
                                    failed += 1
                                    free_slots.append(clock())
                        else:
                            stream_bytes += len(data)
                            events.extend(frames.feed(data))
                for opcode, payload in events:
                    if opcode == 0x8:
                        raise TransportError("stream closed by the server")
                    if opcode != 0x1:
                        continue
                    event = json.loads(payload)
                    seq = event.get("seq")
                    if seq not in next_event:
                        order_errors += 1
                        continue
                    if event.get("event_seq") != next_event[seq]:
                        order_errors += 1
                    next_event[seq] = event.get("event_seq", -1) + 1
                    kind = event.get("event")
                    if kind == "span":
                        span_events += 1
                    elif kind == "result":
                        now = clock()
                        result_events[seq] = result_events.get(seq, 0) + 1
                        if result_events[seq] > 1:
                            order_errors += 1
                            continue
                        latencies.append(now - sent_at[seq])
                        if event["payload"].get("status") != "done":
                            failed += 1
                        else:
                            done += 1
                        free_slots.append(now)
                        last_progress = now
        except (TransportError, OSError, ValueError, KeyError):
            transport_errors += 1
        finally:
            selector.close()
        wall = clock() - start
        cpu = time.process_time() - cpu_start
        missing = sum(1 for seq in sent_at if result_events.get(seq) != 1)
        return {
            "submitted": submitted,
            "done": done,
            "failed": failed,
            "transport_errors": transport_errors,
            "order_errors": order_errors,
            "missing_results": missing,
            "wall_s": wall,
            "latencies": latencies,
            "span_events": span_events,
            "stream_bytes": stream_bytes,
            "client_cpu_share": cpu / wall if wall > 0 else 0.0,
            "client_lag_ms": 1e3 * sum(lags) / len(lags) if lags else 0.0,
        }

    # -- after the loop ----------------------------------------------------

    def gateway_counters(self) -> Dict[str, float]:
        """Sum the gateway's counter families from ``/v1/metrics``."""
        status, raw = self.request("GET", "/v1/metrics")
        if status != 200:
            raise TransportError(f"/v1/metrics got {status}")
        wanted = {"udc_gateway_ticks_total": "ticks",
                  "udc_gateway_tick_seconds_sum": "tick_busy_s",
                  "udc_gateway_requests_total": "requests",
                  "udc_gateway_shed_total": "shed"}
        totals = {name: 0.0 for name in wanted.values()}
        for line in raw.decode().splitlines():
            if line.startswith("#") or not line:
                continue
            name = line.split("{", 1)[0].split(" ", 1)[0]
            if name in wanted:
                totals[wanted[name]] += float(line.rsplit(" ", 1)[1])
        return totals

    def shutdown(self) -> None:
        """Close the stream, then ask the server for a graceful
        shutdown (its stream handler ends before the loop stops)."""
        self.ws.close()
        self.ws = None
        status, _ = self.request("POST", "/v1/shutdown")
        if status != 202:
            raise TransportError(f"shutdown got {status}")
