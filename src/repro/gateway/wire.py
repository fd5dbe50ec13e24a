"""Minimal HTTP/1.1 and RFC 6455 WebSocket codecs over asyncio streams.

The container ships no HTTP framework, so the gateway speaks the two
protocols it needs directly: keep-alive HTTP/1.1 with Content-Length
bodies (all the REST surface uses), and unfragmented WebSocket text
frames for the streaming channel.  Both sides of the wire live here —
the server parses requests and the client parses responses — so the
loopback tests and the load generator exercise the same codec the
gateway serves.
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
import json
import struct
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

__all__ = [
    "HttpRequest",
    "HttpResponse",
    "WireError",
    "WebSocketConnection",
    "read_request",
    "read_response",
    "websocket_accept_value",
    "write_request",
    "write_response",
]

#: refuse unreasonable frames/bodies instead of buffering them
MAX_HEADER_BYTES = 64 * 1024
MAX_BODY_BYTES = 16 * 1024 * 1024
_WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

_REASONS = {
    200: "OK", 202: "Accepted", 204: "No Content", 400: "Bad Request",
    403: "Forbidden", 404: "Not Found", 405: "Method Not Allowed",
    408: "Request Timeout", 409: "Conflict", 413: "Payload Too Large",
    422: "Unprocessable Entity", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
}


class WireError(Exception):
    """Malformed traffic (oversized, truncated, or not HTTP)."""


@dataclass
class HttpRequest:
    method: str
    target: str
    headers: Dict[str, str]
    body: bytes = b""
    #: path with the query string stripped
    path: str = ""
    #: parsed query parameters (first value wins)
    query: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        parts = urlsplit(self.target)
        self.path = parts.path
        self.query = {
            key: values[0]
            for key, values in parse_qs(parts.query).items()
        }

    def json(self):
        if not self.body:
            return None
        try:
            return json.loads(self.body)
        except json.JSONDecodeError as exc:
            raise WireError(f"request body is not JSON: {exc}") from exc

    @property
    def wants_websocket(self) -> bool:
        return (
            self.headers.get("upgrade", "").lower() == "websocket"
            and "upgrade" in self.headers.get("connection", "").lower()
        )


@dataclass
class HttpResponse:
    status: int
    headers: Dict[str, str]
    body: bytes

    def json(self):
        if not self.body:
            return None
        return json.loads(self.body)


async def _read_head(reader: asyncio.StreamReader) -> Optional[bytes]:
    """Read up to the blank line; None on clean EOF before any bytes."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise WireError("connection closed mid-header") from exc
    except asyncio.LimitOverrunError as exc:
        raise WireError("header section exceeds the stream limit") from exc
    if len(head) > MAX_HEADER_BYTES:
        raise WireError(f"header section over {MAX_HEADER_BYTES} bytes")
    return head


def _parse_headers(lines) -> Dict[str, str]:
    headers: Dict[str, str] = {}
    for line in lines:
        name, sep, value = line.partition(":")
        if not sep:
            raise WireError(f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    return headers


async def _read_body(reader: asyncio.StreamReader,
                     headers: Dict[str, str]) -> bytes:
    length = int(headers.get("content-length", "0") or "0")
    if length < 0 or length > MAX_BODY_BYTES:
        raise WireError(f"content-length {length} out of range")
    if length == 0:
        return b""
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise WireError("connection closed mid-body") from exc


async def read_request(reader: asyncio.StreamReader) -> Optional[HttpRequest]:
    """Parse one request; None when the peer closed between requests."""
    head = await _read_head(reader)
    if head is None:
        return None
    lines = head.decode("latin-1").split("\r\n")
    try:
        method, target, _version = lines[0].split(" ", 2)
    except ValueError as exc:
        raise WireError(f"malformed request line {lines[0]!r}") from exc
    headers = _parse_headers(line for line in lines[1:] if line)
    body = await _read_body(reader, headers)
    return HttpRequest(method=method.upper(), target=target,
                       headers=headers, body=body)


async def read_response(reader: asyncio.StreamReader) -> HttpResponse:
    head = await _read_head(reader)
    if head is None:
        raise WireError("connection closed before a response arrived")
    lines = head.decode("latin-1").split("\r\n")
    try:
        _version, status, *_reason = lines[0].split(" ", 2)
        status_code = int(status)
    except ValueError as exc:
        raise WireError(f"malformed status line {lines[0]!r}") from exc
    headers = _parse_headers(line for line in lines[1:] if line)
    body = await _read_body(reader, headers)
    return HttpResponse(status=status_code, headers=headers, body=body)


def write_response(
    writer: asyncio.StreamWriter,
    status: int,
    body: object = None,
    *,
    content_type: str = "application/json",
    extra_headers: Optional[Dict[str, str]] = None,
    keep_alive: bool = True,
) -> None:
    """Serialize one response (dict/str/bytes body) onto the stream."""
    if body is None:
        payload = b""
    elif isinstance(body, bytes):
        payload = body
    elif isinstance(body, str):
        payload = body.encode("utf-8")
    else:
        payload = json.dumps(body, sort_keys=True).encode("utf-8")
    reason = _REASONS.get(status, "Unknown")
    head = [f"HTTP/1.1 {status} {reason}",
            f"content-length: {len(payload)}"]
    if payload:
        head.append(f"content-type: {content_type}")
    head.append("connection: keep-alive" if keep_alive
                else "connection: close")
    for name, value in (extra_headers or {}).items():
        head.append(f"{name}: {value}")
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1")
                 + payload)


def write_request(
    writer: asyncio.StreamWriter,
    method: str,
    target: str,
    body: object = None,
    *,
    headers: Optional[Dict[str, str]] = None,
) -> None:
    """Serialize one client request (dict/str/bytes body) onto the stream."""
    if body is None:
        payload = b""
    elif isinstance(body, bytes):
        payload = body
    elif isinstance(body, str):
        payload = body.encode("utf-8")
    else:
        payload = json.dumps(body, sort_keys=True).encode("utf-8")
    head = [f"{method} {target} HTTP/1.1",
            "host: udc-gateway",
            f"content-length: {len(payload)}"]
    if payload:
        head.append("content-type: application/json")
    for name, value in (headers or {}).items():
        head.append(f"{name}: {value}")
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1")
                 + payload)


# --------------------------------------------------------------- websocket


def websocket_accept_value(key: str) -> str:
    digest = hashlib.sha1((key + _WS_GUID).encode("latin-1")).digest()
    return base64.b64encode(digest).decode("latin-1")


class WebSocketConnection:
    """One upgraded connection: JSON text frames in both directions.

    ``mask_frames=True`` is the client role (RFC 6455 requires clients
    to mask); servers send unmasked.  Masking keys come from a counter,
    not ``os.urandom`` — the mask exists to defeat proxy cache
    poisoning, which loopback tests and benchmarks do not face, and a
    deterministic stream keeps runs reproducible.
    """

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter, *, mask_frames: bool):
        self.reader = reader
        self.writer = writer
        self.mask_frames = mask_frames
        self._mask_counter = 0
        self.closed = False

    async def send_json(self, payload: object) -> None:
        await self.send_json_batch((payload,))

    async def send_json_batch(self, payloads: Iterable[object]) -> None:
        """One text frame per payload, in order, flushed with a single
        write and drain (a stream wakeup costs one send, not one per
        event)."""
        self.writer.write(b"".join(
            self._frame(0x1, json.dumps(payload, sort_keys=True)
                        .encode("utf-8"))
            for payload in payloads
        ))
        await self.writer.drain()

    async def recv_json(self) -> Optional[object]:
        """Next JSON message; None once the peer closes."""
        while True:
            frame = await self._recv_frame()
            if frame is None:
                return None
            opcode, payload = frame
            if opcode == 0x1:  # text
                return json.loads(payload.decode("utf-8"))
            if opcode == 0x8:  # close: echo and report EOF
                await self.close()
                return None
            if opcode == 0x9:  # ping -> pong
                await self._send_frame(0xA, payload)
                continue
            # pong / binary: ignored

    async def close(self) -> None:
        if not self.closed:
            self.closed = True
            try:
                await self._send_frame(0x8, b"")
            except (ConnectionError, RuntimeError):
                pass

    async def _send_frame(self, opcode: int, payload: bytes) -> None:
        self.writer.write(self._frame(opcode, payload))
        await self.writer.drain()

    def _frame(self, opcode: int, payload: bytes) -> bytes:
        """Encode one unfragmented frame (masked in the client role)."""
        header = bytearray([0x80 | opcode])
        mask_bit = 0x80 if self.mask_frames else 0
        length = len(payload)
        if length < 126:
            header.append(mask_bit | length)
        elif length < 1 << 16:
            header.append(mask_bit | 126)
            header += struct.pack(">H", length)
        else:
            header.append(mask_bit | 127)
            header += struct.pack(">Q", length)
        if self.mask_frames:
            self._mask_counter += 1
            mask = struct.pack(">I", self._mask_counter & 0xFFFFFFFF)
            header += mask
            payload = bytes(
                b ^ mask[i % 4] for i, b in enumerate(payload)
            )
        return bytes(header) + payload

    async def _recv_frame(self) -> Optional[Tuple[int, bytes]]:
        try:
            first = await self.reader.readexactly(2)
        except (asyncio.IncompleteReadError, ConnectionError):
            return None
        opcode = first[0] & 0x0F
        masked = bool(first[1] & 0x80)
        length = first[1] & 0x7F
        try:
            if length == 126:
                (length,) = struct.unpack(
                    ">H", await self.reader.readexactly(2))
            elif length == 127:
                (length,) = struct.unpack(
                    ">Q", await self.reader.readexactly(8))
            if length > MAX_BODY_BYTES:
                raise WireError(f"websocket frame of {length} bytes")
            mask = (await self.reader.readexactly(4)) if masked else b""
            payload = await self.reader.readexactly(length) if length \
                else b""
        except (asyncio.IncompleteReadError, ConnectionError):
            return None
        if masked:
            payload = bytes(
                b ^ mask[i % 4] for i, b in enumerate(payload)
            )
        return opcode, payload
