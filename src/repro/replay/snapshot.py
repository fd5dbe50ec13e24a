"""Versioned on-disk snapshots of a quiescent control plane.

A snapshot serializes the *entire* live object graph of a
:class:`~repro.service.service.UDCService` — the simulator (clock, event
sequence counter, empty heap), hardware pools with their free-capacity
indexes and utilization integrals, the scheduler, warm pool, breakers,
failure-domain registry, RNG streams, telemetry/metrics registries, and
the service's quotas, admission strides, caches, and ledgers.

**Snapshot boundary.**  Snapshots are taken only *between* events at
quiescent points (:attr:`~repro.simulator.engine.Simulator.is_quiescent`:
nothing pending on the event heap).  At quiescence every process
generator has run to completion, so the only generator objects reachable
from the graph are exhausted ones; the custom pickler maps those to an
inert stub and hard-fails on any *live* generator frame — the invariant
is enforced, not assumed.  Python cannot serialize a suspended generator
frame, which is exactly why the boundary exists.

**File format** (version 2)::

    {"format": "udc-snapshot", "version": 2, "eid": 41,
     "payload_bytes": 123456, "sha256": "..."}\\n
    <pickle payload>

The header is one JSON line; the payload is a pickle of the service.
Writes go to a temp file then ``os.replace`` (atomic on POSIX), and the
digest catches truncation/corruption on load — a half-written snapshot
from a crash is *detected and skipped*, never silently restored; callers
(:meth:`~repro.replay.runner.ReplayRunner.resume`) degrade to an older
snapshot or to re-execution from scratch.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pickle
import types
from typing import Any, List, Tuple

__all__ = [
    "SNAPSHOT_VERSION",
    "SnapshotError",
    "list_snapshots",
    "load_snapshot",
    "save_snapshot",
    "snapshot_path",
]

#: Bumped whenever a pickled class changes shape (2: metric instruments
#: cache their rendering; 3: submissions carry their SubmissionKey and
#: the admission memo lost its per-round identity table; 4: metric
#: families track their stale instruments, instruments their position,
#: failure domains hold live processes in an ordered dict, and the
#: bundle manager no longer lists every unit it built; 5: submissions
#: carry their compiled AppTemplate instead of definition and key, the
#: admission memo holds templates and views, key parts are text, and
#: runtimes index their open and store-holding submissions; 6: metric
#: instruments keep versioned histories instead of rendered entries,
#: families record their birth epoch, telemetry caches its instruments,
#: and results hold a registry capture instead of a rendered dict), so
#: a snapshot written by another build is skipped on resume instead of
#: restored into objects it does not fit.
SNAPSHOT_VERSION = 6
_FORMAT = "udc-snapshot"


class SnapshotError(Exception):
    """Raised for snapshot-boundary violations and unusable snapshots."""


def _drained_stub():
    """Replaces exhausted generators on restore.  Never advanced: every
    holder (a finished Process) is already triggered and will not resume
    it; this exists only so the attribute slot is filled."""
    return
    yield  # pragma: no cover  (makes this a generator function)


def _make_drained_stub():
    """Reconstructor: build the stub *already exhausted*, so a restored
    service can itself be re-snapshotted (its stubs must look like the
    exhausted generators they replace — ``gi_frame is None``)."""
    gen = _drained_stub()
    for _ in gen:  # pragma: no cover - the stub yields nothing
        pass
    return gen


class _SnapshotPickler(pickle.Pickler):
    """Pickler enforcing the quiescent-snapshot boundary.

    Exhausted generators (``gi_frame is None``) reduce to an inert stub;
    a *live* generator frame means someone is snapshotting mid-event and
    is a hard error naming the offending frame.
    """

    def reducer_override(self, obj: Any):
        if isinstance(obj, types.GeneratorType):
            if obj.gi_frame is None:
                return (_make_drained_stub, ())
            raise SnapshotError(
                f"live generator frame {obj.__qualname__!r} reached the "
                f"snapshot: snapshots must be taken at quiescent points "
                f"between events (Simulator.is_quiescent), never inside one"
            )
        if isinstance(obj, (types.CoroutineType, types.AsyncGeneratorType)):
            raise SnapshotError(
                f"coroutine object {obj!r} is not snapshotable"
            )
        return NotImplemented


def snapshot_path(directory: str, eid: int) -> str:
    """Canonical snapshot filename for event id ``eid``."""
    return os.path.join(str(directory), f"snap-{eid:08d}.udcsnap")


def save_snapshot(path: str, service: Any, eid: int) -> str:
    """Serialize ``service`` (post-event ``eid``) to ``path`` atomically."""
    sim = service.runtime.sim
    if not sim.is_quiescent:
        raise SnapshotError(
            f"snapshot at event {eid} refused: the simulator has pending "
            f"events (snapshots are only taken at quiescent points)"
        )
    buffer = io.BytesIO()
    _SnapshotPickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(service)
    payload = buffer.getvalue()
    header = json.dumps({
        "format": _FORMAT,
        "version": SNAPSHOT_VERSION,
        "eid": eid,
        "payload_bytes": len(payload),
        "sha256": hashlib.sha256(payload).hexdigest(),
    }, sort_keys=True, separators=(",", ":"))
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(header.encode("utf-8") + b"\n")
        fh.write(payload)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    return str(path)


def load_snapshot(path: str) -> Tuple[int, Any]:
    """Load a snapshot; returns ``(eid, service)``.

    Raises :class:`SnapshotError` on version mismatch, truncation, or
    digest mismatch — a crashed writer's partial file is never restored.
    """
    try:
        with open(path, "rb") as fh:
            header_line = fh.readline()
            payload = fh.read()
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc
    try:
        header = json.loads(header_line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotError(f"snapshot {path} has a corrupt header") from exc
    if header.get("format") != _FORMAT:
        raise SnapshotError(f"{path} is not a UDC snapshot")
    if header.get("version") != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"snapshot {path} is version {header.get('version')!r}; this "
            f"loader supports {SNAPSHOT_VERSION}"
        )
    if len(payload) != header.get("payload_bytes"):
        raise SnapshotError(
            f"snapshot {path} is truncated "
            f"({len(payload)} of {header.get('payload_bytes')} bytes)"
        )
    if hashlib.sha256(payload).hexdigest() != header.get("sha256"):
        raise SnapshotError(f"snapshot {path} fails its digest check")
    try:
        service = pickle.loads(payload)
    except Exception as exc:  # noqa: BLE001 - any unpickle failure is fatal
        raise SnapshotError(
            f"snapshot {path} cannot be deserialized: {exc!r}"
        ) from exc
    return int(header["eid"]), service


def list_snapshots(directory: str) -> List[Tuple[int, str]]:
    """``(eid, path)`` for every snapshot file present, ascending by eid.

    Files are listed, not validated — :func:`load_snapshot` decides
    usability, so resume can fall back across corrupt snapshots.
    """
    if not os.path.isdir(directory):
        return []
    found: List[Tuple[int, str]] = []
    for name in sorted(os.listdir(directory)):
        if not (name.startswith("snap-") and name.endswith(".udcsnap")):
            continue
        stem = name[len("snap-"):-len(".udcsnap")]
        try:
            eid = int(stem)
        except ValueError:
            continue
        found.append((eid, os.path.join(str(directory), name)))
    found.sort()
    return found
