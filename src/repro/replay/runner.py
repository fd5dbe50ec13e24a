"""`ReplayRunner`: record, crash, resume, and replay deterministic runs.

A run is a pure function of its :class:`RunConfig`: the config derives a
command script (:func:`repro.replay.workloads.build_script`), and the
runner applies the script one command at a time against a freshly built
:class:`~repro.service.service.UDCService`, journaling each command as
an event with a *post-state fingerprint* (simulator clock, RNG-stream
digest, service-state digest).

Four entry points:

* :meth:`ReplayRunner.record` — execute the script start to finish,
  journaling every event, snapshotting on a cadence, and optionally
  raising :class:`SimulatedCrash` *after* journaling event ``crash_at``
  (the crash injector: the process dies with the journal durable up to
  and including that event).
* :meth:`ReplayRunner.resume` — restart after a crash: load the newest
  loadable snapshot at or before the journal tail, re-execute the
  journaled suffix while verifying each recorded fingerprint (raising
  :class:`ReplayDivergence` on mismatch), then run the remaining script
  to completion.  The final report is byte-identical to an
  uninterrupted run — that is the contract the tier-1 suite asserts.
* :meth:`ReplayRunner.replay` — re-execute a journaled prefix from
  scratch (``udc replay``), verifying fingerprints as it goes.
* :meth:`ReplayRunner.fingerprint_at` — the post-state fingerprint after
  event ``eid`` on a fresh re-execution; the probe ``udc bisect`` uses.

The ``perturb`` hook deliberately injects a divergence (one extra draw
from a named RNG stream after a chosen event) without touching the
config — it exists so bisection has something real to find in tests.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis import AnalysisError
from repro.core.telemetry import Telemetry
from repro.execenv.warmpool import WarmPool
from repro.hardware.topology import DatacenterSpec, build_datacenter
from repro.replay.journal import JournalError, JournalEvent, JournalWriter, read_journal
from repro.replay.snapshot import (
    SnapshotError,
    list_snapshots,
    load_snapshot,
    save_snapshot,
    snapshot_path,
)
from repro.replay.workloads import Command, RunScript, build_script
from repro.service import FifoAdmission, UDCService, WeightedFairShare
from repro.service.tenants import BudgetExceeded, QuotaExceeded, TenantSpec
from repro.simulator.rng import RngRegistry

__all__ = [
    "ReplayDivergence",
    "ReplayRunner",
    "RunConfig",
    "SimulatedCrash",
]


class SimulatedCrash(RuntimeError):
    """The crash injector: control-plane death at a chosen event index.

    Raised *after* the event's journal line is durable — exactly the
    state a real crash leaves behind (journal intact through the event,
    process gone, in-memory state lost).
    """

    def __init__(self, eid: int):
        super().__init__(f"simulated control-plane crash after event {eid}")
        self.eid = eid


class ReplayDivergence(Exception):
    """Replay produced a different fingerprint than the journal recorded."""


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce a run, byte for byte.

    Serialized into the journal header, so a journal is self-contained:
    any reader can rebuild the command script and re-execute any prefix.
    ``params`` must be JSON round-trippable.
    """

    workload: str
    params: Dict[str, Any] = field(default_factory=dict)
    seed: int = 0
    pods: int = 1
    racks: int = 4
    policy: str = "fair"  # "fair" | "fifo"
    batched: bool = True
    lint: bool = True
    telemetry: bool = True
    warm: bool = False
    #: placement cells (1 = the unsharded control plane); journals
    #: recorded before sharding existed deserialize to 1
    cells: int = 1
    #: economic autopilot (adaptive budgets + forecast warm pools);
    #: journals recorded before the autopilot deserialize to False
    autopilot: bool = False

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "workload": self.workload,
            "params": self.params,
            "seed": self.seed,
            "pods": self.pods,
            "racks": self.racks,
            "policy": self.policy,
            "batched": self.batched,
            "lint": self.lint,
            "telemetry": self.telemetry,
            "warm": self.warm,
            "cells": self.cells,
            "autopilot": self.autopilot,
        }

    @classmethod
    def from_json_dict(cls, payload: Dict[str, Any]) -> "RunConfig":
        try:
            return cls(
                workload=str(payload["workload"]),
                params=dict(payload.get("params", {})),
                seed=int(payload.get("seed", 0)),
                pods=int(payload.get("pods", 1)),
                racks=int(payload.get("racks", 4)),
                policy=str(payload.get("policy", "fair")),
                batched=bool(payload.get("batched", True)),
                lint=bool(payload.get("lint", True)),
                telemetry=bool(payload.get("telemetry", True)),
                warm=bool(payload.get("warm", False)),
                cells=int(payload.get("cells", 1)),
                autopilot=bool(payload.get("autopilot", False)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise JournalError(f"malformed run config: {exc}") from exc


def _canonical_bytes(payload: Any) -> bytes:
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


class ReplayRunner:
    """Drives one :class:`RunConfig` through record / resume / replay."""

    def __init__(self, config: RunConfig,
                 perturb: Optional[Dict[str, Any]] = None):
        self.config = config
        #: deliberate divergence injector for bisect tests:
        #: ``{"eid": N, "stream": name}`` draws once from the named RNG
        #: stream right after event N is applied.  Never serialized.
        self.perturb = perturb
        self.script: RunScript = build_script(
            config.workload, config.params, config.seed
        )

    # ----------------------------------------------------------- plumbing

    def _fresh_service(self) -> UDCService:
        config = self.config
        datacenter = build_datacenter(
            DatacenterSpec(pods=config.pods, racks_per_pod=config.racks)
        )
        policy = (WeightedFairShare() if config.policy == "fair"
                  else FifoAdmission())
        # With several cells the service partitions the datacenter
        # itself; telemetry/rng/warm-pool are shared across cell
        # runtimes, so the fingerprints below still cover the whole run.
        return UDCService(
            datacenter, policy=policy, batched=config.batched,
            lint=config.lint, cells=config.cells,
            autopilot=config.autopilot,
            rng=RngRegistry(config.seed),
            warm_pool=WarmPool(enabled=config.warm),
            prewarm=config.warm,
            telemetry=Telemetry(enabled=config.telemetry),
        )

    def _apply(self, service: UDCService, command: Command,
               eid: int) -> Dict[str, Any]:
        """Execute one command; returns its observable-outcome ``info``."""
        op, args = command.op, command.args
        if op == "register-tenant":
            # Journaled spec fields are optional: commands recorded
            # before TenantSpec existed carry only tenant + weight and
            # resolve to the identical registration.
            spec = TenantSpec(
                weight=float(args.get("weight", 1.0)),
                tier=str(args.get("tier", "firm")),
                goal=(str(args["goal"])
                      if args.get("goal") is not None else None),
                budget_dollars=(float(args["budget_dollars"])
                                if args.get("budget_dollars") is not None
                                else None),
                slo_s=(float(args["slo_s"])
                       if args.get("slo_s") is not None else None),
            )
            service.register_tenant(args["tenant"], spec)
            info: Dict[str, Any] = {}
        elif op == "inject-failure":
            # Routed through the service: sharded runs own one injector
            # per cell, and the domain lives where its module landed.
            service.fail_at(float(args["at"]), str(args["domain"]))
            info = {}
        elif op == "submit":
            app_key = args["app"]
            try:
                handle = service.submit(
                    args["tenant"],
                    self.script.apps[app_key],
                    self.script.definitions.get(app_key),
                    inputs=args.get("inputs"),
                )
                info = {"outcome": handle.status, "seq": handle.seq}
            except BudgetExceeded:
                # Before QuotaExceeded: budget exhaustion subclasses it.
                info = {"outcome": "budget-rejected"}
            except QuotaExceeded:
                info = {"outcome": "quota-rejected"}
            except AnalysisError:
                info = {"outcome": "lint-rejected"}
        elif op == "drain":
            finished = service.drain()
            info = {"finalized": len(finished),
                    "clock": repr(service.runtime.sim.now)}
        else:
            raise JournalError(f"unknown journaled op {op!r}")
        if self.perturb is not None and eid == int(self.perturb["eid"]):
            # One extra draw: every subsequent rng fingerprint diverges.
            service.runtime.rng.stream(str(self.perturb["stream"])).random()
        return info

    def _fingerprint(self, service: UDCService) -> Dict[str, str]:
        """Post-state fingerprint: clock, RNG streams, service state."""
        state = {
            "handles": [
                {"tenant": h.tenant, "app": h.app, "seq": h.seq,
                 "status": h.status, "cached": h.cached,
                 "cost": (repr(h.result.total_cost)
                          if h.result is not None else None)}
                for h in service.handles
            ],
            "rollup": [
                {"tenant": u.tenant, "submissions": u.submissions,
                 "completed": u.completed, "unplaceable": u.unplaceable,
                 "rejected": u.rejected, "cache_hits": u.cache_hits,
                 "total_cost": repr(u.total_cost),
                 "cost_saved": repr(u.cost_saved)}
                for u in service.rollup()
            ],
            "cache": {"hits": service.cache_stats.hits,
                      "misses": service.cache_stats.misses,
                      "evictions": service.cache_stats.evictions},
            "rounds": service.rounds,
        }
        # Autopilot state (budgets, ceilings, forecaster EWMAs,
        # preemptions) fingerprints like an RNG stream — but only when
        # economics are active, so pre-autopilot journals verify
        # byte-identically.
        economics = service.economics_fingerprint()
        if economics is not None:
            state["economics"] = economics
        return {
            "clock": repr(service.runtime.sim.now),
            "rng": service.runtime.rng.state_fingerprint(),
            "state": hashlib.sha256(_canonical_bytes(state)).hexdigest(),
        }

    # ------------------------------------------------------------ reports

    def final_report(self, service: UDCService) -> Dict[str, Any]:
        """The run's externally visible outcome, canonically ordered.

        Floats are ``repr``'d so the JSON encoding is exact (no
        formatting-dependent rounding) — byte-identity of two reports
        means bit-identity of every cost and clock value in them.
        """
        metrics = service.runtime.metrics_snapshot().to_dict()
        return {
            "config": self.config.to_json_dict(),
            "clock": repr(service.runtime.sim.now),
            "rounds": service.rounds,
            "fairness_completed": repr(service.fairness_index()),
            "handles": [
                {"tenant": h.tenant, "app": h.app, "seq": h.seq,
                 "status": h.status, "cached": h.cached,
                 "cost": (repr(h.result.total_cost)
                          if h.result is not None else None),
                 "outputs": (json.loads(_canonical_bytes(
                     h.outputs_or_none()))
                     if h.outputs_or_none() is not None else None)}
                for h in service.handles
            ],
            "rollup": [
                {"tenant": u.tenant, "submissions": u.submissions,
                 "completed": u.completed, "unplaceable": u.unplaceable,
                 "rejected": u.rejected, "cache_hits": u.cache_hits,
                 "total_cost": repr(u.total_cost),
                 "cost_saved": repr(u.cost_saved),
                 "billed_cost": repr(u.billed_cost),
                 "slo_misses": u.slo_misses,
                 "queue_wait_s": repr(u.queue_wait_s)}
                for u in service.rollup()
            ],
            "cache": {"hits": service.cache_stats.hits,
                      "misses": service.cache_stats.misses,
                      "evictions": service.cache_stats.evictions},
            "economics": service.economics_fingerprint(),
            "metrics": metrics,
        }

    def report_bytes(self, service: UDCService) -> bytes:
        """Canonical encoding of :meth:`final_report` for byte-diffing."""
        return _canonical_bytes(self.final_report(service)) + b"\n"

    # ------------------------------------------------------------- record

    def record(
        self,
        journal_path: str,
        snapshot_dir: Optional[str] = None,
        snapshot_every: Optional[int] = None,
        crash_at: Optional[int] = None,
    ) -> UDCService:
        """Execute the full script, journaling every event.

        ``snapshot_every=N`` snapshots after every Nth event that lands
        at a quiescent point; ``crash_at=K`` raises
        :class:`SimulatedCrash` immediately after event K's journal line
        is durable — mid-run, in-memory state lost, exactly what
        :meth:`resume` must recover from.
        """
        service = self._fresh_service()
        with JournalWriter(journal_path,
                           self.config.to_json_dict()) as journal:
            for eid, command in enumerate(self.script.commands):
                info = self._apply(service, command, eid)
                journal.append(JournalEvent(
                    eid=eid, op=command.op, args=command.args,
                    info=info, fingerprint=self._fingerprint(service),
                ))
                self._maybe_snapshot(service, eid, snapshot_dir,
                                     snapshot_every)
                if crash_at is not None and eid == crash_at:
                    raise SimulatedCrash(eid)
        return service

    def _maybe_snapshot(self, service: UDCService, eid: int,
                        snapshot_dir: Optional[str],
                        snapshot_every: Optional[int]) -> None:
        if snapshot_dir is None or not snapshot_every:
            return
        if (eid + 1) % snapshot_every != 0:
            return
        if not service.runtime.sim.is_quiescent:
            return  # mid-round: the next cadence hit will catch a drain
        os.makedirs(snapshot_dir, exist_ok=True)
        save_snapshot(snapshot_path(snapshot_dir, eid), service, eid)

    # ------------------------------------------------------------- resume

    def resume(
        self,
        journal_path: str,
        snapshot_dir: Optional[str] = None,
        snapshot_every: Optional[int] = None,
    ) -> UDCService:
        """Restart after a crash and run the script to completion.

        Picks the newest *loadable* snapshot with ``eid <=`` the journal
        tail (corrupt or truncated snapshots are skipped, falling back
        to older ones or to scratch), re-executes the journaled suffix
        verifying each recorded fingerprint, then continues the
        remaining script appending new events to the same journal.
        """
        config_dict, events, _torn = read_journal(journal_path)
        recorded = RunConfig.from_json_dict(config_dict)
        if recorded != self.config:
            raise JournalError(
                f"journal {journal_path} was recorded under a different "
                f"config than this runner"
            )
        last_eid = events[-1].eid if events else -1
        service, start_eid = self._latest_restorable(snapshot_dir, last_eid)
        if service is None:
            service = self._fresh_service()
            start_eid = -1
        with JournalWriter(journal_path, self.config.to_json_dict(),
                           resume=True) as journal:
            for eid in range(start_eid + 1, len(self.script.commands)):
                command = self.script.commands[eid]
                info = self._apply(service, command, eid)
                fingerprint = self._fingerprint(service)
                if eid <= last_eid:
                    recorded_event = events[eid]
                    self._check_event(recorded_event, command, fingerprint)
                else:
                    journal.append(JournalEvent(
                        eid=eid, op=command.op, args=command.args,
                        info=info, fingerprint=fingerprint,
                    ))
                self._maybe_snapshot(service, eid, snapshot_dir,
                                     snapshot_every)
        return service

    def _latest_restorable(
        self, snapshot_dir: Optional[str], last_eid: int,
    ) -> Tuple[Optional[UDCService], int]:
        """Newest loadable snapshot at or before the journal tail."""
        if snapshot_dir is None:
            return None, -1
        for eid, path in reversed(list_snapshots(snapshot_dir)):
            if eid > last_eid:
                continue  # snapshot of events the journal never saw
            try:
                snap_eid, service = load_snapshot(path)
            except SnapshotError:
                continue  # corrupt/torn: fall back to an older one
            return service, snap_eid
        return None, -1

    def _check_event(self, recorded: JournalEvent, command: Command,
                     fingerprint: Dict[str, str]) -> None:
        if recorded.op != command.op or recorded.args != command.args:
            raise ReplayDivergence(
                f"event {recorded.eid}: journal records "
                f"{recorded.op!r}{recorded.args!r} but the config-derived "
                f"script says {command.op!r}{command.args!r}"
            )
        if recorded.fingerprint != fingerprint:
            fields = sorted(
                k for k in set(recorded.fingerprint) | set(fingerprint)
                if recorded.fingerprint.get(k) != fingerprint.get(k)
            )
            raise ReplayDivergence(
                f"event {recorded.eid} ({recorded.op}): replayed "
                f"fingerprint diverges from the journal in {fields} "
                f"(journal {recorded.fingerprint!r}, replay {fingerprint!r})"
            )

    # ------------------------------------------------------------- replay

    def replay(
        self,
        journal_path: str,
        until: Optional[int] = None,
        verify: bool = True,
    ) -> Tuple[UDCService, List[JournalEvent]]:
        """Re-execute a journaled prefix from scratch.

        Runs the config-derived script through event ``until`` (default:
        the journal tail), verifying each recorded fingerprint when
        ``verify``.  Returns the reconstructed service and the journaled
        events actually replayed.
        """
        config_dict, events, _torn = read_journal(journal_path)
        recorded = RunConfig.from_json_dict(config_dict)
        if recorded != self.config:
            raise JournalError(
                f"journal {journal_path} was recorded under a different "
                f"config than this runner"
            )
        last = events[-1].eid if events else -1
        stop = last if until is None else min(until, last)
        service = self._fresh_service()
        replayed: List[JournalEvent] = []
        for eid in range(0, stop + 1):
            command = self.script.commands[eid]
            self._apply(service, command, eid)
            fingerprint = self._fingerprint(service)
            if verify:
                self._check_event(events[eid], command, fingerprint)
            replayed.append(events[eid])
        return service, replayed

    def fingerprint_at(self, eid: int) -> Dict[str, str]:
        """Post-state fingerprint after event ``eid``, fresh execution.

        The probe :func:`repro.replay.divergence.bisect_replay` calls
        O(log n) times to localize a divergence against a journal.
        """
        if not 0 <= eid < len(self.script.commands):
            raise ValueError(
                f"event id {eid} outside this script "
                f"(0..{len(self.script.commands) - 1})"
            )
        service = self._fresh_service()
        for index in range(eid + 1):
            self._apply(service, self.script.commands[index], index)
        return self._fingerprint(service)
