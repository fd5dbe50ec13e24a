"""Failure domains and deterministic failure injection (paper §3.4).

Users *"can define the failure domains in their programs, with the
understanding that different domains could fail independently while code
and data within a domain will fail as a whole."*

:class:`FailureDomain` groups devices (and the module processes running on
them); :class:`FailureInjector` schedules domain failures on the simulator
clock — marking devices failed and interrupting every registered process —
and optional repairs.  All randomness comes from a named RNG stream so
failure schedules are reproducible.

Beyond crash-stop, the injector models the *gray* failures real clouds
see (E22): straggler devices whose compute chunks stretch by a factor,
fabric partitions that stall (not drop) cross-rack transfers, and
warm-pool exhaustion that turns every environment launch into a cold
start.  Gray failures carry a ``kind`` other than ``"crash"`` so
crash-recovery listeners (store healing, migration) can ignore them —
the resilience *policies* (retry, hedge, deadline) are what absorb them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.hardware.devices import Device
from repro.simulator.engine import Process, Simulator
from repro.simulator.rng import RngRegistry

__all__ = ["Failure", "FailureDomain", "FailureInjector"]


@dataclass(frozen=True)
class Failure:
    """Carried as the Interrupt cause into affected processes.

    ``kind`` distinguishes crash-stop (``"crash"``) from gray modes:
    ``"slow"`` (straggler device), ``"partition"`` (fabric cut),
    ``"warm-exhaust"`` (warm-pool outage).  Only crashes interrupt
    processes and trip crash-recovery; gray failures degrade timing.
    """

    domain: str
    at: float
    permanent: bool = False
    kind: str = "crash"


@dataclass
class FailureDomain:
    """A named blast radius: devices plus the processes pinned to them.

    Both collections stay bounded over a long-lived service: a device
    joins once however many deployments land on it (first-join order),
    and a process leaves the moment it finishes.
    """

    name: str
    devices: List[Device] = field(default_factory=list)
    #: live processes, in registration order (a dict used as an ordered
    #: set; each entry is dropped when its process finishes)
    processes: Dict[Process, None] = field(default_factory=dict)
    failed: bool = False
    #: most recent crash applied to this domain; scheduled repairs are
    #: only honored for the failure they were paired with, so a stale
    #: repair cannot resurrect a domain that failed again (permanently
    #: or otherwise) in the meantime.
    last_failure: Optional[Failure] = None

    def add_device(self, device: Device) -> None:
        """Join ``device`` unless it is already a member."""
        if not any(member is device for member in self.devices):
            self.devices.append(device)

    def register_process(self, process: Process) -> None:
        self.processes[process] = None
        process.callbacks.append(self._forget)

    def _forget(self, process: Process) -> None:
        self.processes.pop(process, None)

    def fail(self, failure: Failure) -> None:
        self.failed = True
        self.last_failure = failure
        for device in self.devices:
            device.failed = True
        for process in self.processes:
            process.interrupt(failure)

    def repair(self, failure: Optional[Failure] = None) -> None:
        """Un-fail the domain.

        When ``failure`` is given (the scheduled-repair path), the repair
        only applies if that failure is still the domain's most recent
        one — otherwise a later failure owns the domain's state and this
        repair is stale.
        """
        if failure is not None and failure is not self.last_failure:
            return
        self.failed = False
        for device in self.devices:
            device.failed = False


class FailureInjector:
    """Schedules failures against domains on the simulation clock.

    ``fabric`` and ``warm_pool`` are only needed for the gray injectors
    (:meth:`partition_at`, :meth:`exhaust_warm_pool_at`); crash and
    straggler injection work without them.
    """

    def __init__(
        self,
        sim: Simulator,
        rng: Optional[RngRegistry] = None,
        fabric=None,
        warm_pool=None,
    ):
        self.sim = sim
        self.rng = (rng or RngRegistry(0)).stream("failures")
        self.fabric = fabric
        self.warm_pool = warm_pool
        self.domains: Dict[str, FailureDomain] = {}
        self.injected: List[Failure] = []
        #: observers notified on each failure (the runtime's recovery hook)
        self.listeners: List[Callable[[Failure, FailureDomain], None]] = []

    def domain(self, name: str) -> FailureDomain:
        if name not in self.domains:
            self.domains[name] = FailureDomain(name=name)
        return self.domains[name]

    def subscribe(self, listener: Callable[[Failure, FailureDomain], None]) -> None:
        self.listeners.append(listener)

    def _notify(self, failure: Failure, domain: Optional[FailureDomain]) -> None:
        self.injected.append(failure)
        for listener in self.listeners:
            listener(failure, domain)

    # -- crash-stop ---------------------------------------------------------

    def fail_at(
        self, when: float, domain_name: str, repair_after: Optional[float] = None
    ) -> None:
        """Fail ``domain_name`` at absolute sim time ``when``; optionally
        repair it ``repair_after`` seconds later."""

        def inject():
            domain = self.domain(domain_name)
            failure = Failure(
                domain=domain_name, at=self.sim.now, permanent=repair_after is None
            )
            domain.fail(failure)
            self._notify(failure, domain)
            if repair_after is not None:
                # Bind the repair to *this* failure: if the domain fails
                # again before the repair fires, the repair is stale and
                # must not resurrect it.
                self.sim.call_at(
                    self.sim.now + repair_after,
                    lambda: domain.repair(failure),
                )

        self.sim.call_at(when, inject)

    # -- gray failures (E22) ------------------------------------------------

    def slow_at(
        self,
        when: float,
        domain_name: str,
        factor: float,
        duration_s: Optional[float] = None,
    ) -> None:
        """Make every device in ``domain_name`` a straggler at ``when``:
        compute chunks stretch by ``factor`` until ``duration_s`` elapses
        (or forever when None).  Processes are *not* interrupted — that is
        what makes the failure gray."""
        if factor <= 1.0:
            raise ValueError(f"slow factor must be > 1, got {factor}")

        def inject():
            domain = self.domain(domain_name)
            failure = Failure(
                domain=domain_name, at=self.sim.now,
                permanent=duration_s is None, kind="slow",
            )
            for device in domain.devices:
                device.slow_factor = factor
            self._notify(failure, domain)
            if duration_s is not None:
                def restore():
                    for device in domain.devices:
                        # only undo our own degradation; a later, stronger
                        # slow fault keeps its factor
                        if device.slow_factor == factor:
                            device.slow_factor = 1.0
                self.sim.call_at(self.sim.now + duration_s, restore)

        self.sim.call_at(when, inject)

    def partition_at(
        self,
        when: float,
        a,
        b,
        duration_s: Optional[float] = None,
        stall_s: float = 30.0,
    ) -> None:
        """Sever the fabric between the racks of locations ``a`` and ``b``
        at ``when``; transfers crossing the cut stall by ``stall_s`` each
        until the partition heals after ``duration_s`` (None = never)."""
        if self.fabric is None:
            raise ValueError("partition_at requires an injector built with a fabric")

        def inject():
            self.fabric.sever(a, b, stall_s=stall_s)
            failure = Failure(
                domain=f"fabric:{a}~{b}", at=self.sim.now,
                permanent=duration_s is None, kind="partition",
            )
            self._notify(failure, None)
            if duration_s is not None:
                self.sim.call_at(
                    self.sim.now + duration_s,
                    lambda: self.fabric.heal_partition(a, b),
                )

        self.sim.call_at(when, inject)

    def exhaust_warm_pool_at(
        self, when: float, duration_s: Optional[float] = None
    ) -> None:
        """Empty the warm pool at ``when`` and suspend refills until
        ``duration_s`` later (None = for the rest of the run)."""
        if self.warm_pool is None:
            raise ValueError(
                "exhaust_warm_pool_at requires an injector built with a warm pool"
            )

        def inject():
            self.warm_pool.exhaust()
            failure = Failure(
                domain="warm-pool", at=self.sim.now,
                permanent=duration_s is None, kind="warm-exhaust",
            )
            self._notify(failure, None)
            if duration_s is not None:
                self.sim.call_at(
                    self.sim.now + duration_s, self.warm_pool.restore
                )

        self.sim.call_at(when, inject)

    # -- random schedules ---------------------------------------------------

    def random_failures(
        self,
        domain_names: List[str],
        horizon_s: float,
        mtbf_s: float,
        repair_after: Optional[float] = None,
    ) -> List[Tuple[float, str]]:
        """Poisson-ish failure schedule: each domain fails with exponential
        inter-arrival ``mtbf_s`` within ``horizon_s``.  Returns the
        ``(time, domain)`` schedule — byte-identical across runs with the
        same RNG seed, which the determinism tests assert."""
        schedule: List[Tuple[float, str]] = []
        for name in domain_names:
            t = self.rng.expovariate(1.0 / mtbf_s)
            while t < horizon_s:
                self.fail_at(t, name, repair_after=repair_after)
                schedule.append((t, name))
                t += self.rng.expovariate(1.0 / mtbf_s)
        return schedule
