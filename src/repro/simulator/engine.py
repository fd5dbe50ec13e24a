"""Core discrete-event simulation engine.

The design follows the classic event-heap pattern (SimPy-style) but is
self-contained and deterministic:

* Time is a float; simultaneous events are ordered by a monotonically
  increasing sequence number, so a run with the same seed is bit-for-bit
  reproducible.
* A :class:`Process` wraps a Python generator.  The generator ``yield``\\ s
  :class:`Event` objects to suspend; when the event fires, the process is
  resumed with the event's value (or the event's exception is thrown into
  the generator).
* Processes may be interrupted (:meth:`Process.interrupt`), which raises
  :class:`Interrupt` inside the generator at its current suspension point.
  Failure injection in :mod:`repro.distsem.failures` is built on this.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Generator, Iterable, List, Optional

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Interrupt",
    "Process",
    "SimClock",
    "SimulationError",
    "Simulator",
    "Timeout",
]


class SimulationError(Exception):
    """Raised for misuse of the engine (e.g. scheduling in the past)."""


class Interrupt(Exception):
    """Raised inside a process generator when it is interrupted.

    The ``cause`` attribute carries whatever object the interrupter passed
    (for failure injection this is a :class:`~repro.distsem.failures.Failure`).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


# Event states.
_PENDING = 0
_TRIGGERED = 1  # scheduled on the heap, not yet processed
_PROCESSED = 2


class Event:
    """A one-shot occurrence that callbacks (and processes) can wait on.

    An event starts *pending*.  Calling :meth:`succeed` or :meth:`fail`
    *triggers* it, which schedules its callbacks to run at the current
    simulation time.  Once the callbacks have run it is *processed*.
    """

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._state = _PENDING
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self.callbacks: List[Callable[["Event"], None]] = []

    # -- inspection ------------------------------------------------------

    @property
    def triggered(self) -> bool:
        return self._state != _PENDING

    @property
    def processed(self) -> bool:
        return self._state == _PROCESSED

    @property
    def ok(self) -> bool:
        """True once triggered successfully."""
        return self.triggered and self._exception is None

    @property
    def value(self) -> Any:
        if not self.triggered:
            raise SimulationError("event value read before trigger")
        if self._exception is not None:
            raise self._exception
        return self._value

    # -- triggering ------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise SimulationError("event already triggered")
        self._state = _TRIGGERED
        self._value = value
        self.sim._schedule_event(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Waiters see the exception raised at their ``yield``.
        """
        if self.triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._state = _TRIGGERED
        self._exception = exception
        self.sim._schedule_event(self)
        return self

    def _process(self) -> None:
        self._state = _PROCESSED
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback(self)


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        super().__init__(sim)
        self.delay = delay
        self._state = _TRIGGERED
        self._value = value
        sim._schedule_event(self, delay=delay)


class AnyOf(Event):
    """Fires when the first of ``events`` fires.

    Value is a ``(event, value)`` pair identifying which event won.  A
    failure of any constituent propagates.
    """

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        if not self.events:
            raise SimulationError("AnyOf requires at least one event")
        for event in self.events:
            if event.processed:
                self._on_child(event)
                break
            event.callbacks.append(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if event._exception is not None:
            self.fail(event._exception)
        else:
            self.succeed((event, event._value))


class AllOf(Event):
    """Fires when all of ``events`` have fired; value is the list of values."""

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        self._remaining = 0
        for event in self.events:
            if event.processed:
                if event._exception is not None:
                    self.fail(event._exception)
                    return
                continue
            self._remaining += 1
            event.callbacks.append(self._on_child)
        if self._remaining == 0 and not self.triggered:
            self.succeed([e._value for e in self.events])

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if event._exception is not None:
            self.fail(event._exception)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([e._value for e in self.events])


ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """A running activity driven by a generator.

    The process is itself an :class:`Event` that fires when the generator
    returns (value = the generator's return value) or raises (failure).
    """

    def __init__(self, sim: "Simulator", generator: ProcessGenerator, name: str = ""):
        super().__init__(sim)
        if not hasattr(generator, "send"):
            raise SimulationError("Process requires a generator")
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        # Kick-start on the next event-loop tick at the current time.
        start = Event(sim)
        start.callbacks.append(self._resume)
        start.succeed()

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Raise :class:`Interrupt` inside the process at its suspension point.

        Interrupting a finished process is a silent no-op, which makes
        failure injection idempotent.
        """
        if self.triggered:
            return
        interrupt_event = Event(self.sim)
        interrupt_event._interrupt_cause = Interrupt(cause)  # type: ignore[attr-defined]
        interrupt_event.callbacks.append(self._resume)
        interrupt_event.succeed()

    def _resume(self, event: Event) -> None:
        if self.triggered:
            return
        # Detach from whatever we were waiting on (relevant for interrupts).
        if self._waiting_on is not None and event is not self._waiting_on:
            try:
                self._waiting_on.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._waiting_on = None

        interrupt = getattr(event, "_interrupt_cause", None)
        try:
            if interrupt is not None:
                target = self._generator.throw(interrupt)
            elif event._exception is not None:
                target = self._generator.throw(event._exception)
            else:
                target = self._generator.send(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Interrupt as escaped:
            # An uncaught interrupt terminates the process unexceptionally:
            # the interrupter decided its fate.
            self.succeed(escaped.cause)
            return
        except Exception as exc:  # noqa: BLE001 - process failure propagates
            self.fail(exc)
            return

        if not isinstance(target, Event):
            self._generator.throw(
                SimulationError(f"process {self.name!r} yielded non-event {target!r}")
            )
            return
        self._waiting_on = target
        if target.processed:
            # Already happened: resume on the next tick so ordering stays FIFO.
            relay = Event(self.sim)
            relay._value = target._value
            relay._exception = target._exception
            relay._state = _TRIGGERED
            relay.callbacks.append(self._resume)
            self.sim._schedule_event(relay)
            self._waiting_on = relay
        else:
            target.callbacks.append(self._resume)


class SimClock:
    """A picklable ``() -> now`` callable bound to a simulator.

    Components that need the current time but must survive snapshot
    serialization (pool utilization meters, for one) hold one of these
    instead of a ``lambda: sim.now`` closure — lambdas cannot be
    pickled, and the replay subsystem snapshots whole control planes.
    """

    __slots__ = ("sim",)

    def __init__(self, sim: "Simulator"):
        self.sim = sim

    def __call__(self) -> float:
        return self.sim.now

    def __getstate__(self):
        return self.sim

    def __setstate__(self, state):
        self.sim = state


class Simulator:
    """The event loop: a clock plus a heap of triggered events."""

    def __init__(self):
        self._now = 0.0
        self._seq = 0
        self._heap: List[tuple] = []

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def is_quiescent(self) -> bool:
        """True when no triggered event is pending on the heap.

        At a quiescent point every process generator has either finished
        or is parked on an event nothing will ever fire — running the
        clock is a no-op.  This is the snapshot boundary for
        :mod:`repro.replay`: between events, never inside one.
        """
        return not self._heap

    @property
    def next_event_time(self) -> float:
        """Time of the earliest pending event; ``math.inf`` when the heap
        is empty.  A caller advancing the clock in slices (the gateway's
        engine tick) can jump straight here instead of stepping through
        simulated intervals in which nothing happens."""
        return self._heap[0][0] if self._heap else math.inf

    # -- public scheduling API --------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def call_at(self, when: float, callback: Callable[[], None]) -> Event:
        """Run ``callback`` at absolute time ``when``."""
        if when < self._now:
            raise SimulationError(f"call_at({when}) is in the past (now={self._now})")
        event = self.timeout(when - self._now)
        event.callbacks.append(lambda _e: callback())
        return event

    # -- engine internals --------------------------------------------------

    def _schedule_event(self, event: Event, delay: float = 0.0) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (self._now + delay, self._seq, event))

    def step(self) -> None:
        """Process the single next event."""
        when, _seq, event = heapq.heappop(self._heap)
        if when < self._now:
            raise SimulationError("event heap time went backwards")
        self._now = when
        event._process()

    def run(self, until: Optional[float] = None, until_event: Optional[Event] = None) -> Any:
        """Run until the heap drains, ``until`` time passes, or an event fires.

        Returns ``until_event.value`` when given, else ``None``.
        """
        if until is not None and until < self._now:
            raise SimulationError(f"run(until={until}) is in the past")
        while self._heap:
            if until_event is not None and until_event.processed:
                return until_event.value
            when = self._heap[0][0]
            if until is not None and when > until:
                self._now = until
                return None
            self.step()
        if until_event is not None:
            if until_event.processed:
                return until_event.value
            raise SimulationError(
                "simulation ran out of events before until_event fired (deadlock?)"
            )
        if until is not None and until > self._now:
            self._now = until
        return None
