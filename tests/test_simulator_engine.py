"""Unit tests for the discrete-event engine."""

import math

import pytest

from repro.simulator import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    SimulationError,
    Simulator,
)


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()
    sim.timeout(5.0)
    sim.run()
    assert sim.now == 5.0


def test_next_event_time_tracks_the_heap():
    sim = Simulator()
    assert sim.next_event_time == math.inf
    sim.timeout(5.0)
    sim.timeout(2.0)
    assert sim.next_event_time == 2.0
    sim.run(until=1.0)
    assert (sim.now, sim.next_event_time) == (1.0, 2.0)
    sim.run(until=sim.next_event_time)
    assert (sim.now, sim.next_event_time) == (2.0, 5.0)
    sim.event().succeed()            # triggered now: due at the current time
    assert sim.next_event_time == 2.0
    sim.run()
    assert (sim.now, sim.next_event_time) == (5.0, math.inf)


def test_timeout_carries_value():
    sim = Simulator()
    t = sim.timeout(1.0, value="payload")
    sim.run()
    assert t.value == "payload"


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    for delay in (3.0, 1.0, 2.0):
        sim.timeout(delay).callbacks.append(
            lambda _e, d=delay: order.append(d)
        )
    sim.run()
    assert order == [1.0, 2.0, 3.0]


def test_simultaneous_events_fifo():
    sim = Simulator()
    order = []
    for tag in "abc":
        sim.timeout(1.0).callbacks.append(lambda _e, t=tag: order.append(t))
    sim.run()
    assert order == ["a", "b", "c"]


def test_event_cannot_trigger_twice():
    sim = Simulator()
    event = sim.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_event_value_before_trigger_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        _ = sim.event().value


def test_fail_requires_exception_instance():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.event().fail("not an exception")  # type: ignore[arg-type]


def test_process_returns_generator_value():
    sim = Simulator()

    def worker():
        yield sim.timeout(2.0)
        return 42

    process = sim.process(worker())
    assert sim.run(until_event=process) == 42
    assert sim.now == 2.0


def test_process_sequential_timeouts_accumulate():
    sim = Simulator()

    def worker():
        yield sim.timeout(1.0)
        yield sim.timeout(2.5)
        return sim.now

    process = sim.process(worker())
    assert sim.run(until_event=process) == 3.5


def test_process_receives_event_value():
    sim = Simulator()

    def worker():
        value = yield sim.timeout(1.0, value="hello")
        return value

    process = sim.process(worker())
    assert sim.run(until_event=process) == "hello"


def test_process_exception_propagates_to_waiter():
    sim = Simulator()

    def failing():
        yield sim.timeout(1.0)
        raise ValueError("boom")

    def waiter():
        try:
            yield sim.process(failing())
        except ValueError as exc:
            return f"caught {exc}"

    process = sim.process(waiter())
    assert sim.run(until_event=process) == "caught boom"


def test_process_waits_on_manual_event():
    sim = Simulator()
    gate = sim.event()

    def worker():
        value = yield gate
        return value

    process = sim.process(worker())
    sim.call_at(4.0, lambda: gate.succeed("opened"))
    assert sim.run(until_event=process) == "opened"
    assert sim.now == 4.0


def test_interrupt_raises_inside_process():
    sim = Simulator()
    caught = []

    def worker():
        try:
            yield sim.timeout(100.0)
        except Interrupt as interrupt:
            caught.append(interrupt.cause)
            return "interrupted"
        return "finished"

    process = sim.process(worker())
    sim.call_at(5.0, lambda: process.interrupt("failure"))
    assert sim.run(until_event=process) == "interrupted"
    assert caught == ["failure"]
    assert sim.now == 5.0


def test_interrupt_after_completion_is_noop():
    sim = Simulator()

    def worker():
        yield sim.timeout(1.0)
        return "done"

    process = sim.process(worker())
    sim.run(until_event=process)
    process.interrupt("late")  # must not raise
    assert process.value == "done"


def test_uncaught_interrupt_terminates_with_cause():
    sim = Simulator()

    def worker():
        yield sim.timeout(100.0)

    process = sim.process(worker())
    sim.call_at(1.0, lambda: process.interrupt("killed"))
    assert sim.run(until_event=process) == "killed"


def test_any_of_returns_first_winner():
    sim = Simulator()

    def worker():
        winner = yield sim.any_of([sim.timeout(5.0, "slow"), sim.timeout(1.0, "fast")])
        return winner[1]

    process = sim.process(worker())
    assert sim.run(until_event=process) == "fast"
    assert sim.now == 1.0


def test_all_of_waits_for_everything():
    sim = Simulator()

    def worker():
        values = yield sim.all_of([sim.timeout(1.0, "a"), sim.timeout(3.0, "b")])
        return values

    process = sim.process(worker())
    assert sim.run(until_event=process) == ["a", "b"]
    assert sim.now == 3.0


def test_all_of_with_already_fired_events():
    sim = Simulator()
    t1 = sim.timeout(1.0, "x")
    sim.run()  # t1 now processed

    def worker():
        values = yield sim.all_of([t1, sim.timeout(1.0, "y")])
        return values

    process = sim.process(worker())
    assert sim.run(until_event=process) == ["x", "y"]


def test_any_of_empty_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        AnyOf(sim, [])


def test_run_until_time_stops_clock_exactly():
    sim = Simulator()
    sim.timeout(10.0)
    sim.run(until=4.0)
    assert sim.now == 4.0
    sim.run()
    assert sim.now == 10.0


def test_run_until_past_raises():
    sim = Simulator()
    sim.timeout(5.0)
    sim.run()
    with pytest.raises(SimulationError):
        sim.run(until=1.0)


def test_deadlock_detection():
    sim = Simulator()
    never = sim.event()

    def worker():
        yield never

    process = sim.process(worker())
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run(until_event=process)


def test_call_at_in_past_raises():
    sim = Simulator()
    sim.timeout(5.0)
    sim.run()
    with pytest.raises(SimulationError):
        sim.call_at(2.0, lambda: None)


def test_nested_processes():
    sim = Simulator()

    def inner(n):
        yield sim.timeout(n)
        return n * 10

    def outer():
        a = yield sim.process(inner(1))
        b = yield sim.process(inner(2))
        return a + b

    process = sim.process(outer())
    assert sim.run(until_event=process) == 30
    assert sim.now == 3.0
