"""Tests for the actor framework and the IR compiler."""

import pytest

from repro.appmodel.actor import ActorSystem
from repro.appmodel.annotations import AppBuilder
from repro.appmodel.ir import compile_dag
from repro.hardware.devices import DeviceType
from repro.hardware.fabric import Fabric, Location
from repro.simulator import Simulator


# ------------------------------------------------------------ actors


def test_actor_processes_messages_in_order():
    sim = Simulator()
    system = ActorSystem(sim)

    def collect(actor, message):
        actor.state.setdefault("seen", []).append(message)

    ref = system.spawn("collector", collect)
    for index in range(5):
        ref.tell(index)
    sim.run(until=1)
    assert system.actor("collector").state["seen"] == [0, 1, 2, 3, 4]


def test_actor_no_shared_state():
    """Payloads are deep-copied: sender-side mutation cannot leak."""
    sim = Simulator()
    system = ActorSystem(sim)

    def keep(actor, message):
        actor.state["msg"] = message

    ref = system.spawn("keeper", keep)
    payload = {"items": [1, 2]}
    ref.tell(payload)
    payload["items"].append(3)  # mutate after send
    sim.run(until=1)
    assert system.actor("keeper").state["msg"] == {"items": [1, 2]}


def test_actor_to_actor_messaging():
    sim = Simulator()
    system = ActorSystem(sim)

    def ponger(actor, message):
        if message == "ping":
            actor.tell(system.actor("pinger").ref, "pong")

    def pinger(actor, message):
        actor.state["got"] = message

    pong_ref = system.spawn("ponger", ponger)
    system.spawn("pinger", pinger)
    pong_ref.tell("ping")
    sim.run(until=1)
    assert system.actor("pinger").state["got"] == "pong"


def test_actor_timed_work_via_generator():
    sim = Simulator()
    system = ActorSystem(sim)

    def worker(actor, message):
        def job():
            yield sim.timeout(5.0)
            actor.state["done_at"] = sim.now

        return job()

    ref = system.spawn("worker", worker)
    ref.tell("go")
    sim.run()
    assert system.actor("worker").state["done_at"] == 5.0


def test_fabric_delay_applies_between_located_actors():
    sim = Simulator()
    fabric = Fabric(sim)
    system = ActorSystem(sim, fabric=fabric)
    arrival = {}

    def receiver(actor, message):
        arrival["t"] = sim.now

    def sender(actor, message):
        actor.tell(system.actor("receiver").ref, "payload")

    system.spawn("receiver", receiver, location=Location(0, 1, 0))
    send_ref = system.spawn("sender", sender, location=Location(0, 0, 0))
    send_ref.tell("go")
    sim.run()
    assert arrival["t"] > 0.0


def test_journal_and_replay():
    sim = Simulator()
    system = ActorSystem(sim)

    def counter(actor, message):
        actor.state["count"] = actor.state.get("count", 0) + message

    ref = system.spawn("counter", counter)
    for value in (1, 2, 3):
        ref.tell(value)
    sim.run(until=1)
    assert system.actor("counter").state["count"] == 6

    # Kill and respawn from the journal: state reconverges.
    system.respawn_from_journal("counter", counter)
    sim.run(until=2)
    assert system.actor("counter").state["count"] == 6
    assert len(system.replay_for("counter")) == 3


def test_unknown_recipient_raises():
    system = ActorSystem(Simulator())
    with pytest.raises(KeyError):
        system._deliver("x", "ghost", "msg")


def test_duplicate_actor_name_rejected():
    system = ActorSystem(Simulator())
    system.spawn("a", lambda actor, message: None)
    with pytest.raises(ValueError):
        system.spawn("a", lambda actor, message: None)


def test_graceful_stop_returns_processed_count():
    sim = Simulator()
    system = ActorSystem(sim)
    ref = system.spawn("w", lambda actor, message: None)
    ref.tell("one")
    ref.tell("two")
    system.stop("w")
    process = system.actor("w")._process
    assert sim.run(until_event=process) == 2


# ------------------------------------------------------------ IR


def make_app():
    app = AppBuilder("demo")

    @app.task(work=2.0, devices={DeviceType.CPU, DeviceType.GPU})
    def prep(ctx):
        return None

    @app.task(work=8.0, devices={DeviceType.GPU})
    def infer(ctx):
        return None

    store = app.data("store", size_gb=4)
    app.flows(prep, infer, bytes_=2048)
    app.reads(infer, store, bytes_per_run=4096)
    app.colocate(prep, infer)
    return app.build()


def test_compile_dag_shapes():
    program = compile_dag(make_app())
    assert set(program.modules) == {"prep", "infer", "store"}
    infer = program.module("infer")
    assert infer.kind == "task"
    assert infer.device_candidates == ("gpu",)
    assert infer.colocate_with == ("prep",)
    assert infer.inputs == ("prep", "store")
    assert infer.affinities == (("store", 4096),)
    store = program.module("store")
    assert store.kind == "data"
    assert store.runtime == "none"


def test_ir_interface_consistency():
    program = compile_dag(make_app())
    assert program.interface_errors() == []


def test_ir_detects_dangling_interface():
    program = compile_dag(make_app())
    broken = program.modules["infer"]
    object.__setattr__(broken, "inputs", ("ghost",))
    assert any("ghost" in e for e in program.interface_errors())


def test_per_module_language():
    program = compile_dag(make_app(), per_module_language={"prep": "java"})
    assert program.module("prep").runtime == "jvm-11"
    assert program.module("infer").runtime == "cpython-3.9"


def test_unknown_language_rejected():
    with pytest.raises(ValueError, match="unknown language"):
        compile_dag(make_app(), language="cobol")


def test_ir_serializes_to_plain_dicts():
    import json

    payload = json.dumps(compile_dag(make_app()).to_dict())
    assert "infer" in payload

