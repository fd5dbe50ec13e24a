"""Tests for the user-defined resilience layer (E22).

Covers the policy values (retry/hedge/deadline/breaker), their spec
parsing, the gray-failure injectors (stragglers, partitions, warm-pool
exhaustion), the runtime integration (backoff, hedging with
first-finisher-wins, deadline abandonment, breaker-aware placement), the
`udc chaos` CLI, and the robustness regressions this PR fixes (stale
repair resurrection, Submission.done on never-started submissions).
"""

import json

import pytest

from repro.appmodel.annotations import AppBuilder
from repro.appmodel.ir import compile_dag
from repro.cli import main
from repro.core.runtime import Submission, UDCRuntime
from repro.core.spec import SpecError, parse_definition
from repro.distsem.failures import Failure, FailureInjector
from repro.distsem.recovery import RecoveryStrategy, plan_recovery
from repro.distsem.resilience import (
    BreakerState,
    CircuitBreaker,
    CircuitBreakerRegistry,
    HedgePolicy,
    RetryPolicy,
)
from repro.hardware.devices import DeviceType
from repro.hardware.fabric import Location
from repro.hardware.topology import DatacenterSpec, build_datacenter
from repro.simulator.rng import RngRegistry

SPEC = DatacenterSpec(pods=1, racks_per_pod=4)


def small_app(name="app", work=20.0):
    app = AppBuilder(name)

    # max_parallelism=1: wall time stays work-seconds even when the spec
    # over-allocates to force one worker per device.
    @app.task(name="job", work=work, max_parallelism=1)
    def job(ctx):
        return "done"

    return app.build()


def exclusive(policy: dict) -> dict:
    """A spec granting job its own 32-core CPU device (amount > half)."""
    return {"job": {"resource": {"device": "cpu", "amount": 17},
                    "distributed": dict(policy)}}


# ------------------------------------------------------------ RetryPolicy


def test_retry_backoff_grows_and_caps():
    policy = RetryPolicy(max_attempts=5, base_backoff_s=1.0, multiplier=2.0,
                         max_backoff_s=5.0, jitter=0.0)
    delays = [policy.backoff_s(n, RngRegistry(0).stream("r"))
              for n in (1, 2, 3, 4, 5)]
    assert delays == [1.0, 2.0, 4.0, 5.0, 5.0]


def test_retry_backoff_jitter_deterministic_per_seed():
    policy = RetryPolicy(jitter=0.5)
    first = [policy.backoff_s(n, s) for s in [RngRegistry(3).stream("retry:m")]
             for n in (1, 2, 3)]
    second = [policy.backoff_s(n, s) for s in [RngRegistry(3).stream("retry:m")]
              for n in (1, 2, 3)]
    other = [policy.backoff_s(n, s) for s in [RngRegistry(4).stream("retry:m")]
             for n in (1, 2, 3)]
    assert first == second
    assert first != other


def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=-1)
    with pytest.raises(ValueError):
        RetryPolicy(multiplier=0.5)
    with pytest.raises(ValueError):
        RetryPolicy(jitter=1.5)
    with pytest.raises(ValueError):
        RetryPolicy().backoff_s(0, RngRegistry(0).stream("r"))


# ------------------------------------------------------------ HedgePolicy


def test_hedge_trigger_modes():
    assert HedgePolicy(after_s=3.0).trigger_delay_s(100.0) == 3.0
    assert HedgePolicy(latency_factor=1.5).trigger_delay_s(10.0) == 15.0


def test_hedge_requires_exactly_one_trigger():
    with pytest.raises(ValueError):
        HedgePolicy()
    with pytest.raises(ValueError):
        HedgePolicy(after_s=1.0, latency_factor=1.5)
    with pytest.raises(ValueError):
        HedgePolicy(after_s=-1.0)
    with pytest.raises(ValueError):
        HedgePolicy(latency_factor=2.0, max_hedges=0)


# ------------------------------------------------------------ CircuitBreaker


def test_breaker_opens_after_threshold_in_window():
    breaker = CircuitBreaker(key="d", threshold=3, window_s=10.0)
    assert not breaker.record_failure(0.0)
    assert not breaker.record_failure(1.0)
    assert breaker.record_failure(2.0)  # third within the window: opens
    assert breaker.state == BreakerState.OPEN
    assert not breaker.allows(3.0)


def test_breaker_window_expires_old_failures():
    breaker = CircuitBreaker(key="d", threshold=3, window_s=10.0)
    breaker.record_failure(0.0)
    breaker.record_failure(1.0)
    # 30s later the first two aged out; this is failure #1 of a new window
    assert not breaker.record_failure(30.0)
    assert breaker.state == BreakerState.CLOSED


def test_breaker_half_open_trial_then_close_or_reopen():
    breaker = CircuitBreaker(key="d", threshold=1, cooldown_s=5.0)
    assert breaker.record_failure(0.0)
    assert not breaker.allows(1.0)
    assert breaker.allows(6.0)  # cooldown elapsed: half-open trial granted
    assert breaker.state == BreakerState.HALF_OPEN
    breaker.record_success(7.0)
    assert breaker.state == BreakerState.CLOSED
    # and the reopen path: half-open + failure -> straight back to open
    breaker.record_failure(8.0)
    assert breaker.allows(14.0)
    assert breaker.record_failure(15.0)
    assert breaker.state == BreakerState.OPEN


def test_breaker_registry_counts_opens_and_lists_open_keys():
    registry = CircuitBreakerRegistry(threshold=1, cooldown_s=100.0)
    assert registry.record_failure("cpu-1", 0.0)
    assert not registry.record_failure("cpu-1", 1.0)  # already open
    assert registry.opens == 1
    assert registry.open_keys(2.0) == ["cpu-1"]
    assert not registry.allows("cpu-1", 2.0)
    assert registry.allows("cpu-2", 2.0)


def test_breaker_registry_disabled_is_passthrough():
    registry = CircuitBreakerRegistry(threshold=1, enabled=False)
    assert not registry.record_failure("cpu-1", 0.0)
    assert registry.allows("cpu-1", 1.0)
    assert registry.opens == 0


# ------------------------------------------------------------ spec parsing


def test_spec_parses_resilience_policies():
    definition = parse_definition({
        "job": {"distributed": {
            "retry": {"max_attempts": 5, "base_backoff_s": 0.1},
            "deadline_s": 30.0,
            "hedge": {"after_s": 4.0, "max_hedges": 2},
        }}
    })
    dist = definition.bundle_for("job").distributed
    assert dist.retry.max_attempts == 5
    assert dist.deadline_s == 30.0
    assert dist.hedge.after_s == 4.0 and dist.hedge.max_hedges == 2


def test_spec_resilience_shorthands():
    definition = parse_definition(
        {"job": {"distributed": {"retry": 4, "hedge": 1.5}}}
    )
    dist = definition.bundle_for("job").distributed
    assert dist.retry.max_attempts == 4
    assert dist.hedge.latency_factor == 1.5


def test_spec_rejects_bad_resilience_fields():
    with pytest.raises(SpecError) as excinfo:
        parse_definition({"job": {"distributed": {
            "retry": {"attempts": 3},       # unknown field
            "hedge": {"after_s": 1.0, "latency_factor": 2.0},  # both triggers
            "deadline_s": -5.0,
        }}})
    text = str(excinfo.value)
    assert "retry" in text and "hedge" in text and "deadline" in text


# ------------------------------------------------------------ gray injectors


def test_slow_at_sets_and_restores_straggler_factor():
    dc = build_datacenter(SPEC)
    injector = FailureInjector(dc.sim)
    device = dc.devices[0]
    injector.domain("fd1").devices.append(device)
    injector.slow_at(5.0, "fd1", factor=8.0, duration_s=10.0)
    dc.sim.run(until=6.0)
    assert device.slow_factor == 8.0
    assert not device.failed  # gray: degraded, not dead
    dc.sim.run(until=20.0)
    assert device.slow_factor == 1.0
    with pytest.raises(ValueError):
        injector.slow_at(1.0, "fd1", factor=0.5)


def test_partition_stalls_cross_cut_transfers_then_heals():
    dc = build_datacenter(SPEC)
    a, b = Location(0, 0), Location(0, 1)
    baseline = dc.fabric.transfer_time(a, b, 1 << 20)
    injector = FailureInjector(dc.sim, fabric=dc.fabric)
    injector.partition_at(1.0, a, b, duration_s=10.0, stall_s=30.0)
    dc.sim.run(until=2.0)
    assert dc.fabric.transfer_time(a, b, 1 << 20) == \
        pytest.approx(baseline + 30.0)
    # other rack pairs are unaffected
    assert dc.fabric.transfer_time(a, Location(0, 2), 1 << 20) < 1.0
    dc.sim.run(until=12.0)
    assert dc.fabric.transfer_time(a, b, 1 << 20) == pytest.approx(baseline)


def test_sever_same_rack_rejected():
    dc = build_datacenter(SPEC)
    with pytest.raises(ValueError):
        dc.fabric.sever(Location(0, 0, 1), Location(0, 0, 2))


def test_warm_pool_exhaustion_blocks_refills_until_restore():
    from repro.execenv.environments import EnvKind
    from repro.execenv.warmpool import WarmPool

    pool = WarmPool(enabled=True)
    pool.prewarm(EnvKind.CONTAINER, False, count=2)
    assert pool.exhaust() == 2
    assert pool.refill() == 0  # refills suspended during the outage
    assert not pool.try_acquire(EnvKind.CONTAINER, False)
    pool.restore()
    assert pool.refill() > 0
    assert pool.try_acquire(EnvKind.CONTAINER, False)


# ------------------------------------------------ regression: stale repair


def test_stale_repair_cannot_resurrect_refailed_domain():
    """A scheduled repair from failure #1 fires after failure #2 already
    re-failed the domain: the domain (and its devices) must stay failed."""
    dc = build_datacenter(SPEC)
    injector = FailureInjector(dc.sim)
    domain = injector.domain("fd1")
    device = dc.devices[0]
    domain.devices.append(device)
    injector.fail_at(1.0, "fd1", repair_after=10.0)  # repair due at 11.0
    injector.fail_at(5.0, "fd1")                      # permanent re-failure
    dc.sim.run()
    assert domain.failed
    assert device.failed


def test_unconditional_repair_still_works():
    dc = build_datacenter(SPEC)
    injector = FailureInjector(dc.sim)
    domain = injector.domain("fd1")
    domain.fail(Failure(domain="fd1", at=0.0))
    domain.repair()  # manual repair carries no failure: always applies
    assert not domain.failed


# ------------------------------------------- regression: Submission.done


def test_never_started_submission_is_not_done():
    dag = small_app()
    submission = Submission(dag=dag, tenant="t", inputs={})
    assert submission.status == "pending"
    assert not submission.done
    submission.status = "queued"
    assert not submission.done


def test_data_only_submission_is_done_once_running():
    app = AppBuilder("data-only")
    app.data("ds", size_gb=1.0)
    runtime = UDCRuntime(build_datacenter(SPEC))
    submission = runtime.submit(app.build())
    assert submission.done  # deployed, zero task completions
    runtime.drain()


def test_running_submission_done_only_after_completion():
    runtime = UDCRuntime(build_datacenter(SPEC))
    submission = runtime.submit(small_app())
    assert not submission.done
    runtime.drain()
    assert submission.done


# ------------------------------------------------ recovery degradation


def test_checkpoint_restore_without_store_degrades_to_rerun():
    outcome = plan_recovery(RecoveryStrategy.CHECKPOINT_RESTORE, "A2", None)
    assert outcome.strategy == RecoveryStrategy.RERUN
    assert outcome.resume_progress == 0.0
    assert outcome.checkpoint is None


def test_checkpoint_restore_without_snapshot_degrades_to_rerun():
    from repro.distsem.checkpoint import CheckpointStore

    dc = build_datacenter(SPEC)
    store = CheckpointStore(dc.sim, dc.fabric,
                           dc.pool(DeviceType.SSD).devices[0])
    outcome = plan_recovery(RecoveryStrategy.CHECKPOINT_RESTORE, "A2", store)
    assert outcome.strategy == RecoveryStrategy.RERUN
    assert outcome.resume_progress == 0.0


# ------------------------------------------------ runtime integration


def test_retry_policy_limits_attempts():
    """max_attempts=1: the second crash abandons the module."""
    runtime = UDCRuntime(build_datacenter(SPEC))
    result = runtime.run(
        small_app(work=30.0),
        exclusive({"retry": {"max_attempts": 1, "base_backoff_s": 0.1}}),
        failure_plan=[(2.0, "fd:job"), (6.0, "fd:job")],
    )
    assert "job" not in result.outputs
    assert result.row("job").retries == 1
    assert result.row("job").failures == 2


def test_retry_policy_backs_off_before_reexecution():
    runtime = UDCRuntime(build_datacenter(SPEC), rng=RngRegistry(1))
    result = runtime.run(
        small_app(work=10.0),
        exclusive({"retry": {"max_attempts": 3, "base_backoff_s": 2.0,
                             "jitter": 0.0}}),
        failure_plan=[(1.0, "fd:job")],
    )
    record = result.objects["job"].record
    assert result.outputs["job"] == "done"
    assert record.retries == 1
    assert record.backoff_s == pytest.approx(2.0)
    assert result.telemetry.events_of("retry")


def test_deadline_abandons_module_and_counts_slo_violation():
    runtime = UDCRuntime(build_datacenter(SPEC))
    result = runtime.run(small_app(work=50.0),
                         exclusive({"deadline_s": 10.0}))
    row = result.row("job")
    assert row.deadline_missed
    assert result.slo_violations == 1
    assert "job" not in result.outputs
    assert result.makespan_s == pytest.approx(10.0, abs=0.5)
    assert result.telemetry.events_of("deadline_miss")
    # the abandoned module's allocations were released
    assert all(a.released for a in result.objects["job"].allocations)


def test_hedge_beats_straggler_primary():
    runtime = UDCRuntime(build_datacenter(SPEC))
    submission = runtime.submit(small_app(work=20.0),
                                exclusive({"hedge": 1.5}))
    runtime.injector.slow_at(1.0, "fd:job", factor=10.0)
    runtime.drain()
    result = submission.result
    record = result.objects["job"].record
    assert result.outputs["job"] == "done"
    assert record.hedge_won and record.winner == "hedge"
    assert record.hedges == 1
    assert result.telemetry.events_of("hedge-win")
    # the duplicate beat the 10x primary: well under the 200s slow path
    assert result.makespan_s < 100.0
    assert all(a.released for a in result.objects["job"].allocations)


def test_hedge_not_launched_when_primary_is_fast():
    runtime = UDCRuntime(build_datacenter(SPEC))
    result = runtime.run(small_app(work=10.0), exclusive({"hedge": 2.0}))
    assert result.outputs["job"] == "done"
    assert result.row("job").hedges == 0
    assert result.row("job").hedge_won is False


def test_hedge_device_crash_loses_the_hedge_not_the_task():
    """A crash on the hedge's own device: the hedge fails and gives its
    allocation back, the breaker blames that device, and the straggler
    primary still completes."""
    runtime = UDCRuntime(
        build_datacenter(SPEC),
        breakers=CircuitBreakerRegistry(threshold=1, cooldown_s=10_000.0),
    )
    submission = runtime.submit(small_app(work=20.0),
                                exclusive({"hedge": 1.5}))
    primary = submission.objects["job"].primary_allocation.device
    pool = runtime.datacenter.pool(DeviceType.CPU)
    # Every CPU device but the primary's shares one failure domain, so
    # failing it crashes whichever device the hedge landed on.
    runtime.injector.domain("others").devices.extend(
        device for device in pool.devices if device is not primary
    )
    runtime.injector.slow_at(1.0, "fd:job", factor=10.0)
    runtime.injector.fail_at(40.0, "others")
    runtime.drain()
    result = submission.result
    telemetry = runtime.telemetry

    root = next(s for s in telemetry.spans_for("job") if s.name == "task")
    hedge = next(s for s in telemetry.span_children()[root.span_id]
                 if s.name == "hedge")
    assert (hedge.status, hedge.start_s, hedge.end_s) == ("error", 30.75,
                                                          40.0)
    assert runtime.metrics_snapshot().value("udc_hedge_losses_total") == 1.0
    record = result.objects["job"].record
    assert (record.failures, record.hedges, record.hedge_won) == (1, 1, False)
    assert record.winner == "primary"
    assert runtime.breakers.open_keys(runtime.sim.now) \
        == [hedge.attrs["device"]]
    assert hedge.attrs["device"] != primary.device_id

    # The hedge's allocation went back to the pool; nothing leaks.
    pool.check_accounting()
    assert all(p.total_used == 0.0 for p in runtime.datacenter.pools)
    assert all(a.released for a in result.objects["job"].allocations)

    # The 10x straggler primary finishes on its own: 0.5 s startup, one
    # full-speed 5 s chunk, then three 50 s chunks.
    assert result.outputs["job"] == "done"
    assert result.makespan_s == pytest.approx(155.5)


def test_breaker_opens_on_crash_and_placement_avoids_device():
    runtime = UDCRuntime(
        build_datacenter(SPEC),
        breakers=CircuitBreakerRegistry(threshold=1, cooldown_s=10_000.0),
    )
    submission = runtime.submit(
        small_app(work=30.0),
        exclusive({"retry": {"max_attempts": 3, "base_backoff_s": 0.1}}),
        failure_plan=[(2.0, "fd:job")],
    )
    failed_device = submission.objects["job"].primary_allocation.device
    runtime.drain()
    result = submission.result
    assert result.outputs["job"] == "done"
    assert runtime.breakers.opens >= 1
    assert result.telemetry.events_of("breaker_open")
    assert not runtime.breakers.allows(
        failed_device.device_id, runtime.sim.now
    )
    # the retried attempt migrated off the broken device
    assert result.objects["job"].record.migrations >= 1


def test_retry_schedule_deterministic_across_runs():
    """Same seed -> identical JSON summary, including backoff timing."""

    def one_run():
        runtime = UDCRuntime(build_datacenter(SPEC), rng=RngRegistry(11))
        result = runtime.run(
            small_app(work=15.0),
            exclusive({"retry": {"max_attempts": 3, "base_backoff_s": 1.0,
                                 "jitter": 0.5}}),
            failure_plan=[(2.0, "fd:job")],
        )
        return (json.dumps(result.to_json_dict(), sort_keys=True),
                result.objects["job"].record.backoff_s)

    first_json, first_backoff = one_run()
    second_json, second_backoff = one_run()
    assert first_json == second_json
    assert first_backoff == second_backoff
    runtime = UDCRuntime(build_datacenter(SPEC), rng=RngRegistry(12))
    other = runtime.run(
        small_app(work=15.0),
        exclusive({"retry": {"max_attempts": 3, "base_backoff_s": 1.0,
                             "jitter": 0.5}}),
        failure_plan=[(2.0, "fd:job")],
    )
    assert other.objects["job"].record.backoff_s != first_backoff


# ------------------------------------------------------------ chaos CLI


@pytest.fixture()
def chaos_files(tmp_path):
    path = tmp_path / "app.json"
    path.write_text(json.dumps(compile_dag(small_app(work=20.0)).to_dict()))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(exclusive({"retry": 4, "hedge": 1.5})))
    faults = tmp_path / "faults.json"
    faults.write_text(json.dumps([
        {"at": 1.0, "kind": "slow", "domain": "fd:job", "factor": 8,
         "duration_s": 60.0},
        {"at": 5.0, "kind": "crash", "domain": "fd:job",
         "repair_after": 2.0},
        {"at": 2.0, "kind": "partition", "a": [0, 0], "b": [0, 1],
         "duration_s": 50.0},
    ]))
    return str(path), str(spec), str(faults)


def test_cli_chaos_reports_resilience(chaos_files, capsys):
    app, spec, faults = chaos_files
    code = main(["chaos", app, "--spec", spec, "--faults", faults,
                 "--seed", "7"])
    out = capsys.readouterr().out
    assert code == 0
    assert "fault(s) injected" in out
    assert "makespan" in out


def test_cli_chaos_json_is_deterministic(chaos_files, capsys):
    app, spec, faults = chaos_files
    assert main(["chaos", app, "--spec", spec, "--faults", faults,
                 "--seed", "7", "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["chaos", app, "--spec", spec, "--faults", faults,
                 "--seed", "7", "--json"]) == 0
    second = capsys.readouterr().out
    payload = json.loads(first)
    assert payload["faults_injected"] == 3
    assert first == second


def test_cli_chaos_rejects_bad_fault_entries(chaos_files, tmp_path, capsys):
    app, spec, _ = chaos_files
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([{"at": 1.0, "kind": "meteor"}]))
    code = main(["chaos", app, "--spec", spec, "--faults", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "unknown kind" in err


def test_cli_chaos_exit_code_signals_slo_violation(chaos_files, tmp_path,
                                                   capsys):
    app, _, _ = chaos_files
    spec = tmp_path / "slo.json"
    # amount=1 (IR round-trips drop max_parallelism, so wall time scales
    # with the allocation): a 20s job against a 5s deadline must miss.
    spec.write_text(json.dumps(
        {"job": {"resource": {"device": "cpu", "amount": 1},
                 "distributed": {"deadline_s": 5.0}}}))
    code = main(["chaos", app, "--spec", str(spec)])
    out = capsys.readouterr().out
    assert code == 3
    assert "SLO violation" in out
