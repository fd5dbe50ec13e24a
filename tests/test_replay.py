"""Tests for deterministic checkpoint/replay (journal, snapshot, bisect).

The load-bearing assertions here are *byte*-equalities: a crashed and
resumed run must produce the exact same journal lines, final report
bytes, and metric snapshots as an uninterrupted run — not approximately,
not modulo timestamps, byte for byte.
"""

import json
import os

import pytest

from repro.replay import (
    SNAPSHOT_VERSION,
    JournalError,
    JournalEvent,
    JournalWriter,
    ReplayRunner,
    RunConfig,
    SimulatedCrash,
    SnapshotError,
    bisect_replay,
    first_divergence,
    list_snapshots,
    load_snapshot,
    read_journal,
    save_snapshot,
)
from repro.replay.snapshot import snapshot_path

FIG2 = RunConfig(workload="fig2-medical",
                 params={"patients": 4, "round_every": 2}, seed=7)
FIG2_FAULTS = RunConfig(
    workload="fig2-medical",
    params={"patients": 3, "round_every": 1,
            "faults": [[4.0, "fd:A2"]]},
    seed=11,
)
TRACE = RunConfig(workload="tenant-trace",
                  params={"tenants": 4, "minutes": 8.0, "round_every": 4},
                  seed=3)
AUTOPILOT = RunConfig(
    workload="tenant-trace",
    params={"tenants": 4, "minutes": 8.0, "round_every": 4,
            "spot_fraction": 0.5, "budget": 0.05, "slo_s": 120.0},
    seed=3, warm=True, autopilot=True,
)


def record_baseline(config, tmp_path, name="base"):
    journal = str(tmp_path / f"{name}.jsonl")
    runner = ReplayRunner(config)
    service = runner.record(journal)
    return runner, service, journal


# ------------------------------------------------------------ journal


def test_journal_round_trips(tmp_path):
    runner, _service, journal = record_baseline(FIG2, tmp_path)
    config, events, torn = read_journal(journal)
    assert not torn
    assert RunConfig.from_json_dict(config) == FIG2
    assert [e.eid for e in events] == list(range(len(events)))
    assert len(events) == len(runner.script.commands)
    for event in events:
        assert set(event.fingerprint) == {"clock", "rng", "state"}


def test_journal_rejects_noncontiguous_eids(tmp_path):
    journal = str(tmp_path / "j.jsonl")
    with JournalWriter(journal, FIG2.to_json_dict()) as writer:
        writer.append(JournalEvent(eid=0, op="drain"))
        with pytest.raises(JournalError, match="contiguous"):
            writer.append(JournalEvent(eid=2, op="drain"))


def test_journal_torn_tail_dropped(tmp_path):
    _runner, _service, journal = record_baseline(FIG2, tmp_path)
    _, intact, _ = read_journal(journal)
    with open(journal, "a", encoding="utf-8") as fh:
        fh.write('{"kind": "event", "eid": 99, "op": "dr')  # crash mid-write
    config, events, torn = read_journal(journal)
    assert torn
    assert len(events) == len(intact)


def test_journal_mid_file_corruption_raises(tmp_path):
    _runner, _service, journal = record_baseline(FIG2, tmp_path)
    with open(journal, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    lines[2] = lines[2][:10]  # corrupt a non-final line
    with open(journal, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    with pytest.raises(JournalError, match="corrupt"):
        read_journal(journal)


def test_journal_resume_refuses_other_config(tmp_path):
    _runner, _service, journal = record_baseline(FIG2, tmp_path)
    with pytest.raises(JournalError, match="different"):
        JournalWriter(journal, TRACE.to_json_dict(), resume=True)


# ------------------------------------------------------------ snapshots


def test_snapshot_round_trip(tmp_path):
    runner, service, _journal = record_baseline(FIG2, tmp_path)
    path = snapshot_path(str(tmp_path), 7)
    save_snapshot(path, service, 7)
    eid, restored = load_snapshot(path)
    assert eid == 7
    # The restored service answers the same canonical report bytes.
    assert runner.report_bytes(restored) == runner.report_bytes(service)


def test_snapshot_round_trips_captured_run_metrics(tmp_path):
    """A result pickled with only its registry capture (never read)
    restores rendering exactly what the original renders, and later
    activity on the restored registry does not change it."""
    _runner, service, _journal = record_baseline(FIG2, tmp_path)
    results = [handle.result for handle in service.handles
               if handle.result is not None and not handle.cached]
    assert len(results) >= 2
    assert all(result._metrics is None for result in results)
    path = snapshot_path(str(tmp_path), 9)
    save_snapshot(path, service, 9)
    _eid, restored = load_snapshot(path)
    restored_results = [handle.result for handle in restored.handles
                        if handle.result is not None and not handle.cached]
    expected = [json.dumps(result.metrics) for result in results]
    registry = restored.runtime.telemetry.metrics
    assert all(result.metrics_capture.registry is registry
               for result in restored_results)
    registry.counter("udc_retries_total").inc()
    registry.counter("udc_added_after_restore_total").inc()
    assert [json.dumps(result.metrics)
            for result in restored_results] == expected


def test_snapshot_from_another_version_is_refused(tmp_path):
    _runner, service, _journal = record_baseline(FIG2, tmp_path)
    path = snapshot_path(str(tmp_path), 4)
    save_snapshot(path, service, 4)
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        payload = fh.read()
    header["version"] = SNAPSHOT_VERSION - 1
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8") + b"\n" + payload)
    with pytest.raises(SnapshotError,
                       match=f"version {SNAPSHOT_VERSION - 1}; this loader "
                             f"supports {SNAPSHOT_VERSION}"):
        load_snapshot(path)


def test_snapshot_refuses_non_quiescent():
    config = RunConfig(workload="fig2-medical",
                       params={"patients": 1, "round_every": 1}, seed=0)
    runner = ReplayRunner(config)
    service = runner._fresh_service()
    service.register_tenant("hospital")
    service.submit("hospital", runner.script.apps["medical"],
                   runner.script.definitions["medical"],
                   inputs=runner.script.commands[1].args["inputs"])
    service.dispatch_round()
    assert not service.runtime.sim.is_quiescent
    with pytest.raises(SnapshotError, match="quiescent"):
        save_snapshot(snapshot_path("/tmp", 0), service, 0)


def test_snapshot_detects_corruption(tmp_path):
    _runner, service, _journal = record_baseline(FIG2, tmp_path)
    path = snapshot_path(str(tmp_path), 3)
    save_snapshot(path, service, 3)
    with open(path, "r+b") as fh:
        fh.seek(-20, os.SEEK_END)
        fh.write(b"\x00\x00\x00\x00")
    with pytest.raises(SnapshotError, match="digest"):
        load_snapshot(path)


def test_snapshot_detects_truncation(tmp_path):
    _runner, service, _journal = record_baseline(FIG2, tmp_path)
    path = snapshot_path(str(tmp_path), 3)
    save_snapshot(path, service, 3)
    size = os.path.getsize(path)
    with open(path, "r+b") as fh:
        fh.truncate(size - 100)
    with pytest.raises(SnapshotError, match="truncated"):
        load_snapshot(path)


def test_restored_service_is_resnapshottable(tmp_path):
    """A restored service must itself be snapshot-able (its generator
    stubs look exhausted) — resume re-snapshots on the same cadence."""
    _runner, service, _journal = record_baseline(FIG2, tmp_path)
    first = snapshot_path(str(tmp_path), 1)
    save_snapshot(first, service, 1)
    _eid, restored = load_snapshot(first)
    second = snapshot_path(str(tmp_path), 2)
    save_snapshot(second, restored, 2)  # must not raise
    assert load_snapshot(second)[0] == 2


def test_list_snapshots_sorted(tmp_path):
    _runner, service, _journal = record_baseline(FIG2, tmp_path)
    for eid in (5, 1, 3):
        save_snapshot(snapshot_path(str(tmp_path), eid), service, eid)
    (tmp_path / "not-a-snapshot.txt").write_text("x")
    assert [eid for eid, _ in list_snapshots(str(tmp_path))] == [1, 3, 5]


# ------------------------------------------- crash-resume equivalence


@pytest.mark.parametrize("crash_frac", [0.2, 0.5, 0.85])
@pytest.mark.parametrize("config", [FIG2, TRACE, FIG2_FAULTS, AUTOPILOT],
                         ids=["fig2", "tenant-trace", "fig2-faults",
                              "autopilot"])
def test_crash_resume_byte_identical(tmp_path, config, crash_frac):
    """The acceptance gate: crash at several distinct event indices,
    resume, and the final report bytes AND the journal itself are
    byte-identical to the uninterrupted run."""
    baseline_runner, baseline_service, baseline_journal = \
        record_baseline(config, tmp_path)
    baseline_bytes = baseline_runner.report_bytes(baseline_service)
    _, baseline_events, _ = read_journal(baseline_journal)

    crash_at = max(0, int(len(baseline_events) * crash_frac))
    journal = str(tmp_path / "crashed.jsonl")
    snapshots = str(tmp_path / "snaps")
    with pytest.raises(SimulatedCrash):
        ReplayRunner(config).record(journal, snapshot_dir=snapshots,
                                    snapshot_every=2, crash_at=crash_at)
    _, crashed_events, _ = read_journal(journal)
    assert crashed_events[-1].eid == crash_at  # durable through the crash

    resumer = ReplayRunner(config)
    resumed = resumer.resume(journal, snapshot_dir=snapshots,
                             snapshot_every=2)
    assert resumer.report_bytes(resumed) == baseline_bytes
    _, resumed_events, _ = read_journal(journal)
    assert ([e.to_json_dict() for e in resumed_events]
            == [e.to_json_dict() for e in baseline_events])


def test_resume_without_snapshots_replays_from_scratch(tmp_path):
    baseline_runner, baseline_service, _ = record_baseline(FIG2, tmp_path)
    journal = str(tmp_path / "crashed.jsonl")
    with pytest.raises(SimulatedCrash):
        ReplayRunner(FIG2).record(journal, crash_at=4)
    resumer = ReplayRunner(FIG2)
    resumed = resumer.resume(journal)  # no snapshot_dir at all
    assert (resumer.report_bytes(resumed)
            == baseline_runner.report_bytes(baseline_service))


def test_resume_skips_corrupt_snapshot(tmp_path):
    """A half-written snapshot from the crash is skipped, falling back
    to an older one (or scratch) — never restored."""
    baseline_runner, baseline_service, _ = record_baseline(FIG2, tmp_path)
    journal = str(tmp_path / "crashed.jsonl")
    snapshots = str(tmp_path / "snaps")
    with pytest.raises(SimulatedCrash):
        ReplayRunner(FIG2).record(journal, snapshot_dir=snapshots,
                                  snapshot_every=2, crash_at=5)
    newest = list_snapshots(snapshots)[-1][1]
    size = os.path.getsize(newest)
    with open(newest, "r+b") as fh:
        fh.truncate(size // 2)
    resumer = ReplayRunner(FIG2)
    resumed = resumer.resume(journal, snapshot_dir=snapshots)
    assert (resumer.report_bytes(resumed)
            == baseline_runner.report_bytes(baseline_service))


def test_resume_after_torn_journal_tail(tmp_path):
    """Crash mid-append: the torn line is dropped and the run still
    resumes to a byte-identical report."""
    baseline_runner, baseline_service, _ = record_baseline(FIG2, tmp_path)
    journal = str(tmp_path / "crashed.jsonl")
    with pytest.raises(SimulatedCrash):
        ReplayRunner(FIG2).record(journal, crash_at=4)
    with open(journal, "a", encoding="utf-8") as fh:
        fh.write('{"kind": "event", "eid": 5, "op": "dra')
    resumer = ReplayRunner(FIG2)
    resumed = resumer.resume(journal)
    assert (resumer.report_bytes(resumed)
            == baseline_runner.report_bytes(baseline_service))
    _, events, torn = read_journal(journal)
    assert not torn and events[-1].eid == len(events) - 1


def test_resume_detects_divergent_journal(tmp_path):
    """If the journal's fingerprints don't match re-execution (foreign
    journal, perturbed run), resume refuses rather than silently
    producing a different run."""
    from repro.replay import ReplayDivergence

    journal = str(tmp_path / "perturbed.jsonl")
    with pytest.raises(SimulatedCrash):
        ReplayRunner(FIG2, perturb={"eid": 2, "stream": "x"}).record(
            journal, crash_at=5)
    with pytest.raises(ReplayDivergence, match="event 2"):
        ReplayRunner(FIG2).resume(journal)


def test_metrics_snapshot_identical_after_resume(tmp_path):
    """Beyond the report: the full metrics registry dict is equal."""
    _r, baseline_service, _ = record_baseline(TRACE, tmp_path)
    baseline_metrics = baseline_service.runtime.metrics_snapshot().to_dict()
    journal = str(tmp_path / "crashed.jsonl")
    snapshots = str(tmp_path / "snaps")
    with pytest.raises(SimulatedCrash):
        ReplayRunner(TRACE).record(journal, snapshot_dir=snapshots,
                                   snapshot_every=3, crash_at=8)
    resumed = ReplayRunner(TRACE).resume(journal, snapshot_dir=snapshots)
    assert resumed.runtime.metrics_snapshot().to_dict() == baseline_metrics


# ------------------------------------------------------------ replay


def test_replay_prefix_verifies(tmp_path):
    _runner, _service, journal = record_baseline(FIG2, tmp_path)
    runner = ReplayRunner(FIG2)
    service, replayed = runner.replay(journal, until=3)
    assert [e.eid for e in replayed] == [0, 1, 2, 3]
    assert service.runtime.sim.is_quiescent


def test_replay_full_journal(tmp_path):
    baseline_runner, baseline_service, journal = \
        record_baseline(FIG2, tmp_path)
    runner = ReplayRunner(FIG2)
    service, replayed = runner.replay(journal)
    assert len(replayed) == len(runner.script.commands)
    assert (runner.report_bytes(service)
            == baseline_runner.report_bytes(baseline_service))


def test_replay_flags_perturbed_journal(tmp_path):
    from repro.replay import ReplayDivergence

    journal = str(tmp_path / "perturbed.jsonl")
    ReplayRunner(FIG2, perturb={"eid": 3, "stream": "x"}).record(journal)
    with pytest.raises(ReplayDivergence, match="event 3"):
        ReplayRunner(FIG2).replay(journal)


# ------------------------------------------------------------ bisect


def test_bisect_pinpoints_seeded_divergence(tmp_path):
    """The acceptance gate: a deliberately perturbed RNG stream at event
    K is localized to exactly K by both journal-diff and replay-probe
    bisection."""
    _runner, _service, clean = record_baseline(FIG2, tmp_path, "clean")
    _, clean_events, _ = read_journal(clean)
    for target in (1, 3, len(clean_events) - 1):
        perturbed = str(tmp_path / f"perturbed-{target}.jsonl")
        ReplayRunner(FIG2, perturb={
            "eid": target, "stream": "retry:segment",
        }).record(perturbed)
        _, perturbed_events, _ = read_journal(perturbed)

        divergence = first_divergence(clean_events, perturbed_events)
        assert divergence is not None
        assert divergence.eid == target
        assert divergence.field == "fingerprint"

        probed = bisect_replay(perturbed_events,
                               ReplayRunner(FIG2).fingerprint_at)
        assert probed is not None and probed.eid == target


def test_bisect_identical_runs_return_none(tmp_path):
    _r1, _s1, a = record_baseline(FIG2, tmp_path, "a")
    _r2, _s2, b = record_baseline(FIG2, tmp_path, "b")
    _, events_a, _ = read_journal(a)
    _, events_b, _ = read_journal(b)
    assert first_divergence(events_a, events_b) is None
    assert bisect_replay(events_a, ReplayRunner(FIG2).fingerprint_at) is None


def test_bisect_prefix_journal_diverges_at_missing(tmp_path):
    _r, _s, journal = record_baseline(FIG2, tmp_path)
    _, events, _ = read_journal(journal)
    divergence = first_divergence(events, events[:4])
    assert divergence is not None
    assert divergence.eid == 4 and divergence.field == "missing"


def test_first_divergence_nonmonotone_falls_back_to_scan():
    """Synthetic non-monotone input (matches after a mismatch): the
    safety check must still find the true first disagreement."""
    def ev(eid, fp):
        return JournalEvent(eid=eid, op="drain", fingerprint={"state": fp})

    a = [ev(0, "x"), ev(1, "x"), ev(2, "x"), ev(3, "x")]
    b = [ev(0, "x"), ev(1, "y"), ev(2, "x"), ev(3, "z")]
    divergence = first_divergence(a, b)
    assert divergence is not None and divergence.eid == 1


# ------------------------------------------------------------ CLI


def run_cli(*argv):
    from repro.cli import main

    return main(list(argv))


def test_cli_record_crash_resume_bisect(tmp_path, capsys):
    a = str(tmp_path / "a.jsonl")
    ra = str(tmp_path / "a.report")
    params = json.dumps(FIG2.params)
    assert run_cli("record", "--workload", "fig2-medical",
                   "--params", params, "--seed", "7",
                   "--journal", a, "--report", ra) == 0

    b = str(tmp_path / "b.jsonl")
    rb = str(tmp_path / "b.report")
    snaps = str(tmp_path / "snaps")
    assert run_cli("record", "--workload", "fig2-medical",
                   "--params", params, "--seed", "7",
                   "--journal", b, "--snapshot-dir", snaps,
                   "--snapshot-every", "2", "--crash-at", "4") == 3
    assert run_cli("replay", b, "--resume", "--snapshot-dir", snaps,
                   "--report", rb) == 0
    with open(ra, "rb") as fa, open(rb, "rb") as fb:
        assert fa.read() == fb.read()

    assert run_cli("bisect", a, b) == 0
    capsys.readouterr()

    p = str(tmp_path / "p.jsonl")
    runner = ReplayRunner(FIG2, perturb={"eid": 3, "stream": "x"})
    runner.record(p)
    assert run_cli("bisect", a, p) == 4
    out = capsys.readouterr().out
    assert "event 3" in out
    assert run_cli("bisect", p) == 4  # probe mode finds it too


def test_cli_replay_until(tmp_path):
    journal = str(tmp_path / "a.jsonl")
    assert run_cli("record", "--workload", "fig2-medical",
                   "--params", json.dumps(FIG2.params), "--seed", "7",
                   "--journal", journal) == 0
    assert run_cli("replay", journal, "--until", "3") == 0


def test_cli_replay_detects_divergence(tmp_path, capsys):
    journal = str(tmp_path / "p.jsonl")
    ReplayRunner(FIG2, perturb={"eid": 2, "stream": "x"}).record(journal)
    assert run_cli("replay", journal) == 2
    assert "DIVERGED" in capsys.readouterr().err


# ------------------------------------------------------- autopilot runs


def test_autopilot_journal_replays_with_economics_fingerprints(tmp_path):
    """The autopilot's budget/forecaster state rides in the replay
    fingerprints: a full replay verifies, and the recorded service's
    economics are live (spot tenants registered, budgets enforced)."""
    baseline_runner, baseline_service, journal = \
        record_baseline(AUTOPILOT, tmp_path, "autopilot")
    assert baseline_service.economics_fingerprint() is not None
    assert baseline_service.budget.active
    assert baseline_service.check_budget_accounting() == []
    tiers = {baseline_service.tier_of(f"tenant-{i:02d}") for i in range(4)}
    assert tiers == {"spot", "firm"}
    runner = ReplayRunner(AUTOPILOT)
    service, replayed = runner.replay(journal)
    assert len(replayed) == len(runner.script.commands)
    assert (runner.report_bytes(service)
            == baseline_runner.report_bytes(baseline_service))


def test_inert_autopilot_leaves_fingerprints_unchanged(tmp_path):
    """autopilot=False runs fingerprint exactly as before the autopilot
    existed — the economics key only appears when economics are live."""
    _, service, journal = record_baseline(TRACE, tmp_path, "inert")
    assert service.economics_fingerprint() is None
    config, events, _ = read_journal(journal)
    assert config["autopilot"] is False
    for event in events:
        assert "economics" not in json.dumps(event.fingerprint or {})
