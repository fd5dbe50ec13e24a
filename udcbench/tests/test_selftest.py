"""Self-test of the benchmark at a tiny size.

    python3 -m pytest udcbench/tests -q

Runs every workload through ``run.py`` with ``--scale`` shrinking the
fixed work, and checks the result contract, determinism, traced versus
untraced equality, seed sensitivity, and the refusal to run without the
program's sources.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
from client import GatewayLoad  # noqa: E402

SCALE = "0.05"


def bench(workload, seed=1, trace=0, cwd=ROOT, check=True):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "udcbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--scale", SCALE],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    if check:
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.strip().splitlines()[-1])
    return proc


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_matches_the_runner():
    declared = spec()
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
    assert {(m["name"], m["unit"]) for m in declared["end_to_end"]} \
        == set(run.END_TO_END)
    assert {(m["name"], m["unit"]) for m in declared["per_layer"]} \
        == set(run.PER_LAYER)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_with_its_unit(workload):
    for trace, metrics in ((0, run.END_TO_END), (1, run.PER_LAYER)):
        result = bench(workload, trace=trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert {name: entry["unit"]
                for name, entry in result["metrics"].items()} \
            == dict(metrics)
        if trace == 0:
            assert all(entry["value"] > 0
                       for entry in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_deterministic_metrics_repeat(workload):
    first, again = bench(workload, seed=3), bench(workload, seed=3)
    for name in run.DETERMINISTIC:
        a, b = first["metrics"][name]["value"], again["metrics"][name]["value"]
        if workload == "gateway-stream":
            assert math.isclose(a, b, rel_tol=1e-9), name
        else:
            assert a == b, name


def test_sut_outputs_identical_across_repetitions_and_tracing():
    plain = run.run_rep("fleet-churn", 5, float(SCALE))
    again = run.run_rep("fleet-churn", 5, float(SCALE))
    traced = run.run_rep("fleet-churn", 5, float(SCALE), traced=True)
    assert plain["digest"] == again["digest"] == traced["digest"]
    assert "spans" in traced and "spans" not in plain
    assert traced["spans"]["scheduler.place_tasks"]["calls"] > 0


def test_different_seed_different_trace():
    digests = {run.run_rep(workload, seed, float(SCALE))["digest"]
               for workload in ("serve-trace", "fleet-churn")
               for seed in (1, 2)}
    assert len(digests) == 4
    one = GatewayLoad(0, tenants=64, window=16, results=128, seed=1)
    two = GatewayLoad(0, tenants=64, window=16, results=128, seed=2)
    assert (one.tenants, one.payload_bytes) != (two.tenants,
                                                two.payload_bytes)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "udcbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("serve-trace", cwd=str(tmp_path), check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
