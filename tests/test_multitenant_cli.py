"""Tests for concurrent multi-tenant submissions and the CLI."""

import json

import pytest

from repro.appmodel.annotations import AppBuilder
from repro.appmodel.ir import compile_dag
from repro.cli import main
from repro.core.runtime import UDCRuntime
from repro.hardware.devices import DeviceType
from repro.hardware.topology import DatacenterSpec, build_datacenter


def small_app(name="app", work=10.0):
    app = AppBuilder(name)

    @app.task(name="stage", work=work)
    def stage(ctx):
        return name

    return app.build()


def big_dc():
    return build_datacenter(DatacenterSpec(pods=2, racks_per_pod=4))


# ------------------------------------------------------------ multi-tenant


def test_two_tenants_run_concurrently():
    runtime = UDCRuntime(big_dc())
    a = runtime.submit(small_app("a"), tenant="alice")
    b = runtime.submit(small_app("b"), tenant="bravo")
    results = runtime.drain()
    assert {r.tenant for r in results} == {"alice", "bravo"}
    # Concurrency: both finished in ~one job's time, not two.
    solo = UDCRuntime(big_dc()).run(small_app("solo"))
    for result in results:
        assert result.makespan_s < solo.makespan_s * 1.5


def test_costs_attributed_per_tenant():
    runtime = UDCRuntime(big_dc())
    runtime.submit(small_app("a", work=10.0), tenant="alice")
    runtime.submit(small_app("b", work=40.0), tenant="bravo")
    results = {r.tenant: r for r in runtime.drain()}
    assert results["alice"].total_cost > 0
    assert results["bravo"].total_cost > results["alice"].total_cost
    assert not runtime._owner_of  # all meters closed


def test_single_tenant_isolation_across_tenants():
    """Alice's single-tenant device is never shared with Bravo."""
    spec = {"stage": {"execenv": {"isolation": "strong",
                                  "single_tenant": True}}}
    runtime = UDCRuntime(big_dc())
    a = runtime.submit(small_app("a"), spec, tenant="alice")
    b = runtime.submit(small_app("b"), spec, tenant="bravo")
    alice_dev = a.objects["stage"].primary_allocation.device
    bravo_dev = b.objects["stage"].primary_allocation.device
    assert alice_dev is not bravo_dev
    assert alice_dev.single_tenant_of == "alice"
    runtime.drain()


def test_sequential_runs_still_work_after_submit_api():
    runtime = UDCRuntime(big_dc())
    first = runtime.run(small_app("one"))
    second = runtime.run(small_app("two"))
    assert first.outputs["stage"] == "one"
    assert second.outputs["stage"] == "two"


def test_failure_in_one_tenant_does_not_touch_other():
    runtime = UDCRuntime(big_dc())
    runtime.submit(small_app("a", work=50.0), tenant="alice",
                   failure_plan=[(5.0, "fd:stage")])
    runtime.submit(small_app("b", work=50.0), tenant="bravo")
    results = {r.tenant: r for r in runtime.drain()}
    # NOTE: module-default domains are per-module-name; both tenants named
    # their module "stage", so the SHARED domain couples them — precisely
    # the footgun the paper's failure-domain aspect exists to avoid.
    assert results["alice"].row("stage").failures >= 1


def test_distinct_failure_domains_isolate_tenants():
    runtime = UDCRuntime(big_dc())
    runtime.submit(
        small_app("a", work=50.0),
        {"stage": {"distributed": {"failure_domain": "alice-fd"}}},
        tenant="alice", failure_plan=[(5.0, "alice-fd")],
    )
    runtime.submit(
        small_app("b", work=50.0),
        {"stage": {"distributed": {"failure_domain": "bravo-fd"}}},
        tenant="bravo",
    )
    results = {r.tenant: r for r in runtime.drain()}
    assert results["alice"].row("stage").failures >= 1
    assert results["bravo"].row("stage").failures == 0


# ------------------------------------------------------------ CLI


@pytest.fixture()
def app_json(tmp_path):
    app = AppBuilder("cli-app")

    @app.task(name="prep", work=2.0)
    def prep(ctx):
        return None

    @app.task(name="infer", work=40.0,
              devices={DeviceType.CPU, DeviceType.GPU})
    def infer(ctx):
        return None

    app.flows("prep", "infer", bytes_=1 << 16)
    path = tmp_path / "app.json"
    path.write_text(json.dumps(compile_dag(app.build()).to_dict()))
    return str(path)


def test_cli_run(app_json, capsys):
    code = main(["run", app_json, "--timeline"])
    out = capsys.readouterr().out
    assert code == 0
    assert "makespan" in out
    assert "legend" in out


def test_cli_run_with_spec_and_verify(app_json, tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(
        {"infer": {"resource": {"device": "gpu", "amount": 1}}}))
    code = main(["run", app_json, "--spec", str(spec), "--verify"])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 violated" in out
    assert "gpu" in out


def test_cli_profile(app_json, capsys):
    assert main(["profile", app_json]) == 0
    out = capsys.readouterr().out
    assert "infer:" in out and "x gpu" in out


def test_cli_autosize_emits_valid_spec(app_json, capsys):
    assert main(["autosize", app_json, "--latency", "5"]) == 0
    spec = json.loads(capsys.readouterr().out)
    assert spec["infer"]["resource"]["device"] == "gpu"
    from repro.core.spec import parse_definition

    parse_definition(spec)  # must parse cleanly


def test_cli_catalog(tmp_path, capsys):
    demands = tmp_path / "demands.json"
    demands.write_text(json.dumps(
        [{"cpus": 4, "mem_gb": 16, "gpus": 8, "name": "ml"}]))
    assert main(["catalog", str(demands)]) == 0
    out = capsys.readouterr().out
    assert "p3.16xlarge" in out
    assert "waste" in out
