"""Tests for the economic autopilot (PR 9).

Covers the tentpole contract — budget enforcement at the front door
with adaptive ceilings, spot-tier preemption feeding the admission
retry machinery, and forecast-sized warm pools — plus the satellite
API work: the typed ``TenantSpec``/``SubmitOptions`` surface, the warm-pool deferred-prewarm regression, and the
empty-ledger fairness contract.
"""

import warnings

import pytest

from repro.appmodel.annotations import AppBuilder
from repro.economics.autopilot import (
    FIRM_PLAN,
    SPOT_PLAN,
    AdaptiveBudgetHook,
    BudgetEnforcer,
    PricingPlan,
    WarmPoolForecaster,
)
from repro.economics.tenants import TenantLedger
from repro.execenv.environments import EnvKind
from repro.execenv.warmpool import WarmPool
from repro.hardware.devices import DeviceType
from repro.hardware.topology import DatacenterSpec, build_datacenter
from repro.service import (
    BudgetExceeded,
    FifoAdmission,
    SubmitOptions,
    Tenant,
    TenantQuota,
    TenantSpec,
    UDCService,
    WeightedFairShare,
    submit_options,
    tenant_spec,
)

#: one rack: a full-rack GPU job owns the whole datacenter
TINY = DatacenterSpec(
    pods=1, racks_per_pod=1,
    devices_per_rack={DeviceType.CPU: 2, DeviceType.GPU: 2,
                      DeviceType.DRAM: 1, DeviceType.SSD: 1},
)


def gpu_job(name, gpus=16, work=20.0):
    app = AppBuilder(name)

    @app.task(name="train", work=work, devices={DeviceType.GPU})
    def train(ctx):
        return name

    return app.build(), {"train": {"resource": {"device": "gpu",
                                                "amount": gpus}}}


def cpu_job(name, work=2.0):
    app = AppBuilder(name)

    @app.task(name="crunch", work=work)
    def crunch(ctx):
        return name

    return app.build(), {"crunch": {"resource": "cheapest"}}


# ------------------------------------------------------- typed specs


def test_tenant_spec_builder_matches_dataclass():
    built = (tenant_spec().weight(2.0).budget(5.0).spot()
             .slo(60.0).build())
    assert built == TenantSpec(weight=2.0, budget_dollars=5.0,
                               tier="spot", slo_s=60.0)
    assert built.effective_tier == "spot"
    assert built.plan is SPOT_PLAN


def test_goal_cheapest_resolves_to_spot_tier():
    spec = tenant_spec().goal("cheapest").build()
    assert spec.tier == "firm" and spec.effective_tier == "spot"
    assert TenantSpec().effective_tier == "firm"
    assert TenantSpec().plan is FIRM_PLAN


def test_explicit_pricing_overrides_tier_plan():
    plan = PricingPlan(name="contract", multiplier=0.8)
    spec = tenant_spec().spot().pricing(plan).build()
    assert spec.plan is plan
    assert plan.billed(10.0) == pytest.approx(8.0)


def test_spec_validation_errors():
    with pytest.raises(ValueError):
        TenantSpec(tier="preemptible")
    with pytest.raises(ValueError):
        TenantSpec(goal="fanciest")
    with pytest.raises(ValueError):
        TenantSpec(budget_dollars=0.0)
    with pytest.raises(ValueError):
        TenantSpec(slo_s=-1.0)
    with pytest.raises(ValueError):
        PricingPlan(multiplier=0.0)


@pytest.mark.parametrize("weight", [0.0, -1.0, float("inf"), float("nan")])
def test_weights_must_be_positive_and_finite(weight):
    """An infinite weight makes the stride pass ``1/weight`` zero, so the
    tenant would sort first in every round; NaN breaks the ordering."""
    with pytest.raises(ValueError, match="finite"):
        TenantSpec(weight=weight)
    with pytest.raises(ValueError, match="finite"):
        Tenant(name="t", weight=weight)
    with pytest.raises(ValueError, match="finite"):
        WeightedFairShare().set_weight("t", weight)
    with pytest.raises(ValueError, match="finite"):
        WeightedFairShare(default_weight=weight)


def test_submit_options_builder_matches_dataclass():
    built = (submit_options().lint(False).priority(3).deadline(9.0)
             .no_cache().build())
    assert built == SubmitOptions(lint=False, priority=3,
                                  deadline_s=9.0, use_cache=False)


# ------------------------------------------- typed spellings


def test_register_tenant_accepts_spec_and_builder():
    service = UDCService(build_datacenter(TINY))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        service.register_tenant("a", TenantSpec(weight=2.0))
        service.register_tenant("b", tenant_spec().weight(3.0))
    assert service.tenants["a"].weight == 2.0
    assert service.tenants["b"].weight == 3.0


def test_register_tenant_rejects_bad_spellings():
    service = UDCService(build_datacenter(TINY))
    with pytest.raises(TypeError):
        service.register_tenant("t", "heavy")
    with pytest.raises(TypeError):
        service.register_tenant("t", 2.5)
    with pytest.raises(TypeError):
        service.register_tenant("t", wight=2.0)
    with pytest.raises(TypeError):
        service.register_tenant("t", TenantSpec(), weight=2.0)
    with pytest.raises(TypeError):
        service.register_tenant("t", weight=4.0, quota=TenantQuota())


def test_submit_rejects_bad_spellings():
    service = UDCService(build_datacenter(TINY))
    app, spec = cpu_job("bad")
    with pytest.raises(TypeError):
        service.submit("t", app, spec, options="fast")
    with pytest.raises(TypeError):
        service.submit("t", app, spec, prio=1)
    with pytest.raises(TypeError):
        service.submit("t", app, spec, options=SubmitOptions(), priority=1)
    with pytest.raises(TypeError):
        service.submit("t", app, spec, lint=False, priority=2)


def test_priority_orders_the_dispatch_round():
    service = UDCService(build_datacenter(TINY), policy=FifoAdmission())
    lo_app, lo_spec = gpu_job("lo", work=5.0)
    hi_app, hi_spec = gpu_job("hi", work=5.0)
    lo = service.submit("t1", lo_app, lo_spec)
    hi = service.submit("t2", hi_app, hi_spec,
                        options=submit_options().priority(5))
    service.dispatch_round()
    # Both need the whole rack; the higher-priority later submission
    # must have been placed first.
    assert hi.submission.status == "running"
    assert lo.submission.status == "queued"


def test_use_cache_false_skips_memoization():
    service = UDCService(build_datacenter(TINY))
    app, spec = cpu_job("nocache")
    service.submit("t", app, spec, inputs={"crunch": 1})
    service.drain()
    handle = service.submit("t", app, spec, inputs={"crunch": 1},
                            options=submit_options().no_cache())
    service.drain()
    assert not handle.cached
    assert service.cache_stats.hits == 0


# ------------------------------------------------------------ budgets


def test_budget_exhaustion_rejects_at_the_front_door():
    service = UDCService(build_datacenter(TINY))
    service.register_tenant("t", tenant_spec().budget(1e-9))
    app, spec = cpu_job("j0")
    service.submit("t", app, spec)
    service.drain()
    assert service.budget.spent("t") > 0
    app, spec = cpu_job("j1")
    with pytest.raises(BudgetExceeded) as err:
        service.submit("t", app, spec)
    assert err.value.tenant == "t"
    assert service.budget.rejections("t") == 1
    assert service.ledger.usage("t").rejected == 1
    assert service.check_budget_accounting() == []


def test_budget_rejection_is_catchable_as_quota():
    service = UDCService(build_datacenter(TINY))
    service.register_tenant("t", tenant_spec().budget(1e-9))
    app, spec = cpu_job("j0")
    service.submit("t", app, spec)
    service.drain()
    from repro.service import QuotaExceeded
    app, spec = cpu_job("j1")
    with pytest.raises(QuotaExceeded):
        service.submit("t", app, spec)


def test_spot_billing_discounts_the_ledger():
    service = UDCService(build_datacenter(TINY))
    service.register_tenant("s", tenant_spec().spot())
    app, spec = cpu_job("j")
    service.submit("s", app, spec)
    service.drain()
    usage = service.ledger.usage("s")
    assert usage.total_cost > 0
    assert usage.billed_cost == pytest.approx(
        SPOT_PLAN.multiplier * usage.total_cost)
    assert service.check_budget_accounting() == []


def test_enforcer_ceiling_clamps_to_budget_and_audits_drift():
    enforcer = BudgetEnforcer()
    enforcer.declare("t", 10.0)
    enforcer.set_ceiling("t", 25.0)
    assert enforcer.ceiling_of("t") == 10.0
    enforcer.set_ceiling("t", 4.0)
    enforcer.charge("t", 4.0)
    assert enforcer.admit("t") is not None
    assert enforcer.remaining("t") == pytest.approx(6.0)
    assert enforcer.check_accounting({"t": 4.0}) == []
    drift = enforcer.check_accounting({"t": 3.0})
    assert len(drift) == 1 and "t:" in drift[0]


def test_adaptive_hook_paces_and_boosts():
    enforcer = BudgetEnforcer()
    enforcer.declare("t", 100.0)
    hook = AdaptiveBudgetHook(enforcer, horizon_s=1000.0, headroom=0.25,
                              slo_target=0.95, boost=0.25)
    hook.on_round(0.0, {})
    assert hook.last_ceilings["t"] == pytest.approx(25.0)
    hook.on_round(500.0, {"t": (10, 0)})
    assert hook.last_ceilings["t"] == pytest.approx(75.0)
    # Attainment below target boosts the ceiling (but never past pace
    # at the horizon, where pace already saturates at the full budget).
    hook.on_round(500.0, {"t": (10, 2)})
    assert hook.last_ceilings["t"] == pytest.approx(75.0 * 1.25)
    hook.on_round(2000.0, {"t": (10, 2)})
    assert hook.last_ceilings["t"] == pytest.approx(100.0)


def test_autopilot_service_sets_ceilings():
    service = UDCService(build_datacenter(TINY), autopilot=True)
    service.register_tenant("t", tenant_spec().budget(10.0))
    app, spec = cpu_job("j")
    service.submit("t", app, spec)
    service.drain()
    assert service.budget_hook.last_ceilings["t"] > 0
    assert service.economics_fingerprint() is not None
    assert service.check_budget_accounting() == []


def test_economics_fingerprint_inert_without_budgets():
    service = UDCService(build_datacenter(TINY))
    app, spec = cpu_job("j")
    service.submit("t", app, spec)
    service.drain()
    # No budgets, no autopilot: old replay journals must keep verifying
    # byte-identically, so the fingerprint contributes nothing.
    assert service.economics_fingerprint() is None


# --------------------------------------------------------- preemption


def test_firm_submission_preempts_running_spot_work():
    service = UDCService(build_datacenter(TINY))
    service.register_tenant("spot", tenant_spec().spot())
    service.register_tenant("firm", TenantSpec())
    s_app, s_spec = gpu_job("spotjob", work=50.0)
    spot = service.submit("spot", s_app, s_spec)
    service.dispatch_round()
    assert spot.submission.status == "running"

    f_app, f_spec = gpu_job("firmjob", work=5.0)
    firm = service.submit("firm", f_app, f_spec)
    service.dispatch_round()
    assert service.preemptions == 1
    assert firm.submission.status == "running"
    assert spot.submission.status == "queued"
    assert spot.submission.preemptions == 1
    assert service.telemetry.metrics.counter(
        "udc_preemptions_total").value == 1
    assert service.telemetry.events_of("preempted")

    # The victim re-runs through the normal retry machinery and still
    # completes; nobody's work is lost, and the books stay balanced.
    service.drain()
    assert firm.status == "done" and spot.status == "done"
    assert service.check_budget_accounting() == []


def test_spot_never_preempts_spot():
    service = UDCService(build_datacenter(TINY))
    service.register_tenant("s1", tenant_spec().spot())
    service.register_tenant("s2", tenant_spec().goal("cheapest"))
    a1, d1 = gpu_job("one", work=50.0)
    a2, d2 = gpu_job("two", work=5.0)
    first = service.submit("s1", a1, d1)
    service.dispatch_round()
    second = service.submit("s2", a2, d2)
    service.dispatch_round()
    assert service.preemptions == 0
    assert first.submission.status == "running"
    assert second.submission.status == "queued"


def test_preemption_storm_keeps_cross_tier_fairness():
    """Satellite (d): under sustained firm-vs-spot contention every
    preempted submission is re-queued and completes, so completions stay
    even across tiers (Jain >= 0.9)."""
    service = UDCService(build_datacenter(TINY))
    for name in ("firm-a", "firm-b"):
        service.register_tenant(name, TenantSpec())
    for name in ("spot-a", "spot-b"):
        service.register_tenant(name, tenant_spec().spot())
    jobs = 3
    for round_index in range(jobs):
        for name in ("spot-a", "spot-b", "firm-a", "firm-b"):
            app, spec = gpu_job(f"{name}-{round_index}", work=10.0)
            service.submit(name, app, spec)
        service.dispatch_round()
    service.drain()
    assert service.preemptions > 0
    for usage in service.rollup():
        assert usage.completed == jobs
    assert service.fairness_index("completed") >= 0.9
    assert service.check_budget_accounting() == []


def test_preemption_is_deterministic():
    def run():
        service = UDCService(build_datacenter(TINY), autopilot=True)
        service.register_tenant("spot", tenant_spec().spot().budget(5.0))
        service.register_tenant("firm", tenant_spec().budget(5.0))
        for index in range(3):
            s_app, s_spec = gpu_job(f"s{index}", work=20.0)
            f_app, f_spec = gpu_job(f"f{index}", work=5.0)
            service.submit("spot", s_app, s_spec)
            service.dispatch_round()
            service.submit("firm", f_app, f_spec)
            service.dispatch_round()
        service.drain()
        return (service.economics_fingerprint(),
                [(u.tenant, u.completed, repr(u.billed_cost))
                 for u in service.rollup()])

    assert run() == run()


# ------------------------------------------------------- forecasting


def test_forecaster_learns_the_seasonal_pattern():
    forecaster = WarmPoolForecaster(window_s=10.0, day_s=40.0,
                                    safety=1.0)
    pattern = [0, 3, 6, 1]
    for day in range(3):
        for slot, demand in enumerate(pattern):
            now = (day * 4 + slot) * 10.0
            forecaster.roll(now)
            for _ in range(demand):
                forecaster.observe(EnvKind.CONTAINER)
    forecaster.roll(120.0)  # day 3 slot 0
    assert forecaster.target_for(EnvKind.CONTAINER) == 0
    forecaster.roll(130.0)  # slot 1: seasonal says 3
    assert forecaster.target_for(EnvKind.CONTAINER) == 3
    forecaster.roll(140.0)
    assert forecaster.target_for(EnvKind.CONTAINER) == 6


def test_forecaster_folds_skipped_windows_and_clamps():
    forecaster = WarmPoolForecaster(window_s=10.0, day_s=20.0,
                                    safety=2.0, min_depth=1, max_depth=4)
    forecaster.roll(0.0)
    for _ in range(8):
        forecaster.observe(EnvKind.VM, True)
    forecaster.roll(50.0)  # folds the burst, then three idle windows
    state = forecaster.state()
    assert state["slot"] == 5
    assert state["pending"] == {}
    # demand 8 * safety 2 = 16, clamped to max_depth
    level = state["level"]["vm|1"]
    assert 0 < level < 8
    assert 1 <= forecaster.target_for(EnvKind.VM, True) <= 4
    assert forecaster.target_for(EnvKind.SEV_VM, False) == 1  # min_depth


def test_forecaster_state_is_canonical():
    forecaster = WarmPoolForecaster(window_s=10.0)
    forecaster.observe(EnvKind.VM)
    forecaster.observe(EnvKind.CONTAINER)
    state = forecaster.state()
    assert list(state["pending"]) == sorted(state["pending"])
    assert forecaster.known_keys() == ["container|0", "vm|0"]


def test_service_autopilot_resizes_warm_pool():
    service = UDCService(build_datacenter(TINY), autopilot=True,
                         warm_pool=WarmPool(enabled=True), prewarm=True)
    assert service.forecaster is not None
    assert service.runtime.warm_pool.observer is not None
    app, spec = cpu_job("warmed")
    service.submit("t", app, spec)
    service.drain()
    # Demand flowed through the pool's observer into the forecaster.
    assert service.forecaster.state()["pending"] or \
        service.forecaster.known_keys()


# --------------------------------------- warm-pool deferred regression


def test_restore_replays_deferred_prewarms_exactly_once():
    """Satellite (b): prewarms banked during an outage must land on the
    shelf exactly once at restore() — and a refill() racing right after
    must not re-stock them (the old code double-counted the deferral
    against the refill target)."""
    pool = WarmPool(target_depth=2)
    key = (EnvKind.CONTAINER, False)
    pool.prewarm(*key, count=2)
    assert pool.depth(*key) == 2
    pool.exhaust()
    pool.prewarm(*key, count=3)  # banked, not stocked
    assert pool.depth(*key) == 0
    assert pool.stats.prewarms_deferred == 3
    replayed = pool.restore()
    assert replayed == 3
    assert pool.depth(*key) == 3
    pool.refill()  # the race: must not top past the replayed bank
    assert pool.depth(*key) == 3
    assert pool.stats.prewarmed == 5
    # The bank is spent: another restore replays nothing.
    assert pool.restore() == 0
    assert pool.depth(*key) == 3


def test_refill_respects_forecast_targets():
    pool = WarmPool(target_depth=2)
    key = (EnvKind.CONTAINER, False)
    pool.set_target(*key, 5)
    added = pool.refill()
    assert added == 5 and pool.depth(*key) == 5
    pool.set_target(*key, None)
    assert pool.target_for(*key) == 2


# ------------------------------------------------------ ledger contract


def test_fairness_of_empty_ledger_is_one():
    ledger = TenantLedger()
    assert ledger.fairness() == 1.0
    assert ledger.fairness(metric="billed_cost") == 1.0


def test_fairness_rejects_unknown_metric():
    ledger = TenantLedger()
    with pytest.raises(ValueError):
        ledger.fairness(metric="vibes")
    with pytest.raises(ValueError):
        ledger.fairness(metric="tenant")


def test_fairness_read_never_materializes_tenants():
    ledger = TenantLedger()
    ledger.record_submission("real")
    before = [u.tenant for u in ledger.rollup()]
    ledger.fairness(metric="completed", tenants=["real", "ghost"])
    assert [u.tenant for u in ledger.rollup()] == before == ["real"]
