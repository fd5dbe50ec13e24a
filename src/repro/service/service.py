"""`UDCService`: a long-lived, multi-tenant serving layer.

One provider control plane serving many user-defined clouds (§2): the
service accepts a continuous stream of ``(tenant, app, definition)``
submissions on top of one :class:`~repro.core.runtime.UDCRuntime`, and
adds the four things a single-shot runtime lacks:

* **Quotas** — per-tenant in-flight / lifetime caps enforced at the
  front door (:class:`~repro.service.tenants.TenantQuota`), raising
  :class:`~repro.service.tenants.QuotaExceeded` before any control-plane
  work is spent.
* **Weighted fair share** — the runtime's admission queue is ordered by
  a pluggable :class:`~repro.core.admission.AdmissionPolicy`; the
  service defaults to stride-scheduled
  :class:`~repro.core.admission.WeightedFairShare` over tenant weights,
  and orders its own dispatch rounds with the same policy.
* **Batched placement** — in batched mode (default) submissions buffer
  into scheduling rounds: each round reuses compiled app templates
  (:class:`~repro.core.template.AppTemplate`, memoized in one
  :class:`~repro.service.cache.AdmissionMemo` shared by every cell) for
  equal app shapes and definitions and runs under the scheduler's
  :meth:`~repro.core.scheduler.UdcScheduler.batch_round`, amortizing
  control-plane work while keeping placements byte-identical to serial
  submission in the same order.
* **Result memoization** — identical ``(dag, definition, inputs)``
  re-submissions are served from a bounded
  :class:`~repro.service.cache.ResultCache` without consuming capacity,
  with the saved cost credited on the tenant's rollup.  The cache, lint
  memo and admission memo share one
  :class:`~repro.service.cache.SubmissionKey`.
* **Static lint** — every executed submission is first run through the
  static analyzer (:func:`repro.analysis.analyze_definition`) against
  this datacenter; error-severity findings reject with
  :class:`~repro.analysis.AnalysisError` — the same diagnostics ``udc
  lint`` prints — before any placement work is spent (``udc_lint_*``
  metrics).  Opt out per service with ``lint=False``.

Per-tenant outcomes land on an
:class:`~repro.economics.tenants.TenantLedger` and as
``udc_tenant_*`` / ``udc_service_*`` metric families.
"""

from __future__ import annotations

import itertools
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Union

from repro.appmodel.dag import ModuleDAG
from repro.core.admission import AdmissionPolicy, WeightedFairShare
from repro.core.cells import CellRouter, estimate_demand, partition_datacenter
from repro.core.report import RunResult
from repro.core.runtime import Submission, UDCRuntime
from repro.core.scheduler import SchedulerError
from repro.core.template import AppTemplate
from repro.economics.autopilot import (
    FIRM_PLAN,
    AdaptiveBudgetHook,
    BudgetEnforcer,
    WarmPoolForecaster,
)
from repro.economics.tenants import TenantLedger, TenantUsage, jain_index
from repro.hardware.topology import Datacenter
from repro.service.cache import (AdmissionMemo, CacheStats, ResultCache,
                                 SubmissionKey)
from repro.service.tenants import (
    BudgetExceeded,
    QuotaExceeded,
    SubmitOptions,
    Tenant,
    TenantQuota,
    TenantSpec,
)

__all__ = ["ResultNotReady", "SubmissionHandle", "UDCService"]


class ResultNotReady(Exception):
    """Raised when :attr:`SubmissionHandle.outputs` is read before the
    submission has finished and been finalized by a drain.

    Previously an unfinished handle silently answered ``{}`` —
    indistinguishable from "finished with no outputs", which hid lost
    results.  Use :meth:`SubmissionHandle.outputs_or_none` for the
    non-raising probe."""

#: handle states that still occupy a tenant's in-flight quota slot
_LIVE_STATES = frozenset({"pending", "queued", "running"})


@dataclass
class SubmissionHandle:
    """What a tenant holds after :meth:`UDCService.submit`.

    ``status`` is ``"cached"`` for result-cache hits, ``"pending"``
    until the submission is dispatched to the runtime (batched mode
    buffers until the next round), then tracks the underlying
    :class:`~repro.core.runtime.Submission` (``queued`` / ``running`` /
    ``done`` / ``unplaceable``).
    """

    tenant: str
    app: str
    #: service-wide monotonic id: the deterministic dispatch tie-break
    seq: int
    cached: bool = False
    #: placement cell the router chose (None until dispatched)
    cell: Optional[int] = None
    submission: Optional[Submission] = None
    result: Optional[RunResult] = None
    #: the per-submission options this work was accepted under
    options: Optional[SubmitOptions] = field(default=None, repr=False)
    _cache_key: Optional[tuple] = field(default=None, repr=False, init=False)

    @property
    def status(self) -> str:
        if self.cached:
            return "cached"
        if self.submission is None:
            return "pending"
        return self.submission.status

    @property
    def done(self) -> bool:
        """Finished executing (cache hits are born done)."""
        if self.cached:
            return True
        return self.submission is not None and self.submission.done

    @property
    def outputs(self) -> Dict[str, Any]:
        """The finished run's module outputs.

        Raises :class:`ResultNotReady` while the submission is still
        pending/queued/running or has finished but not yet been
        finalized by :meth:`UDCService.drain` — a silent ``{}`` here
        would conflate "not finished" with "finished with no outputs".
        """
        if self.result is None:
            raise ResultNotReady(
                f"submission #{self.seq} ({self.tenant}/{self.app}) has no "
                f"result yet (status={self.status!r}); drain() the service "
                f"to completion, or probe with outputs_or_none"
            )
        return self.result.outputs

    def outputs_or_none(self) -> Optional[Dict[str, Any]]:
        """``outputs`` if the result is in, else None (never raises)."""
        return self.result.outputs if self.result is not None else None


class UDCService:
    """Multi-tenant serving layer over one or more placement cells.

    Every cell has its own :class:`UDCRuntime` — scheduler, pool
    indexes and batch cache — and every submission goes through one
    :class:`~repro.core.cells.CellRouter`, which orders the cells from
    coarse free-capacity aggregates; the submission is tried on each
    cell once, in that order (a spill when the first choice rejects).
    ``cells=1`` (the default) keeps the whole datacenter as its one
    cell; ``cells=N`` partitions it into N rack-group cells
    (:func:`repro.core.cells.partition_datacenter`).  Cell runtimes
    share one simulator, fabric, telemetry, RNG registry, warm pool,
    breaker registry and template memo, so replay fingerprints and
    fault injection stay global.

    Sharding semantics worth knowing:

    * A submission lands *entirely* in one cell (cells are placement
      domains); an app bigger than any single cell is unplaceable.
      Static lint is evaluated against cell 0 — the largest cell —
      for the same reason.
    * Fair share stays global: dispatch rounds are ordered by the
      service-wide policy *before* fanning out, and every cell runtime
      shares the one policy instance.
    * If every cell rejects, the first-choice cell's rolled-back
      attempt parks on that cell's admission queue (no second
      placement) and retries there as capacity frees.
    """

    def __init__(
        self,
        datacenter: Datacenter,
        *,
        policy: Optional[AdmissionPolicy] = None,
        batched: bool = True,
        cells: int = 1,
        result_cache_capacity: int = 128,
        admission_memo_capacity: int = 256,
        lint: bool = True,
        autopilot: bool = False,
        **runtime_kwargs,
    ):
        if cells < 1:
            raise ValueError(f"cells must be >= 1, got {cells}")
        runtimes = self._build_cell_runtimes(datacenter, cells,
                                             runtime_kwargs)
        self.cell_runtimes: List[UDCRuntime] = runtimes
        self.runtime = runtimes[0]
        self.lint = lint
        self.telemetry = self.runtime.telemetry
        self.policy = policy if policy is not None else WeightedFairShare()
        self.batched = batched
        # One template memo for every cell: a template's cell-dependent
        # part is keyed by the cell's pool set (AppTemplate.cell_plan).
        memo = AdmissionMemo(admission_memo_capacity) if batched else None
        for cell_runtime in runtimes:
            cell_runtime.admission_policy = self.policy
            cell_runtime.admission_memo = memo
        # Router metrics only when sharded: an unsharded service keeps
        # its label sets and metric families.
        self.router = CellRouter(
            [rt.datacenter for rt in runtimes],
            telemetry=self.telemetry if cells > 1 else None,
        )
        self.cache = ResultCache(result_cache_capacity)
        self.ledger = TenantLedger()
        self.tenants: Dict[str, Tenant] = {}
        self._handles: List[SubmissionHandle] = []
        #: executed (non-cached) handles not yet finalized, in submit
        #: order — what drain walks, so a tick costs O(open work), not
        #: O(every handle the service ever made)
        self._open: List[SubmissionHandle] = []
        self._pending: List[SubmissionHandle] = []
        self._seq = itertools.count()
        self.rounds = 0
        #: incremental per-tenant live-submission counters (see
        #: :meth:`in_flight`); maintained at submit / finalize so the
        #: per-submit quota check never scans the full handle history
        self._live_counts: Dict[str, int] = {}
        #: memoized lint verdicts (same LRU machinery as the result
        #: cache) so repeated shapes re-emit their diagnostics without
        #: re-running the analyzer — a cache hit must still lint
        self._lint_memo = ResultCache(admission_memo_capacity)
        #: declared tenant specs (tier/goal/budget/SLO), by name
        self._specs: Dict[str, TenantSpec] = {}
        #: the budget kernel: always present (enforces only for tenants
        #: that declared budgets), audited by check_budget_accounting
        self.budget = BudgetEnforcer()
        self.autopilot = autopilot
        #: the planner and forecaster exist only under --autopilot; the
        #: default service stays byte-identical to the pre-autopilot one
        self.budget_hook: Optional[AdaptiveBudgetHook] = None
        self.forecaster: Optional[WarmPoolForecaster] = None
        #: spot-tier submissions evicted for firm work, service-wide
        self.preemptions = 0
        for cell_runtime in runtimes:
            # Bound method, not a lambda: replay snapshots pickle the
            # whole service.  Firm work outranks spot in retry rounds.
            cell_runtime.tier_of = self._tier_rank
        if autopilot:
            self.budget_hook = AdaptiveBudgetHook(self.budget)
            self.forecaster = WarmPoolForecaster()
            # All cells share one warm pool; the forecaster observes
            # every acquisition attempt through the pool's hook.
            self.runtime.warm_pool.observer = self.forecaster.observe

    @staticmethod
    def _build_cell_runtimes(
        datacenter: Datacenter, cells: int, runtime_kwargs: Dict[str, Any]
    ) -> List[UDCRuntime]:
        """Build one runtime per cell: the whole ``datacenter`` for one
        cell, its rack-group partition otherwise.

        Cell 0's telemetry, RNG registry, warm pool, and breaker
        registry are shared by every other cell (one control plane, N
        placement domains); every other runtime kwarg passes through to
        each cell.  Only sharded schedulers label their metrics by cell.
        """
        first, *rest = ([datacenter] if cells == 1
                        else partition_datacenter(datacenter, cells))
        runtimes = [UDCRuntime(first, **runtime_kwargs)]
        shared = dict(
            runtime_kwargs, telemetry=runtimes[0].telemetry,
            rng=runtimes[0].rng, warm_pool=runtimes[0].warm_pool,
            breakers=runtimes[0].breakers,
        )
        runtimes += [UDCRuntime(cell_dc, **shared) for cell_dc in rest]
        if rest:
            for cell_id, cell_runtime in enumerate(runtimes):
                cell_runtime.scheduler.cell_label = str(cell_id)
        return runtimes

    # ------------------------------------------------------------- tenants

    def register_tenant(self, name: str,
                        spec: Optional[TenantSpec] = None) -> Tenant:
        """Register (or re-configure) a tenant from a typed spec.

        ``spec`` is a :class:`~repro.service.tenants.TenantSpec` (or a
        fluent ``tenant_spec()`` builder — anything with ``build_spec``),
        carrying weight, quota, budget, tier/goal, SLO, and pricing in
        one value; ``None`` registers the defaults.
        """
        if spec is None:
            spec = TenantSpec()
        elif hasattr(spec, "build_spec"):
            spec = spec.build_spec()
        else:
            raise TypeError(
                f"spec must be a TenantSpec (or builder), "
                f"got {type(spec).__name__}"
            )
        tenant = Tenant(name=name, weight=spec.weight, quota=spec.quota)
        existing = self.tenants.get(name)
        if existing is not None:
            tenant.submitted = existing.submitted
        self.tenants[name] = tenant
        self._specs[name] = spec
        self.budget.declare(name, spec.budget_dollars)
        if isinstance(self.policy, WeightedFairShare):
            self.policy.set_weight(name, spec.weight)
        return tenant

    def spec_of(self, tenant: str) -> TenantSpec:
        """The registered spec (defaults for self-registered tenants)."""
        spec = self._specs.get(tenant)
        return spec if spec is not None else TenantSpec()

    def tier_of(self, tenant: str) -> str:
        """``"firm"`` or ``"spot"`` after goal resolution."""
        return self.spec_of(tenant).effective_tier

    def _tier_rank(self, tenant: str) -> int:
        """Admission-retry rank installed on cell runtimes (0 = firm)."""
        return 1 if self.tier_of(tenant) == "spot" else 0

    def _tenant_of(self, tenant: Union[Tenant, str]) -> Tenant:
        if isinstance(tenant, Tenant):
            if self.tenants.get(tenant.name) is not tenant:
                raise ValueError(
                    f"tenant {tenant.name!r} is not registered with this "
                    f"service (use register_tenant)"
                )
            return tenant
        if tenant not in self.tenants:
            # Unknown names self-register with defaults: an open service.
            return self.register_tenant(tenant)
        return self.tenants[tenant]

    def in_flight(self, tenant: str) -> int:
        """Submissions currently occupying one of the tenant's slots.

        Served from incremental per-tenant counters (incremented on
        accepted submits, decremented when a handle is finalized) —
        previously this scanned every handle ever created, making each
        submit O(lifetime submissions) on a long-lived service.  The
        reference scan survives as :meth:`_in_flight_scan`; tests assert
        the two stay equivalent.
        """
        return self._live_counts.get(tenant, 0)

    def _in_flight_scan(self, tenant: str) -> int:
        """Reference implementation of :meth:`in_flight` (full scan)."""
        return sum(
            1 for handle in self._handles
            if handle.tenant == tenant and handle.status in _LIVE_STATES
        )

    # -------------------------------------------------------------- submit

    def submit(
        self,
        tenant: Union[Tenant, str],
        app: ModuleDAG,
        definition=None,
        inputs: Optional[Dict[str, Any]] = None,
        options: Optional[SubmitOptions] = None,
    ) -> SubmissionHandle:
        """Accept one submission; raises
        :class:`~repro.service.tenants.QuotaExceeded` over quota and
        :class:`~repro.service.tenants.BudgetExceeded` (a subclass) when
        the tenant's spend reached its budget ceiling.

        ``options`` is a :class:`~repro.service.tenants.SubmitOptions`
        (or a fluent ``submit_options()`` builder — anything with
        ``build_options``): lint override, dispatch priority, deadline,
        cache opt-out.

        In batched mode the submission buffers until the next
        :meth:`dispatch_round` (or :meth:`drain`, which flushes); in
        serial mode it reaches the runtime immediately.  ``app``,
        ``definition`` and ``inputs`` are read once, here, into the
        submission's key: do not mutate them until the handle finalizes.
        """
        opts = SubmitOptions()
        if options is not None:
            if not hasattr(options, "build_options"):
                raise TypeError(
                    f"options must be SubmitOptions (or builder), "
                    f"got {type(options).__name__}"
                )
            opts = options.build_options()
        lint = self.lint if opts.lint is None else opts.lint
        record = self._tenant_of(tenant)
        name = record.name
        key = SubmissionKey.of(name, app, definition, inputs)
        labels = {"tenant": name}
        self.telemetry.inc("udc_tenant_submissions_total", labels=labels)
        handle = SubmissionHandle(tenant=name, app=app.name,
                                  seq=next(self._seq), options=opts)
        if self.cache.capacity > 0 and opts.use_cache:
            # Tenant-confidential apps key by tenant: tenant A's cached
            # PHI result must never answer tenant B's submission.
            handle._cache_key = key.result
            cached = self.cache.get(handle._cache_key)
            if cached is not None:
                # A hit short-circuits placement, not policy: the result
                # may have been cached under a differently-configured
                # service, so a linting service still lints before
                # serving (memoized — repeats stay cheap).
                if lint:
                    self._lint(name, app, definition, key)
                # Served without consuming capacity: no quota charge.
                handle.cached = True
                handle.result = cached
                self._handles.append(handle)
                self.ledger.record_submission(name)
                self.ledger.record_cache_hit(name, cached)
                self.telemetry.inc("udc_tenant_cache_hits_total",
                                   labels=labels)
                return handle
            self.telemetry.inc("udc_tenant_cache_misses_total", labels=labels)
        try:
            record.check_quota(self.in_flight(name))
        except QuotaExceeded:
            self.ledger.record_rejection(name)
            self.telemetry.inc("udc_tenant_rejections_total", labels=labels)
            raise
        reason = self.budget.admit(name)
        if reason is not None:
            # Budget exhaustion is load shedding at the front door, the
            # same as quota — but separately countable and catchable.
            self.ledger.record_rejection(name)
            self.telemetry.inc("udc_tenant_rejections_total", labels=labels)
            self.telemetry.inc("udc_budget_rejections_total", labels=labels)
            raise BudgetExceeded(name, reason)
        if lint:
            self._lint(name, app, definition, key)
        record.submitted += 1
        self.ledger.record_submission(name)
        self._handles.append(handle)
        self._open.append(handle)
        self._live_counts[name] = self._live_counts.get(name, 0) + 1
        pending = _PendingWork(handle, app, definition, inputs, key, opts)
        if self.batched:
            self._pending.append(pending)
        else:
            self._dispatch(pending)
        return handle

    def _lint(self, tenant: str, app: ModuleDAG, definition,
              key: SubmissionKey) -> None:
        """Static front-door check; raises
        :class:`~repro.analysis.AnalysisError` on error findings.

        Runs the same passes — and produces the same diagnostics — as
        ``udc lint`` against this service's datacenter, so a rejected
        tenant can reproduce the report offline.
        """
        # Imported here: repro.analysis imports service types at load.
        from repro.analysis import AnalysisError, _analyze

        labels = {"tenant": tenant}
        self.telemetry.inc("udc_lint_checks_total", labels=labels)
        # Memoized on the submission key (labels included): a repeated
        # shape re-emits the same metrics and verdict without re-running
        # the analyzer.  The report is a pure function of (app,
        # definition, datacenter, tier), so replaying it is
        # byte-identical to re-deriving it.
        tier = self.tier_of(tenant)
        memo_key = key.lint(tier)
        report = self._lint_memo.get(memo_key)
        if report is None:
            # The analyzer reads the same task graph the app's templates
            # place from: one graph per app shape, not one per lint.
            templates = self.runtime.admission_memo
            report = _analyze(
                definition if definition is not None else {},
                app, self.runtime.datacenter, tenant_tier=tier,
                task_graph=(templates.view(key.shape, app).graph
                            if templates is not None else None),
            )
            self._lint_memo.put(memo_key, report)
        for diag in report:
            self.telemetry.inc(
                "udc_lint_findings_total",
                labels={"severity": diag.severity.value},
            )
        if not report.ok:
            self.ledger.record_rejection(tenant)
            self.telemetry.inc("udc_tenant_rejections_total", labels=labels)
            self.telemetry.inc("udc_lint_rejections_total", labels=labels)
            raise AnalysisError(report)

    def _dispatch(self, work: "_PendingWork") -> None:
        """Route by coarse demand, try each cell once, park on rejection.

        Cells are tried in router order; a cell that cannot place the
        app raises, rolls its partial placement back, and the next cell
        is tried (the spill).  When *every* cell rejected, the
        first-choice cell's rolled-back attempt parks on that cell's
        admission queue, where freed capacity retries it — it is not
        placed a second time first.
        """
        handle = work.handle
        # Compiled once per dispatch (from the shared memo when batched):
        # spills, admission retries and preemption redeploys reuse it.
        template = self.runtime.compile(work.app, work.definition, work.key)
        demand = template.demand
        if demand is None:
            # Once per template: everything the estimate reads is in the
            # shape the template was compiled for.
            demand = template.demand = estimate_demand(
                work.app, self.runtime.datacenter)
        order = self.router.order(demand)
        first_rejection = None
        for hops, cell_id in enumerate(order):
            try:
                submission = work.submit_to(self.cell_runtimes[cell_id],
                                            template)
                break
            except SchedulerError as exc:
                # Keep the attempt and reason, not the exception: its
                # traceback holds this frame, a cycle only the garbage
                # collector would free.
                if first_rejection is None:
                    first_rejection = (exc.submission, str(exc))
        else:
            hops, cell_id = len(order), order[0]
            submission = self.cell_runtimes[cell_id].park(*first_rejection)
        handle.cell = cell_id
        self.router.record_placement(cell_id, hops)
        handle.submission = submission
        labels = {"tenant": handle.tenant}
        if submission.status == "queued":
            self.telemetry.inc("udc_tenant_queued_total", labels=labels)
            if self.tier_of(handle.tenant) == "firm":
                self._preempt_for(handle, submission)
        else:
            self.telemetry.inc("udc_tenant_admitted_total", labels=labels)

    def _preempt_for(self, handle: SubmissionHandle,
                     submission: Submission) -> None:
        """Evict spot-tier work until a queued firm submission places.

        Victims are running, non-persistent spot-tier submissions in the
        same placement cell, youngest first (LIFO — the spot work that
        arrived last has the least sunk cost).  Each eviction releases
        capacity synchronously and immediately retries the admission
        queue (firm-ranked first), so the firm submission deploys before
        the next victim is considered; eviction stops the moment it does.
        Spot tenants never trigger preemption — the tier cannot cannibalize
        itself — and if the victims run out, the firm submission simply
        stays parked like any other queued work.
        """
        cell = handle.cell
        runtime = self.cell_runtimes[cell]
        victims = sorted(
            (
                h for h in self._open
                if h is not handle
                and h.submission is not None
                and h.submission.status == "running"
                and not h.submission.persistent
                and h.cell == cell
                and self.tier_of(h.tenant) == "spot"
            ),
            key=lambda h: -h.seq,
        )
        for victim in victims:
            if not runtime.preempt(victim.submission,
                                   by_tenant=handle.tenant):
                continue
            self.preemptions += 1
            self.telemetry.inc("udc_tenant_preemptions_total",
                               labels={"tenant": victim.tenant})
            runtime._retry_admissions()
            if submission.status != "queued":
                return

    def dispatch_round(self) -> int:
        """Flush buffered submissions as one scheduling round.

        The round is ordered by submit priority, then the admission
        policy (fair share by default; seq breaks ties deterministically)
        and placed under one scheduler batch span, so control-plane
        telemetry is paid once per round instead of once per app.

        Under ``autopilot=True`` the round starts with one planner pass:
        the budget hook replans spending ceilings from the ledger, and
        at every forecast-window boundary the forecaster resizes warm
        pool shelves to the coming window's predicted demand.
        """
        if self.autopilot:
            self._autopilot_round()
        if not self._pending:
            return 0
        batch = sorted(
            self._pending,
            key=lambda w: (-w.options.priority,)
            + tuple(self.policy.sort_key(w.handle.tenant, w.handle.seq)),
        )
        self._pending = []
        self.rounds += 1
        span = self.telemetry.span_start(
            self.runtime.sim.now, "service", "dispatch-round", "service",
            round=self.rounds, batch=len(batch),
        )
        with ExitStack() as scopes:
            # Every cell opens its batch scope for the round: schedulers
            # install their round-local _BatchCache (and per-cell
            # batch-round latency is observed once per round per cell).
            # With one cell this is exactly the historical single
            # batch_round.
            for cell_runtime in self.cell_runtimes:
                scopes.enter_context(
                    cell_runtime.scheduler.batch_round(len(batch))
                )
            for work in batch:
                self._dispatch(work)
        self.telemetry.span_end(span, self.runtime.sim.now)
        self.telemetry.inc("udc_service_rounds_total")
        self.telemetry.inc("udc_service_dispatched_total", len(batch))
        return len(batch)

    def _autopilot_round(self) -> None:
        """One planner pass: replan ceilings, resize warm-pool shelves.

        Deterministic arithmetic over ledger rollups and forecaster
        state, visited in sorted order — the planner never touches the
        enforcement path directly (kernel/planner split).
        """
        now = self.runtime.sim.now
        if self.budget_hook is not None:
            attainment = {
                usage.tenant: (usage.completed, usage.slo_misses)
                for usage in self.ledger.rollup()
            }
            self.budget_hook.on_round(now, attainment)
        forecaster = self.forecaster
        pool = self.runtime.warm_pool
        if forecaster is not None and pool.enabled \
                and forecaster.roll(now):
            for kind, single in sorted(pool._known_keys,
                                       key=lambda k: (k[0].value, k[1])):
                target = forecaster.target_for(kind, single)
                pool.set_target(kind, single, target)
                if self.telemetry.enabled:
                    self.telemetry.gauge_set(
                        "udc_warm_pool_target_depth", float(target),
                        labels={"kind": kind.value,
                                "single": str(single).lower()},
                    )
            pool.refill()

    # --------------------------------------------------------------- drain

    def drain(self, until: Optional[float] = None) -> List[SubmissionHandle]:
        """Dispatch anything buffered and run the clock.

        With ``until`` the clock stops early, but handles whose
        submissions *did* finish by then are finalized — results
        collected, tenant ledger and metrics updated, the result cache
        fed — and returned, exactly as a full drain would have done for
        them.  (Previously a timed drain returned ``[]`` without
        finalizing anything, so a server taking only timed drain ticks
        — the gateway — lagged arbitrarily behind its own completions.)
        Submissions still parked in the admission queue stay parked: a
        timed drain is a tick, not a verdict on placeability.

        Without ``until`` the runtime drains to quiescence, queued
        submissions that never fit are marked unplaceable, and every
        newly finished handle is finalized.  Returns the handles
        finalized by this call.
        """
        self.dispatch_round()
        if until is not None:
            self.runtime.sim.run(until=until)
            return self._finalize_finished(partial=True)
        # Cell runtimes share one simulator: the first drain runs it to
        # quiescence (all cells' executions and admission retries fire),
        # the rest just collect their own results / mark their own
        # still-queued submissions unplaceable — in cell order, so the
        # walk is deterministic.
        for cell_runtime in self.cell_runtimes:
            cell_runtime.drain()
        return self._finalize_finished(partial=False)

    def _finalize_finished(self, partial: bool) -> List[SubmissionHandle]:
        """Finalize every handle whose submission has a result to give.

        On a partial (timed) drain, finished submissions are collected
        from their owning cell runtime first — settling their meters and
        building their reports at completion time instead of waiting for
        a quiescent drain that a long-lived server may never issue.

        Walks only the open (not-yet-finalized) handles and rebuilds
        that list in place, so a drain tick on a long-lived server costs
        O(open submissions), not O(every handle ever created).
        """
        finished: List[SubmissionHandle] = []
        still_open: List[SubmissionHandle] = []
        for handle in self._open:
            if handle.result is not None:
                continue
            submission = handle.submission
            if submission is None or (submission.result is None
                                      and not (partial and submission.done)):
                still_open.append(handle)
                continue
            if submission.result is None:
                self.cell_runtimes[handle.cell].collect(submission)
            self._finalize(handle)
            finished.append(handle)
        self._open = still_open
        return finished

    def _finalize(self, handle: SubmissionHandle) -> None:
        submission = handle.submission
        handle.result = submission.result
        # The handle leaves the live set exactly once, here: finalize is
        # guarded by ``handle.result is None`` at every call site.
        count = self._live_counts.get(handle.tenant, 0) - 1
        if count > 0:
            self._live_counts[handle.tenant] = count
        else:
            self._live_counts.pop(handle.tenant, None)
        labels = {"tenant": handle.tenant}
        if submission.status == "unplaceable":
            self.ledger.record_unplaceable(handle.tenant)
            self.telemetry.inc("udc_tenant_unplaceable_total", labels=labels)
            return
        # Billing: the metered cost runs through the tenant's pricing
        # plan (spot discounts here), lands on the ledger AND the budget
        # enforcer — two independently-kept books whose agreement
        # check_budget_accounting audits.
        spec = self._specs.get(handle.tenant)
        plan = spec.plan if spec is not None else FIRM_PLAN
        billed = plan.billed(submission.result.total_cost)
        deadline = None
        if handle.options is not None \
                and handle.options.deadline_s is not None:
            deadline = handle.options.deadline_s
        elif spec is not None:
            deadline = spec.slo_s
        elapsed = submission.queue_wait_s + submission.result.makespan_s
        slo_miss = deadline is not None and elapsed > deadline
        self.ledger.record_result(
            handle.tenant, submission.result,
            queue_wait_s=submission.queue_wait_s,
            billed_cost=billed, slo_miss=slo_miss,
        )
        self.budget.charge(handle.tenant, billed)
        self.telemetry.inc("udc_tenant_completed_total", labels=labels)
        self.telemetry.inc("udc_tenant_cost_dollars_total",
                           submission.result.total_cost, labels=labels)
        self.telemetry.inc("udc_tenant_billed_dollars_total",
                           billed, labels=labels)
        if slo_miss:
            self.telemetry.inc("udc_slo_misses_total", labels=labels)
        if submission.queue_wait_s > 0:
            self.telemetry.observe("udc_tenant_queue_wait_seconds",
                                   submission.queue_wait_s, labels=labels)
        if handle._cache_key is not None:
            self.cache.put(handle._cache_key, submission.result)

    # ----------------------------------------------------------- reporting

    @property
    def cells(self) -> int:
        """Number of placement cells this service shards across."""
        return len(self.cell_runtimes)

    @property
    def open_count(self) -> int:
        """Executed submissions accepted but not yet finalized."""
        return len(self._open)

    @property
    def pending_count(self) -> int:
        """Submissions buffered for the next dispatch round."""
        return len(self._pending)

    @property
    def live_count(self) -> int:
        """Total live submissions across tenants (quota-occupying)."""
        return sum(self._live_counts.values())

    def fail_at(self, when: float, domain: str) -> None:
        """Schedule a failure-domain fault, routed to the owning cell.

        A failure domain lives in whichever cell's injector registered
        it (domains are created where modules are placed); the walk is
        in cell order, falling back to cell 0 for a domain nothing has
        touched yet — deterministic either way.
        """
        for cell_runtime in self.cell_runtimes:
            if domain in cell_runtime.injector.domains:
                cell_runtime.injector.fail_at(when, domain)
                return
        self.runtime.injector.fail_at(when, domain)

    def metrics_snapshot(self):
        """The service's metrics registry with per-cell and aggregate
        pool gauges refreshed.

        Single-cell output is byte-identical to
        :meth:`UDCRuntime.metrics_snapshot`.  Sharded, every cell's pool
        gauges carry a ``cell`` label, the same families are also
        written *without* the cell label as the summed cross-cell
        aggregate (so dashboards built on the unsharded names keep
        working), and ``udc_cell_free_units`` exposes the router's
        free-capacity vectors.
        """
        registry = self.runtime.metrics_snapshot()
        if self.cells == 1:
            return registry
        totals: Dict[tuple, Dict[str, float]] = {}
        for cell_runtime in self.cell_runtimes[1:]:
            cell_runtime.datacenter.pools.collect_metrics(registry)
        for cell_runtime in self.cell_runtimes:
            for pool in cell_runtime.datacenter.pools:
                agg = totals.setdefault(
                    (pool.device_type,),
                    {"capacity": 0.0, "used": 0.0, "peak": 0.0},
                )
                agg["capacity"] += pool.total_capacity
                agg["used"] += pool.total_used
                agg["peak"] += pool.peak_used
        for (device_type,), agg in sorted(
            totals.items(), key=lambda kv: kv[0][0].value
        ):
            labels = {"device_type": device_type.value}
            registry.gauge("udc_pool_capacity_units", labels).set(
                agg["capacity"])
            registry.gauge("udc_pool_used_units", labels).set(agg["used"])
            registry.gauge("udc_pool_peak_used_units", labels).set(
                agg["peak"])
            registry.gauge("udc_pool_utilization", labels).set(
                agg["used"] / agg["capacity"] if agg["capacity"] else 0.0)
        registry.gauge("udc_service_cells").set(float(self.cells))
        self.router.snapshot(registry)
        return registry

    def completed_by_tenant(self) -> Dict[str, int]:
        """Executed completions per registered tenant (cache hits are
        served, not executed, so they do not count).  Works mid-run."""
        counts = {name: 0 for name in self.tenants}
        for handle in self._handles:
            if not handle.cached and handle.done:
                counts[handle.tenant] = counts.get(handle.tenant, 0) + 1
        return counts

    def fairness_index(self, metric: str = "completed") -> float:
        """Jain's index across registered tenants.

        ``metric="completed"`` scores executed completions (usable
        mid-run, before results are collected); any other name reads
        that field off the tenant ledger rollups.
        """
        if metric == "completed":
            counts = self.completed_by_tenant()
            return jain_index(float(counts[name])
                              for name in sorted(counts))
        return self.ledger.fairness(metric, tenants=sorted(self.tenants))

    def rollup(self) -> List[TenantUsage]:
        return self.ledger.rollup()

    def billed_by_tenant(self) -> Dict[str, float]:
        """Billed dollars per tenant, from the ledger's book."""
        return {usage.tenant: usage.billed_cost
                for usage in self.ledger.rollup()}

    def check_budget_accounting(self, tolerance: float = 1e-6) -> List[str]:
        """Drift audit: enforcer spend vs. ledger billed totals.

        Empty means the two independently-maintained books balance —
        the zero-drift invariant the autopilot CI job gates on.
        """
        return self.budget.check_accounting(self.billed_by_tenant(),
                                            tolerance)

    def economics_fingerprint(self) -> Optional[Dict[str, Any]]:
        """Autopilot/budget state for replay fingerprints.

        None when economics are inert (no autopilot, no declared
        budgets), so fingerprints of pre-autopilot runs — and journals
        recorded before this subsystem existed — are byte-identical.
        """
        if not (self.autopilot or self.budget.active):
            return None
        state: Dict[str, Any] = {
            "budget": self.budget.snapshot(),
            "preemptions": self.preemptions,
        }
        if self.budget_hook is not None:
            state["ceilings"] = self.budget_hook.state()
        if self.forecaster is not None:
            state["forecast"] = self.forecaster.state()
        return state

    @property
    def cache_stats(self) -> CacheStats:
        return self.cache.stats

    @property
    def handles(self) -> List[SubmissionHandle]:
        return list(self._handles)


@dataclass
class _PendingWork:
    """A buffered submission awaiting its dispatch round."""

    handle: SubmissionHandle
    app: ModuleDAG
    definition: Any
    inputs: Optional[Dict[str, Any]]
    key: SubmissionKey
    options: SubmitOptions = field(default_factory=SubmitOptions)

    def submit_to(self, runtime: UDCRuntime,
                  template: AppTemplate) -> Submission:
        return runtime.submit(
            self.app, tenant=self.handle.tenant, inputs=self.inputs,
            persistent=template.persistent, template=template,
        )
