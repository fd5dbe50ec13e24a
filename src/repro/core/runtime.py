"""The UDC runtime: admission → placement → execution → verification.

This is the paper's control plane, end to end:

1. **Admission** — validate the application DAG, parse the declarative
   user definition, fill undeclared aspects with provider defaults
   (Principle 2), detect and resolve cross-module consistency conflicts
   (§3.4).
2. **Placement** — data modules become replicated stores on
   storage/memory pools; task modules get exact-amount compute + memory
   allocations, an execution environment satisfying their security
   aspect, and a vertically-bundled resource unit (§3.2, §3.3,
   Principle 3).
3. **Execution** — tasks run as simulator processes: environment startup
   (warm-pool aware), input transfers over the fabric (paying data
   protection costs), chunked compute with optional checkpoints,
   failure-interrupt handling with re-placement and recovery per the
   distributed aspect, telemetry sampling, and adaptive tuning.
4. **Verification** — every object gets a fulfillment record; attestable
   environments get hardware-rooted quotes users can verify (§4).

Allocations are held exactly as long as the module needs them — task
allocations release at task completion (pay-for-what-you-use, the paper's
economic core), data allocations at teardown.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.appmodel.dag import ModuleDAG
from repro.appmodel.module import TaskModule
from repro.core.admission import AdmissionPolicy, FifoAdmission
from repro.core.aspects import DistributedAspect
from repro.core.bundle import BundleManager
from repro.core.conflicts import ConflictPolicy, ConflictResolution, resolve_conflicts
from repro.core.defaults import provider_defaults
from repro.core.objects import UDCObject
from repro.core.observability import NULL_SPAN, MetricsRegistry, Span
from repro.core.report import ModuleRow, RunResult
from repro.core.scheduler import SchedulerError, TaskPlacement, UdcScheduler
from repro.core.spec import UserDefinition, parse_definition
from repro.core.telemetry import Telemetry
from repro.core.template import AppTemplate, AppView
from repro.core.tuner import FineTuner
from repro.core.verify import FulfillmentRecord
from repro.distsem.checkpoint import CheckpointStore
from repro.distsem.failures import Failure, FailureInjector
from repro.distsem.network_order import SwitchSequencer
from repro.distsem.recovery import RecoveryStrategy, plan_recovery
from repro.distsem.resilience import (
    CircuitBreakerRegistry,
    DeadlineMiss,
    HedgeCancelled,
    Preempted,
)
from repro.distsem.store import ReplicatedStore
from repro.execenv.attestation import HardwareRootOfTrust, Measurement
from repro.execenv.environments import ENV_PROFILES, EnvKind, EnvState
from repro.execenv.protection import ProtectionPolicy
from repro.execenv.warmpool import WarmPool
from repro.hardware.devices import DeviceType
from repro.hardware.pools import AllocationError
from repro.hardware.topology import Datacenter
from repro.simulator.engine import Event, Interrupt, Process
from repro.simulator.rng import RngRegistry

__all__ = ["RuntimeError_", "UDCRuntime"]

#: fraction of task progress between telemetry samples when the task
#: does not checkpoint (checkpoint intervals set the cadence otherwise)
TELEMETRY_CHUNK = 0.25


class RuntimeError_(Exception):
    """Raised for unrecoverable runtime conditions (name avoids shadowing
    the builtin in ``from ... import *`` consumers)."""


@dataclass
class _LiveTask:
    """Book-keeping for one executing task object."""

    obj: UDCObject
    placement: TaskPlacement
    completion: Event
    declared_amount: float
    domain_name: str = ""
    #: upstream *tasks* this task waits for (its entry in
    #: :meth:`~repro.appmodel.dag.ModuleDAG.effective_task_graph`)
    upstream: List[str] = field(default_factory=list)
    #: the primary simulator process executing this task
    process: Optional[Process] = None
    #: live speculative duplicate, if a HedgePolicy launched one
    hedge_process: Optional[Process] = None
    #: root lifecycle span for this task (closed by _finish_task)
    span: Optional[Span] = None
    #: set by UDCRuntime.preempt so stale hedge monitors and deadline
    #: timers holding this state stand down instead of acting on a task
    #: that no longer owns any resources
    preempted: bool = False


@dataclass
class Submission:
    """One tenant application admitted into the runtime.

    Multiple submissions may execute concurrently on the same datacenter
    (the provider-consolidation scenario, §2): each keeps its own objects,
    records, outputs, and cost ledger, while competing for the shared
    pools, fabric, and warm inventory.
    """

    dag: ModuleDAG
    tenant: str
    inputs: Dict[str, Any]
    #: unique monotonic id assigned at submit time — the deterministic
    #: tie-break for admission-policy ordering
    seq: int = 0
    objects: Dict[str, UDCObject] = field(default_factory=dict)
    records: Dict[str, "FulfillmentRecord"] = field(default_factory=dict)
    stores: Dict[str, ReplicatedStore] = field(default_factory=dict)
    resolution: Optional[ConflictResolution] = None
    completions: Dict[str, Event] = field(default_factory=dict)
    outputs: Dict[str, Any] = field(default_factory=dict)
    submitted_at: float = 0.0
    finished_at: float = 0.0
    #: persistent submissions keep their data allocations after drain
    #: (standing services); release them with UDCRuntime.decommission
    persistent: bool = False
    #: lifecycle: pending -> running -> done; or queued -> running -> done;
    #: or queued -> unplaceable (capacity never freed)
    status: str = "pending"
    queued_at: float = 0.0
    #: how long the submission waited in the admission queue
    queue_wait_s: float = 0.0
    finished: Optional[Event] = None
    #: (allocation, acquired_at) pairs awaiting settlement
    cost_ledger: List[Tuple[Any, float]] = field(default_factory=list)
    settled_cost: float = 0.0
    result: Optional[RunResult] = None
    #: the compiled app (admission result, DAG view, device plans); a
    #: queued or preempted submission (re)deploys from it
    template: Optional[AppTemplate] = field(default=None, repr=False)
    dishonest_env: Optional[Dict[str, EnvKind]] = field(default=None, repr=False)
    attach_stores: Optional[Dict[str, ReplicatedStore]] = field(default=None, repr=False)
    #: ``[(sim_time, failure_domain_name), ...]``: injected by the deploy
    #: that places the submission, then cleared, so a redeploy after a
    #: preemption does not inject it again
    failure_plan: Optional[List[Tuple[float, str]]] = field(default=None, repr=False)
    #: per-task execution state of the current deployment (rebuilt on
    #: every _deploy, emptied at collection; what UDCRuntime.preempt
    #: interrupts)
    live_tasks: Dict[str, "_LiveTask"] = field(default_factory=dict,
                                               repr=False)
    #: times this submission's resources were reclaimed for firm work
    preemptions: int = 0
    #: the lifecycle root span of every task run of this submission, in
    #: start order (a preempted deployment's spans stay; empty when
    #: telemetry is disabled)
    spans: List[Span] = field(default_factory=list, repr=False)

    @property
    def done(self) -> bool:
        """True once every task completion has fired.

        A submission that never started (still pending/queued, or
        unplaceable — ``finished`` never built) is NOT done; only a
        deployed app with zero task modules is trivially done.
        """
        if self.finished is not None:
            return self.finished.processed
        # No completion event exists: done only if deployment finished
        # and produced no task completions (a data-only application).
        return self.status in ("running", "done") and not self.completions


@dataclass
class DeferredSubmission:
    """Handle for a future arrival created by :meth:`UDCRuntime.submit_at`;
    ``submission`` is populated when the arrival fires."""

    arrives_at: float
    submission: Optional[Submission] = None


class UDCRuntime:
    """One tenant-facing runtime instance over one datacenter."""

    def __init__(
        self,
        datacenter: Datacenter,
        conflict_policy: ConflictPolicy = ConflictPolicy.STRICTEST,
        use_locality: bool = True,
        tuning: bool = True,
        warm_pool: Optional[WarmPool] = None,
        prewarm: bool = False,
        use_network_ordering: bool = False,
        max_recovery_attempts: int = 3,
        rng: Optional[RngRegistry] = None,
        breakers: Optional[CircuitBreakerRegistry] = None,
        telemetry: Optional[Telemetry] = None,
        admission_policy: Optional[AdmissionPolicy] = None,
    ):
        self.datacenter = datacenter
        self.sim = datacenter.sim
        self.conflict_policy = conflict_policy
        self.prewarm = prewarm
        self.use_network_ordering = use_network_ordering
        self.max_recovery_attempts = max_recovery_attempts
        #: run-seed registry: retry jitter and failure schedules draw
        #: named streams from here, so one seed reproduces a whole run
        self.rng = rng if rng is not None else RngRegistry(0)

        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.warm_pool = warm_pool if warm_pool is not None else WarmPool(enabled=False)
        # Warm pool and breakers feed the metrics registry incrementally
        # (both guard on telemetry.enabled, keeping the disabled path free).
        self.warm_pool.telemetry = self.telemetry
        self.bundles = BundleManager(warm_pool=self.warm_pool)
        self.breakers = (
            breakers if breakers is not None else CircuitBreakerRegistry()
        )
        self.breakers.telemetry = self.telemetry
        self.scheduler = UdcScheduler(
            datacenter, self.bundles, telemetry=self.telemetry,
            use_locality=use_locality, breakers=self.breakers,
        )
        self.tuner = FineTuner(
            datacenter=datacenter, telemetry=self.telemetry, enabled=tuning
        )
        self.injector = FailureInjector(
            self.sim, rng=self.rng, fabric=datacenter.fabric,
            warm_pool=self.warm_pool,
        )
        self.injector.subscribe(self._on_domain_failure)
        # Auto-placement skips devices whose breaker is open.
        for pool in self.datacenter.pools:
            pool.admission_filter = self._breaker_admits
        self.root_of_trust = HardwareRootOfTrust()
        for device in datacenter.devices:
            if device.spec.attestable:
                self.root_of_trust.provision(device)
        self._sequencer: Optional[SwitchSequencer] = None
        if use_network_ordering and datacenter.switch_locations:
            self._sequencer = SwitchSequencer(
                datacenter.fabric, datacenter.switch_locations[0]
            )
        #: allocation id -> owning submission (for cost settlement)
        self._owner_of: Dict[str, Submission] = {}
        self._submissions: List[Submission] = []
        #: uncollected submissions, by seq in submit order: what drain
        #: walks, so a drain costs O(open work), not O(history)
        self._open: Dict[int, Submission] = {}
        #: submissions whose stores may still need healing (uncollected,
        #: or persistent and not decommissioned), by seq in submit order
        self._holding: Dict[int, Submission] = {}
        self._deferred: List[DeferredSubmission] = []
        self._admission_queue: List[Submission] = []
        self._retry_scheduled = False
        #: who gets freed capacity first — FIFO preserves the historical
        #: behavior; UDCService installs WeightedFairShare here
        self.admission_policy: AdmissionPolicy = (
            admission_policy if admission_policy is not None
            else FifoAdmission()
        )
        #: optional template cache (duck-typed: lookup/store/view), keyed
        #: by each submission's SubmissionKey; installed by UDCService in
        #: batched mode (one memo shared by every cell)
        self.admission_memo = None
        #: optional tenant -> tier rank hook (0 = firm, 1 = spot),
        #: installed by UDCService so admission retries favor firm work;
        #: must be a plain callable or bound method (snapshots pickle it)
        self.tier_of: Optional[Callable[[str], int]] = None
        self._seq_counter = itertools.count()

    # ------------------------------------------------------------------ admission

    def compile(
        self,
        dag: ModuleDAG,
        definition: Union[UserDefinition, Dict, None],
        key=None,
    ) -> AppTemplate:
        """Validate, default-fill and conflict-resolve one application,
        and compile everything placement reads about it into an
        :class:`~repro.core.template.AppTemplate`.

        With ``key`` (the submission's
        :class:`~repro.service.cache.SubmissionKey`) and an
        :attr:`admission_memo`, equal submissions share one template.
        """
        memo = self.admission_memo if key is not None else None
        if memo is not None:
            memo_key = key.admission(self.conflict_policy)
            template = memo.lookup(memo_key)
            if template is not None:
                return template
        if hasattr(definition, "build_definition"):
            # A fluent DefinitionBuilder (repro.define()): compile it
            # through parse_definition so diagnostics are identical.
            definition = definition.build_definition()
        dag.validate()
        if definition is None:
            parsed = UserDefinition()
        elif isinstance(definition, dict):
            parsed = parse_definition(definition)
        else:
            parsed = definition
        unknown = set(parsed.bundles) - set(dag.modules)
        if unknown:
            raise RuntimeError_(
                f"definition names modules not in the application: "
                f"{sorted(unknown)}"
            )
        resolution = resolve_conflicts(dag, parsed, self.conflict_policy)
        resolved = resolution.definition
        bundles = {
            name: resolved.bundle_for(name).with_defaults(
                provider_defaults(module))
            for name, module in dag.modules.items()
        }
        template = AppTemplate(
            memo.view(key.shape, dag) if memo is not None else AppView(dag),
            bundles, resolution=resolution,
            persistent=any(
                bundle.distributed is not None and bundle.distributed.persistent
                for bundle in parsed.bundles.values()
            ),
        )
        if memo is not None:
            memo.store(memo_key, template)
        return template

    # ------------------------------------------------------------------ placement

    def _deploy_data(self, submission: Submission) -> Dict[str, ReplicatedStore]:
        stores: Dict[str, ReplicatedStore] = {}
        attach_stores = submission.attach_stores or {}
        for name, obj in sorted(submission.objects.items()):
            if not obj.is_data:
                continue
            if name in attach_stores:
                # Standing state shared across invocations (event-driven
                # services): reuse the live store; its allocations remain
                # owned — and billed — by the submission that created it.
                obj.store = attach_stores[name]
                stores[name] = attach_stores[name]
                continue
            placement = self.scheduler.place_data(obj)
            dist = obj.aspects.distributed or DistributedAspect()
            store = ReplicatedStore(
                sim=self.sim,
                fabric=self.datacenter.fabric,
                name=name,
                placement=placement,
                consistency=dist.consistency
                or provider_defaults(obj.module).distributed.consistency,
                preference=dist.preference,
                sequencer=self._sequencer,
            )
            obj.store = store
            stores[name] = store
            for allocation in placement.allocations:
                self._track(submission, allocation)
        return stores

    def _track(self, submission: Submission, allocation) -> None:
        """Register an allocation on the submission's pay-per-use ledger."""
        submission.cost_ledger.append((allocation, self.sim.now))
        self._owner_of[allocation.alloc_id] = submission

    def _prewarm_for(self, objects: Dict[str, UDCObject],
                     template: AppTemplate) -> None:
        """Stock the warm pool with the env shapes this app will request —
        the provider's standing bundled-unit inventory (Principle 3)."""
        if not (self.prewarm and self.warm_pool.enabled):
            return
        plan = template.cell_plan(self.datacenter)
        scheduler = self.scheduler
        needed: Dict[Tuple[EnvKind, bool], int] = {}
        for name, obj in objects.items():
            if not obj.is_task:
                continue
            device_type = scheduler.choose_device_type(plan.devices[name])
            shape = scheduler.resolve_env(plan.envs[name], device_type)
            needed[shape] = needed.get(shape, 0) + 1
        for (env_kind, single), count in needed.items():
            self.warm_pool.prewarm(env_kind, single, count)

    # ------------------------------------------------------------------ execution

    def run(
        self,
        app: ModuleDAG,
        definition: Union[UserDefinition, Dict, None] = None,
        tenant: str = "tenant",
        inputs: Optional[Dict[str, Any]] = None,
        failure_plan: Optional[List[Tuple[float, str]]] = None,
        dishonest_env: Optional[Dict[str, EnvKind]] = None,
        until: Optional[float] = None,
        attach_stores: Optional[Dict[str, ReplicatedStore]] = None,
    ) -> RunResult:
        """Admit, deploy, and execute one application to completion.

        Args:
            app: the validated application.
            definition: declarative aspects (dict or parsed), or None for
                all provider defaults.
            inputs: optional per-source-task input values for functional
                execution (each task's ``fn`` receives a dict of its
                predecessors' outputs plus ``"input"``).
            failure_plan: ``[(sim_time, failure_domain_name), ...]`` to
                inject; module-default domains are named ``fd:<module>``.
            dishonest_env: modules the *provider* silently launches in a
                different (cheaper) environment than promised — used by the
                attestation benchmark; claims still state the promise.
        """
        submission = self.submit(
            app, definition, tenant=tenant, inputs=inputs,
            failure_plan=failure_plan, dishonest_env=dishonest_env,
            attach_stores=attach_stores,
        )
        self.drain()
        if until is not None:
            self.sim.run(until=until)
        return submission.result

    def submit(
        self,
        app: ModuleDAG,
        definition: Union[UserDefinition, Dict, None] = None,
        tenant: str = "tenant",
        inputs: Optional[Dict[str, Any]] = None,
        failure_plan: Optional[List[Tuple[float, str]]] = None,
        dishonest_env: Optional[Dict[str, EnvKind]] = None,
        attach_stores: Optional[Dict[str, ReplicatedStore]] = None,
        persistent: bool = False,
        queue_if_full: bool = False,
        template: Optional[AppTemplate] = None,
    ) -> Submission:
        """Admit and deploy one application without running the clock.

        Multiple submissions deployed before :meth:`drain` execute
        concurrently, contending for the same pools and fabric — the
        multi-tenant consolidation scenario.

        ``attach_stores`` lets an invocation reuse another submission's
        live data-module stores (by module name) instead of placing its
        own — how an event-driven service keeps standing state while its
        task modules come and go per event.  ``persistent`` marks this
        submission as such a standing service: its data allocations
        survive :meth:`drain` (and keep billing) until
        :meth:`decommission`.

        ``queue_if_full``: when placement fails for lack of free capacity,
        :meth:`park` the submission instead of raising.  Without it the
        :class:`SchedulerError` carries the rolled-back submission as
        ``exc.submission``.  ``template``: the app as :meth:`compile`
        already compiled it (then ``definition`` is not read); without
        one, it is compiled here.
        """
        seq = next(self._seq_counter)
        if template is None:
            template = self.compile(app, definition)
        submission = Submission(
            dag=app, tenant=tenant, inputs=inputs or {}, seq=seq,
            persistent=persistent, template=template,
            dishonest_env=dishonest_env, attach_stores=attach_stores,
            failure_plan=failure_plan,
        )
        try:
            self._deploy(submission)
            self.admission_policy.on_admitted(tenant)
        except SchedulerError as exc:
            self._rollback(submission)
            if not queue_if_full:
                exc.submission = submission
                raise
            return self.park(submission, str(exc))
        self._track_submission(submission)
        return submission

    def park(self, submission: Submission, reason: str) -> Submission:
        """Queue a rolled-back submission for admission retries.

        The submission waits in the admission queue and retries as
        running work releases resources (overload behavior, E21), in
        :attr:`admission_policy` order (FIFO by default).  Submissions
        that never fit surface as ``status == "unplaceable"`` at drain.
        No placement is attempted here: ``submission`` already failed
        one (``reason`` is why).
        """
        submission.status = "queued"
        submission.queued_at = self.sim.now
        self._admission_queue.append(submission)
        self.telemetry.event(
            self.sim.now, submission.dag.name, "admission-queued", reason
        )
        self._track_submission(submission)
        return submission

    def _track_submission(self, submission: Submission) -> None:
        self._submissions.append(submission)
        self._open[submission.seq] = submission
        self._holding[submission.seq] = submission

    def _rollback(self, submission: Submission) -> None:
        """Undo a partially-deployed submission (placement failed)."""
        for obj in submission.objects.values():
            for allocation in obj.allocations:
                self._owner_of.pop(allocation.alloc_id, None)
                if not allocation.released:
                    self.datacenter.pool(allocation.device_type).release(
                        allocation
                    )
            obj.allocations.clear()
            obj.environment = None
            obj.store = None
        submission.cost_ledger.clear()
        submission.stores.clear()
        submission.completions.clear()

    def _retry_admissions(self) -> None:
        """Retry queued submissions after capacity was released.

        The round is ordered by :attr:`admission_policy`: sort keys are
        computed once per round, the sort is stable, and every key embeds
        the submission seq — so the retry order is a deterministic
        function of queue contents, never of insertion accidents.
        """
        self._retry_scheduled = False
        policy = self.admission_policy
        tier_of = self.tier_of

        def _retry_key(submission):
            tenant = submission.tenant
            # Firm-tier work outranks spot within a retry round, so a
            # preempted spot submission can never starve the firm
            # submission whose arrival evicted it.
            rank = tier_of(tenant) if tier_of is not None else 0
            return (rank,) + tuple(policy.sort_key(tenant, submission.seq))

        ordered = sorted(self._admission_queue, key=_retry_key)
        still_waiting = []
        for submission in ordered:
            try:
                self._deploy(submission)
                policy.on_admitted(submission.tenant)
                submission.queue_wait_s = self.sim.now - submission.queued_at
                self.telemetry.event(
                    self.sim.now, submission.dag.name, "admission-admitted",
                    f"waited {submission.queue_wait_s:.3f}s",
                )
            except SchedulerError:
                self._rollback(submission)
                still_waiting.append(submission)
        self._admission_queue = still_waiting

    def _schedule_admission_retry(self) -> None:
        if self._admission_queue and not self._retry_scheduled:
            self._retry_scheduled = True
            self.sim.call_at(self.sim.now, self._retry_admissions)

    def preempt(self, submission: Submission, *, by_tenant: str = "") -> bool:
        """Reclaim a running submission's resources for firm-tier work.

        The preemptible-spot contract: the victim's live processes are
        interrupted with :class:`Preempted`, every held allocation is
        settled and released *synchronously* (partial work is billed —
        the spot discount pays for exactly this risk), and the
        submission is re-queued through the admission machinery to
        restart from scratch at its next deployment.  Persistent
        submissions (standing data services, possibly shared via
        ``attach_stores``) and submissions whose tasks all finished are
        never preempted.  Returns True when the submission was evicted.
        """
        if submission.status != "running" or submission.persistent:
            return False
        if submission.completions and all(
            event.triggered for event in submission.completions.values()
        ):
            return False
        for name in sorted(submission.live_tasks):
            task_state = submission.live_tasks[name]
            task_state.preempted = True
            if task_state.completion.triggered:
                continue
            cause = Preempted(module=name, by_tenant=by_tenant)
            for process in (task_state.process, task_state.hedge_process):
                if process is not None and process.is_alive:
                    process.interrupt(cause)
            self.telemetry.span_end(task_state.span, self.sim.now,
                                    status="preempted")
        for name in sorted(submission.objects):
            obj = submission.objects[name]
            self._release_task(submission, obj)
            obj.allocations.clear()
            obj.environment = None
            obj.store = None
        submission.stores.clear()
        submission.completions.clear()
        submission.live_tasks = {}
        submission.outputs.clear()
        submission.records = {}
        submission.finished = None
        submission.preemptions += 1
        submission.status = "queued"
        submission.queued_at = self.sim.now
        self._admission_queue.append(submission)
        self.telemetry.inc("udc_preemptions_total")
        self.telemetry.event(
            self.sim.now, submission.dag.name, "preempted",
            f"tenant {submission.tenant!r} evicted for {by_tenant!r}",
        )
        self._schedule_admission_retry()
        return True

    def _deploy(self, submission: Submission) -> None:
        dag = submission.dag
        tenant = submission.tenant
        dishonest_env = submission.dishonest_env
        template = submission.template
        objects = template.instantiate(dag, tenant)
        submission.objects = objects
        submission.resolution = template.resolution
        self._prewarm_for(objects, template)
        submission.stores = self._deploy_data(submission)
        placements = self.scheduler.place_tasks(objects, dag, template)
        for name in placements:
            # compute + memory + any hot-standby replicas, all pay-per-use
            for allocation in objects[name].allocations:
                self._track(submission, allocation)
        checkpoint_store = self._make_checkpoint_store()

        if dishonest_env:
            self._apply_dishonesty(objects, dishonest_env)
        submission.records = self._initial_records(
            objects, placements, dishonest_env or {}
        )

        # Failure-domain wiring.  Domains are namespaced by tenant except
        # when the user names one explicitly (cross-module coupling).
        # Data modules join domains too, so device failures trigger
        # re-replication (store healing).
        for name, obj in objects.items():
            if not obj.is_data:
                continue
            dist = obj.aspects.distributed or DistributedAspect()
            if dist.failure_domain:
                # Explicit domain: the user chose to couple the replicas
                # (a legitimate, if dangerous, declaration).
                domain = self.injector.domain(dist.failure_domain)
                for allocation in obj.allocations:
                    domain.add_device(allocation.device)
            else:
                # Default: each replica is its own failure domain —
                # replicas exist precisely to fail independently (§3.4).
                for index, allocation in enumerate(obj.allocations):
                    self.injector.domain(f"fd:{name}:r{index}") \
                        .add_device(allocation.device)
        live: Dict[str, _LiveTask] = {}
        graph = template.view.graph
        for name, placement in placements.items():
            obj = objects[name]
            dist = obj.aspects.distributed or DistributedAspect()
            domain_name = dist.failure_domain or f"fd:{name}"
            domain = self.injector.domain(domain_name)
            domain.add_device(placement.unit.compute.device)
            submission.completions[name] = self.sim.event()
            live[name] = _LiveTask(
                obj=obj,
                placement=placement,
                completion=submission.completions[name],
                declared_amount=placement.amount,
                domain_name=domain_name,
                upstream=graph.get(name, []),
            )

        for when, domain_name in submission.failure_plan or []:
            self.injector.fail_at(when, domain_name)
        submission.failure_plan = None

        submission.live_tasks = live
        submission.submitted_at = self.sim.now
        for name, task_state in live.items():
            process = self.sim.process(
                self._run_task(task_state, submission, checkpoint_store),
                name=f"task:{tenant}:{name}",
            )
            task_state.process = process
            self.injector.domain(task_state.domain_name).register_process(process)

        if submission.completions:
            submission.finished = self.sim.all_of(
                list(submission.completions.values())
            )
            submission.finished.callbacks.append(
                lambda _event: setattr(submission, "finished_at", self.sim.now)
            )
        submission.status = "running"

    def submit_at(
        self,
        when: float,
        app: ModuleDAG,
        definition: Union[UserDefinition, Dict, None] = None,
        **kwargs,
    ) -> "DeferredSubmission":
        """Schedule a submission for simulation time ``when``.

        Placement happens at arrival time against whatever capacity is
        then free — the arrival-churn scenario (benchmark E17).  The
        returned handle's ``submission`` attribute fills in at ``when``.
        """
        deferred = DeferredSubmission(arrives_at=when)

        def arrive():
            deferred.submission = self.submit(app, definition, **kwargs)

        self.sim.call_at(when, arrive)
        self._deferred.append(deferred)
        return deferred

    def plan(
        self,
        app: ModuleDAG,
        definition: Union[UserDefinition, Dict, None] = None,
        tenant: str = "tenant",
    ) -> List[Dict[str, Any]]:
        """Placement preview: admit and place, report, release.

        Answers "would this definition fit, and where would it land?"
        without executing anything or leaving allocations behind — the
        admission-control dry run an IT team wants before submitting.
        Raises the same SchedulerError/ConflictError a real submission
        would, with the offending module named.
        """
        template = self.compile(app, definition)
        objects = template.instantiate(app, tenant)
        resolution = template.resolution
        rows: List[Dict[str, Any]] = []
        try:
            for name, obj in sorted(objects.items()):
                if obj.is_data:
                    placement = self.scheduler.place_data(obj)
                    rows.append({
                        "module": name,
                        "kind": "data",
                        "devices": [a.device.device_id
                                    for a in placement.allocations],
                        "replicas": len(placement.allocations),
                        "anti_affinity_degraded":
                            placement.anti_affinity_degraded,
                        "hourly_cost": sum(a.hourly_cost
                                           for a in placement.allocations),
                    })
            placements = self.scheduler.place_tasks(objects, app, template)
            for name, placement in sorted(placements.items()):
                rows.append({
                    "module": name,
                    "kind": "task",
                    "devices": [placement.unit.compute.device.device_id]
                    + [a.device.device_id
                       for a in placement.unit.extra_compute],
                    "device_type": placement.device_type.value,
                    "amount": placement.amount,
                    "env": placement.unit.environment.kind.value,
                    "single_tenant":
                        placement.unit.environment.single_tenant,
                    "hourly_cost": placement.unit.hourly_cost(),
                    "conflicts_resolved": {
                        k: v.value
                        for k, v in resolution.resolved_levels.items()
                    },
                })
        finally:
            for obj in objects.values():
                for allocation in obj.allocations:
                    if not allocation.released:
                        self.datacenter.pool(
                            allocation.device_type).release(allocation)
        return rows

    def drain(self) -> List[RunResult]:
        """Run the clock to quiescence — every deferred arrival fires and
        every submission completes — then settle and report each.

        Submissions still in the admission queue when the clock drains
        (capacity never freed enough) are marked ``unplaceable`` and get
        an empty result rather than an exception: overload is an
        operational condition, not a crash.
        """
        self.sim.run()
        for submission in self._admission_queue:
            submission.status = "unplaceable"
            self.telemetry.event(
                self.sim.now, submission.dag.name, "admission-unplaceable",
                "capacity never freed before drain",
            )
            self.telemetry.event(
                self.sim.now, submission.dag.name, "shed",
                f"queued {self.sim.now - submission.queued_at:.3f}s, "
                f"dropped at drain",
            )
        self._admission_queue = []
        results = []
        for submission in list(self._open.values()):
            submission.result = self._collect(submission)
            results.append(submission.result)
        return results

    def collect(self, submission: Submission) -> RunResult:
        """Settle and report one finished submission without draining.

        The per-submission tail of :meth:`drain`: tears the submission
        down, settles its meters at the current clock, and builds its
        :class:`RunResult` — idempotent (an already-collected submission
        returns its existing result), and safe mid-run because it only
        touches the one submission's state.  A server that advances the
        clock in timed ticks uses this to finalize completions as they
        happen instead of waiting for quiescence.
        """
        if submission.result is None:
            if not submission.done and submission.status != "unplaceable":
                raise RuntimeError_(
                    f"submission {submission.dag.name!r} is not finished "
                    f"(status={submission.status!r}); collect() settles "
                    f"finished submissions only"
                )
            submission.result = self._collect(submission)
        return submission.result

    def _collect(self, submission: Submission) -> RunResult:
        del self._open[submission.seq]
        if not submission.persistent or submission.status == "unplaceable":
            self._holding.pop(submission.seq, None)
        if submission.status == "unplaceable":
            # Never deployed: an empty report that says so.
            return RunResult(app=submission.dag.name,
                             tenant=submission.tenant,
                             telemetry=self.telemetry)
        if submission.status == "running":
            submission.status = "done"
        end = submission.finished_at if submission.finished_at else self.sim.now
        makespan = end - submission.submitted_at
        self._teardown(submission)
        # The tasks are over: drop their execution state (processes,
        # exhausted generators, placements) instead of pinning it for as
        # long as the submission is referenced.  preempt() skips
        # submissions that are no longer running, so nothing reads it.
        submission.live_tasks = {}
        self._finalize_records(
            submission.records, submission.objects, submission.stores
        )
        return self._build_result(submission, makespan)

    # -- the per-task process ----------------------------------------------------

    def _breaker_admits(self, device) -> bool:
        return self.breakers.allows(device.device_id, self.sim.now)

    def _run_task(self, task_state: _LiveTask, submission: Submission,
                  checkpoint_store: Optional[CheckpointStore]):
        """The task's process: recover (after a failure) → wait-deps
        (before the first attempt) → attempt, until an attempt completes
        or the task is abandoned."""
        obj = task_state.obj
        dist = obj.aspects.distributed or DistributedAspect()
        completions = submission.completions
        # None once the task has started; all_of tolerates already-fired
        # members, so a failure mid-wait just waits again.
        deps = [completions[d] for d in task_state.upstream
                if d in completions]
        # What a crash blames: the placement the interrupted attempt ran
        # on, which moves only once a recovery completes.
        placement = task_state.placement
        progress = 0.0
        attempts = 0
        root_span = task_state.span = self.telemetry.span_start(
            self.sim.now, obj.name, "task", "lifecycle",
            tenant=obj.tenant, app=submission.dag.name,
        )
        if root_span is not NULL_SPAN:
            submission.spans.append(root_span)
        while True:
            try:
                if attempts:
                    # Inside the try: a failure DURING recovery (backoff,
                    # migration, restore) counts as another attempt.
                    progress = yield from self._recover(
                        task_state, submission, checkpoint_store, attempts)
                    if progress is None:
                        return None
                    placement = task_state.placement
                if deps is not None:
                    if deps:
                        span = self.telemetry.span_start(
                            self.sim.now, obj.name, "wait-deps", "schedule",
                            parent=root_span, deps=len(deps),
                        )
                        try:
                            yield self.sim.all_of(deps)
                        except Interrupt:
                            self.telemetry.span_end(span, self.sim.now,
                                                    status="interrupted")
                            raise
                        self.telemetry.span_end(span, self.sim.now)
                    deps = None
                    obj.record.started_at = self.sim.now
                    self._arm_deadline(task_state, dist)
                    self._arm_hedge(task_state, submission, dist)
                span = self.telemetry.span_start(
                    self.sim.now, obj.name, "attempt",
                    "execute" if attempts == 0 else "retry",
                    parent=root_span, attempt=attempts,
                )
                try:
                    yield from self._attempt(task_state, submission, placement,
                                             span, progress, checkpoint_store)
                except Interrupt:
                    self.telemetry.span_end(span, self.sim.now,
                                            status="interrupted")
                    raise
                self.telemetry.span_end(span, self.sim.now)
                break
            except Interrupt as interrupt:
                if self._stand_down(task_state, submission, interrupt.cause):
                    return None
                attempts += 1
                self._record_failure(obj, placement, interrupt.cause)
                limit = (dist.retry.max_attempts if dist.retry is not None
                         else self.max_recovery_attempts)
                if dist.recovery == RecoveryStrategy.NONE or attempts > limit:
                    self._finish_task(task_state, submission, None,
                                      winner="abandoned")
                    return None
        result = self._invoke_fn(task_state, submission)
        self._finish_task(task_state, submission, result, winner="primary",
                          placement=placement)
        return result

    def _stand_down(self, task_state: _LiveTask, submission: Submission,
                    cause) -> bool:
        """End the primary on an interrupt that is not a failure: a winning
        hedge, a preemption or a missed deadline.  False for a failure."""
        obj = task_state.obj
        if isinstance(cause, HedgeCancelled):
            # The hedge won and did all bookkeeping; just vanish.
            return True
        if isinstance(cause, Preempted):
            # UDCRuntime.preempt settled the meters, released the
            # allocations, and re-queued the whole submission; this
            # process just vanishes (like a losing hedge).  preempt()
            # closed the lifecycle span too, unless this process first
            # ran after the eviction and opened it since.
            self.telemetry.span_end(task_state.span, self.sim.now,
                                    status="preempted")
            self.telemetry.event(
                self.sim.now, obj.name, "preempted",
                f"capacity reclaimed for {cause.by_tenant}",
            )
            return True
        if isinstance(cause, DeadlineMiss):
            obj.record.deadline_missed = True
            self.telemetry.inc("udc_deadline_misses_total")
            self.telemetry.event(
                self.sim.now, obj.name, "deadline_miss",
                f"abandoned after {cause.deadline_s:g}s",
            )
            self._finish_task(task_state, submission, None,
                              winner="abandoned")
            return True
        return False

    def _record_failure(self, obj: UDCObject, placement: TaskPlacement,
                        cause, detail: str = "") -> None:
        """Count one failed attempt (``detail`` prefixes the cause in the
        ``failure`` event); a crash also counts against the breaker of
        the device the attempt ran on."""
        obj.record.failures += 1
        self.telemetry.inc("udc_failures_total")
        self.telemetry.event(self.sim.now, obj.name, "failure",
                             lambda: f"{detail}cause={cause}")
        if isinstance(cause, Failure) and cause.kind == "crash":
            device_id = placement.unit.compute.device.device_id
            if self.breakers.record_failure(device_id, self.sim.now):
                self.telemetry.event(self.sim.now, obj.name,
                                     "breaker_open", f"device {device_id}")

    def _recover(self, task_state: _LiveTask, submission: Submission,
                 checkpoint_store: Optional[CheckpointStore], attempts: int):
        """Back off, migrate off the failed device and restore the latest
        checkpoint.  Returns the progress to resume from, or None once
        the task is abandoned (no device to migrate to)."""
        obj = task_state.obj
        record = obj.record
        dist = obj.aspects.distributed or DistributedAspect()
        span = self.telemetry.span_start(
            self.sim.now, obj.name, "recover", "recover",
            parent=task_state.span, attempt=attempts,
        )
        try:
            if dist.retry is not None:
                # A per-module jitter stream: deterministic regardless of
                # how other modules' retries interleave.
                delay = dist.retry.backoff_s(
                    attempts, self.rng.stream(f"retry:{obj.name}"))
                if delay > 0:
                    record.backoff_s += delay
                    yield self.sim.timeout(delay)
            outcome = plan_recovery(dist.recovery or RecoveryStrategy.RERUN,
                                    obj.name, checkpoint_store)
            if not (yield from self._migrate(task_state, submission)):
                self.telemetry.span_end(span, self.sim.now, status="error")
                self._finish_task(task_state, submission, None,
                                  winner="abandoned")
                return None
            record.retries += 1
            self.telemetry.inc("udc_retries_total")
            backoff = record.backoff_s
            self.telemetry.event(
                self.sim.now, obj.name, "retry",
                lambda: f"attempt {attempts} backoff={backoff:.3f}s",
            )
            if outcome.checkpoint is not None:
                t0 = self.sim.now
                restored = yield from checkpoint_store.restore(
                    obj.name, task_state.placement.unit.location)
                record.checkpoint_s += self.sim.now - t0
                if restored is None:
                    # The backing storage device failed mid-run: degrade
                    # to re-execution from scratch rather than crash the
                    # recovery itself.
                    outcome = plan_recovery(RecoveryStrategy.RERUN,
                                            obj.name, None)
                    self.telemetry.event(
                        self.sim.now, obj.name, "restore-degraded",
                        "checkpoint device failed; rerunning from scratch",
                    )
        except Interrupt:
            self.telemetry.span_end(span, self.sim.now, status="interrupted")
            raise
        record.recovered_from_progress = outcome.resume_progress
        self.telemetry.span_end(span, self.sim.now)
        return outcome.resume_progress

    def _attempt(self, task_state: _LiveTask, submission: Submission,
                 placement: TaskPlacement, parent_span: Span,
                 progress: float = 0.0,
                 checkpoint_store: Optional[CheckpointStore] = None,
                 hedge: bool = False):
        """One execution on ``placement`` from ``progress``: env-acquire →
        transfer-in → execute (chunked compute) → transfer-out, each a
        child span of ``parent_span`` that an Interrupt closes
        ``interrupted``.

        Primary attempts and hedges share this body.  A ``hedge`` skips
        what belongs to the primary alone (attestation, utilization
        samples, tuner review, checkpoints — so it steps by
        ``TELEMETRY_CHUNK``) and returns False at the first chunk
        boundary after the task completed elsewhere.
        """
        obj = task_state.obj
        record = obj.record
        dist = obj.aspects.distributed or DistributedAspect()
        checkpointing = dist.checkpoint and not hedge
        env = placement.unit.environment
        device = placement.unit.compute.device
        sim = self.sim
        telemetry = self.telemetry
        span = None
        try:
            # -- environment startup (on demand; warm pools shortcut it)
            t0 = sim.now
            span = telemetry.span_start(
                t0, obj.name, "env-acquire", "env-acquire",
                parent=parent_span, env=env.kind.value,
                warm=env.from_warm_pool,
            )
            yield sim.timeout(env.startup_time())
            env.state = EnvState.RUNNING
            env.started_at = sim.now
            record.startup_s += sim.now - t0
            telemetry.span_end(span, sim.now)
            telemetry.observe("udc_env_startup_seconds", sim.now - t0)
            if not hedge:
                self._attest(obj, placement)

            t0 = sim.now
            span = telemetry.span_start(t0, obj.name, "transfer-in",
                                        "execute", parent=parent_span)
            yield from self._pull_inputs(obj, placement, submission)
            record.transfer_s += sim.now - t0
            telemetry.span_end(span, sim.now)

            # Chunk compute even without checkpointing: the tuner needs
            # mid-run samples to act on (§3.2).
            wall_full = self._wall_time(obj, placement)
            chunk = (dist.checkpoint_interval if checkpointing
                     else TELEMETRY_CHUNK)
            span = telemetry.span_start(sim.now, obj.name, "execute",
                                        "execute", parent=parent_span,
                                        device=device.device_id)
            while progress < 1.0 - 1e-12:
                step = min(chunk, 1.0 - progress)
                t0 = sim.now
                # A straggler device stretches each chunk by its current
                # slow factor (gray failure — no interrupt).
                yield sim.timeout(wall_full * step * device.slow_factor)
                record.compute_s += sim.now - t0
                progress += step
                if hedge:
                    if task_state.completion.triggered:
                        telemetry.span_end(span, sim.now, status="cancelled")
                        return False
                    continue
                self._sample_utilization(obj, placement)
                self.tuner.review_allocation(obj.name, placement.unit.compute,
                                             task_state.declared_amount)
                if checkpointing and checkpoint_store is not None \
                        and progress < 1.0 - 1e-12:
                    t0 = sim.now
                    yield from checkpoint_store.checkpoint(
                        obj.name, placement.unit.location, progress,
                        obj.module.state_bytes,
                    )
                    record.checkpoint_s += sim.now - t0
                    record.checkpoints_taken += 1
            telemetry.span_end(span, sim.now)

            t0 = sim.now
            span = telemetry.span_start(t0, obj.name, "transfer-out",
                                        "execute", parent=parent_span)
            yield from self._push_outputs(obj, placement, submission)
            record.transfer_s += sim.now - t0
            telemetry.span_end(span, sim.now)
        except Interrupt:
            telemetry.span_end(span, sim.now, status="interrupted")
            raise
        return True

    def _wall_time(self, obj: UDCObject, placement: TaskPlacement) -> float:
        """Seconds the whole task computes on ``placement``: native
        execution time stretched by the environment's overhead."""
        native = obj.module.execution_seconds(
            placement.device_type, placement.unit.effective_compute_amount,
            placement.compute_rate,
        )
        return placement.unit.environment.compute_time(native)

    def _invoke_fn(self, task_state: _LiveTask, submission: Submission):
        obj = task_state.obj
        task: TaskModule = obj.module
        if task.fn is None:
            return None
        context = {"input": submission.inputs.get(obj.name)}
        for dep in task_state.upstream:
            context[dep] = submission.outputs.get(dep)
        try:
            return task.fn(context)
        except Exception as exc:  # noqa: BLE001 - user code must not
            # wedge the control plane; the error is surfaced in the
            # report and the module completes with no output.
            self.telemetry.event(
                self.sim.now, obj.name, "fn-error", repr(exc)
            )
            return None

    def _finish_task(
        self,
        task_state: _LiveTask,
        submission: Submission,
        result,
        winner: str,
        placement: Optional[TaskPlacement] = None,
    ) -> bool:
        """Single completion point for a task: first caller wins.

        ``winner`` is ``"primary"``, ``"hedge"``, or ``"abandoned"``;
        ``placement`` is where a winning attempt ran.  Releases every
        allocation (primary + hedge + standbys), fires the completion
        event exactly once, and cancels the losing sibling attempt.
        Returns False when someone else already finished.
        """
        completion = task_state.completion
        if completion.triggered:
            return False
        obj = task_state.obj
        record = obj.record
        record.result = result
        record.finished_at = self.sim.now
        if winner in ("primary", "hedge"):
            record.winner = winner
            submission.outputs[obj.name] = result
            self.breakers.record_success(
                placement.unit.compute.device.device_id, self.sim.now
            )
        if winner == "hedge":
            record.hedge_won = True
            self.telemetry.inc("udc_hedge_wins_total")
            self.telemetry.event(
                self.sim.now, obj.name, "hedge-win",
                f"hedge on {placement.unit.compute.device.device_id} "
                f"beat the primary",
            )
        elif winner == "primary" and task_state.hedge_process is not None:
            # A live duplicate lost the race (crashed hedges already
            # counted their loss when they released their allocation).
            self.telemetry.inc("udc_hedge_losses_total")
        if self.telemetry.enabled:
            self.telemetry.span_end(
                task_state.span, self.sim.now,
                status="ok" if winner in ("primary", "hedge")
                else "abandoned",
            )
            if winner != "abandoned":
                self.telemetry.observe(
                    "udc_task_wall_seconds",
                    self.sim.now - record.started_at,
                )
        self._release_task(submission, obj)
        completion.succeed(result)
        loser = (task_state.process if winner == "hedge"
                 else task_state.hedge_process)
        if loser is not None and loser.is_alive:
            loser.interrupt(HedgeCancelled(obj.name, winner))
        return True

    # -- deadlines and hedging ---------------------------------------------

    def _arm_deadline(self, task_state: _LiveTask, dist: DistributedAspect) -> None:
        """Schedule abandonment at the module's deadline (from task start)."""
        if dist.deadline_s is None:
            return
        obj = task_state.obj
        deadline_s = dist.deadline_s

        def fire():
            if task_state.completion.triggered or task_state.preempted:
                return
            for process in (task_state.process, task_state.hedge_process):
                if process is not None and process.is_alive:
                    process.interrupt(DeadlineMiss(obj.name, deadline_s))

        self.sim.call_at(self.sim.now + deadline_s, fire)

    def _arm_hedge(
        self, task_state: _LiveTask, submission: Submission,
        dist: DistributedAspect,
    ) -> None:
        """Start the hedge monitor when the aspect declares a HedgePolicy."""
        if dist.hedge is None:
            return
        obj = task_state.obj
        placement = task_state.placement
        expected_wall = (placement.unit.environment.startup_time()
                         + self._wall_time(obj, placement))
        delay = dist.hedge.trigger_delay_s(expected_wall)
        self.sim.process(
            self._hedge_monitor(task_state, submission, delay, dist.hedge),
            name=f"hedge-monitor:{obj.tenant}:{obj.name}",
        )

    def _hedge_monitor(self, task_state: _LiveTask, submission: Submission,
                       delay: float, policy) -> object:
        """Wait for the trigger point; if the task is still running,
        launch a speculative duplicate.  Re-hedges (up to ``max_hedges``)
        only if an earlier hedge died without finishing."""
        for _ in range(policy.max_hedges):
            yield self.sim.timeout(delay)
            if task_state.completion.triggered or task_state.preempted:
                return
            if task_state.hedge_process is not None \
                    and task_state.hedge_process.is_alive:
                return
            if not self._launch_hedge(task_state, submission):
                return

    def _launch_hedge(
        self, task_state: _LiveTask, submission: Submission
    ) -> bool:
        obj = task_state.obj
        placement = task_state.placement
        pool = self.datacenter.pool(placement.device_type)
        primary_device = placement.unit.compute.device
        amount = placement.unit.compute.amount
        single = placement.unit.environment.single_tenant

        def usable(device, require_healthy_speed):
            return (
                device is not primary_device
                and device.can_fit(amount, obj.tenant, single)
                and self._breaker_admits(device)
                and (not require_healthy_speed or device.slow_factor == 1.0)
            )

        # Prefer a full-speed device — hedging onto another straggler
        # defeats the point — but degrade to any fitting device.
        ordered = pool.devices_by_seq()
        candidate = next(
            (d for d in ordered if usable(d, True)), None
        ) or next(
            (d for d in ordered if usable(d, False)), None
        )
        if candidate is None:
            self.telemetry.event(
                self.sim.now, obj.name, "hedge-degraded",
                "no device available for a speculative duplicate",
            )
            return False
        try:
            alloc = pool.allocate(
                amount, obj.tenant, single_tenant=single, device=candidate
            )
        except AllocationError:
            return False
        self._track(submission, alloc)
        obj.allocations.append(alloc)
        hedge_placement = self._rebind(placement, alloc)
        obj.record.hedges += 1
        self.telemetry.inc("udc_hedges_total")
        self.telemetry.event(
            self.sim.now, obj.name, "hedge",
            lambda: f"duplicate -> {candidate.device_id}",
        )
        process = self.sim.process(
            self._hedge_attempt(task_state, submission, hedge_placement),
            name=f"hedge:{obj.tenant}:{obj.name}",
        )
        task_state.hedge_process = process
        # Join a failure domain covering the hedge device, if one exists,
        # so a crash there interrupts the hedge like any other process.
        for domain in self.injector.domains.values():
            if candidate in domain.devices:
                domain.register_process(process)
                break
        return True

    def _hedge_attempt(
        self,
        task_state: _LiveTask,
        submission: Submission,
        placement: TaskPlacement,
    ):
        """The speculative duplicate: the same attempt, different device.

        First finisher (this or the primary) wins via
        :meth:`_finish_task`; the loser is interrupted with
        :class:`HedgeCancelled`.  A hedge never retries — it IS the
        retry."""
        obj = task_state.obj
        hedge_span = self.telemetry.span_start(
            self.sim.now, obj.name, "hedge", "hedge",
            parent=task_state.span,
            device=placement.unit.compute.device.device_id,
        )
        try:
            finished = yield from self._attempt(
                task_state, submission, placement, hedge_span, hedge=True
            )
        except Interrupt as interrupt:
            cause = interrupt.cause
            if not (isinstance(cause, Failure) and cause.kind == "crash"):
                # HedgeCancelled / DeadlineMiss: the winner (or the
                # deadline handler) releases everything.
                finished = False
            else:
                # The hedge's device crashed under it: give back its
                # allocation and let the monitor decide whether to
                # re-hedge.  The primary is unaffected.
                self.telemetry.span_end(hedge_span, self.sim.now,
                                        status="error")
                self._record_failure(obj, placement, cause,
                                     "hedge attempt lost: ")
                self.telemetry.inc("udc_hedge_losses_total")
                alloc = placement.unit.compute
                if not alloc.released:
                    self._settle(alloc)
                    self.datacenter.pool(alloc.device_type).release(alloc)
                if alloc in obj.allocations:
                    obj.allocations.remove(alloc)
                task_state.hedge_process = None
                return None
        if not finished:
            self.telemetry.span_end(hedge_span, self.sim.now,
                                    status="cancelled")
            return None
        result = self._invoke_fn(task_state, submission)
        self.telemetry.span_end(hedge_span, self.sim.now)
        self._finish_task(task_state, submission, result, winner="hedge",
                          placement=placement)
        return result

    def _pull_inputs(self, obj, placement, submission):
        """Transfer every incoming edge's bytes to the task's location,
        paying data-protection costs declared by the *source*."""
        my_location = placement.unit.location
        stores = submission.stores
        for edge in submission.dag.edges:
            if edge.dst != obj.name or edge.bytes_transferred <= 0:
                continue
            source = submission.objects.get(edge.src)
            if source is None:
                continue
            protection = self._protection_of(source)
            if source.is_data and edge.src in stores:
                yield self.sim.process(
                    stores[edge.src].bulk_read(my_location, edge.bytes_transferred)
                )
            elif source.location is not None:
                yield self.datacenter.fabric.send(
                    source.location, my_location, edge.bytes_transferred
                )
            if protection.any_enabled:
                cost = protection.cpu_seconds(edge.bytes_transferred)
                yield self.sim.timeout(cost)
                obj.record.protection_s += cost

    def _push_outputs(self, obj, placement, submission):
        """Write every outgoing task→data edge through the data module's
        store protocol, paying this task's protection costs on egress."""
        my_location = placement.unit.location
        protection = self._protection_of(obj)
        stores = submission.stores
        for edge in submission.dag.edges:
            if edge.src != obj.name or edge.bytes_transferred <= 0:
                continue
            if protection.any_enabled:
                cost = protection.cpu_seconds(edge.bytes_transferred)
                yield self.sim.timeout(cost)
                obj.record.protection_s += cost
            if edge.dst in stores:
                yield self.sim.process(
                    stores[edge.dst].bulk_write(
                        my_location, edge.bytes_transferred, tag=obj.name
                    )
                )
            # task→task transfers are paid by the consumer's pull.

    def _protection_of(self, obj: UDCObject) -> ProtectionPolicy:
        if obj.aspects.execenv is None:
            return ProtectionPolicy()
        return obj.aspects.execenv.protection

    def _sample_utilization(self, obj: UDCObject, placement: TaskPlacement) -> None:
        task: TaskModule = obj.module
        allocated = placement.unit.total_compute_amount
        usable = task.usable_amount(allocated)
        self.telemetry.sample(
            self.sim.now, obj.name,
            compute_utilization=usable / allocated if allocated else 0.0,
            allocated_amount=allocated,
        )

    def _migrate(self, task_state: _LiveTask, submission: Submission):
        """Rebuild the task's unit on a healthy device after a failure."""
        obj = task_state.obj
        old_placement = task_state.placement
        failed_compute = old_placement.unit.compute
        # Prefer a hot standby (task replication) over fresh allocation.
        replacement = next(
            (
                a for a in obj.allocations
                if a is not failed_compute
                and not a.released
                and a.device_type == failed_compute.device_type
                and not a.device.failed
            ),
            None,
        )
        if replacement is not None:
            self.datacenter.pool(failed_compute.device_type).release(failed_compute)
            self._settle(failed_compute)
            self.telemetry.event(
                self.sim.now, obj.name, "failover-standby",
                lambda: f"-> {replacement.device.device_id}",
            )
        else:
            replacement = self.tuner.migrate(
                obj.name, failed_compute, obj.tenant
            )
            if replacement is not None:
                # tuner.migrate released the old allocation internally.
                self._settle(failed_compute)
                self._track(submission, replacement)
                obj.allocations.append(replacement)
        if replacement is None:
            return False
        obj.record.migrations += 1
        task_state.placement = self._rebind(old_placement, replacement)
        obj.environment = task_state.placement.unit.environment
        # Cold-start the new environment (charged in the retry attempt).
        self.telemetry.event(
            self.sim.now, obj.name, "migrate",
            lambda: f"-> {replacement.device.device_id}",
        )
        yield self.sim.timeout(0)  # keep this a generator
        return True

    def _rebind(self, placement: TaskPlacement, compute) -> TaskPlacement:
        """``placement`` with its unit rebuilt around the ``compute``
        allocation: same memory, environment kind and tenancy."""
        unit = placement.unit
        return TaskPlacement(
            obj=placement.obj,
            device_type=placement.device_type,
            amount=compute.amount,
            unit=self.bundles.assemble(
                compute=compute,
                memory=unit.memory,
                env_kind=unit.environment.kind,
                tenant=placement.obj.tenant,
                single_tenant=unit.environment.single_tenant,
            ),
            compute_rate=compute.device.spec.compute_rate,
        )

    def _on_domain_failure(self, failure, domain) -> None:
        """Failure listener: re-replicate any store that lost replicas.

        Task recovery is handled by the interrupted task processes
        themselves; data availability is the provider's job (§3.4), so it
        happens here, immediately, out of the tenant's critical path.
        """
        from repro.distsem.replication import ReplicaPlacer

        if failure.kind != "crash":
            # Gray failures (stragglers, partitions, warm-pool outages)
            # degrade timing but lose no replicas; the resilience
            # policies — not store healing — absorb them.
            return
        for submission in self._holding.values():
            for name, store in submission.stores.items():
                if not any(r.device.failed for r in store.replicas):
                    continue
                if not store.live_replicas():
                    self.telemetry.event(
                        self.sim.now, name, "data-loss",
                        f"all replicas lost in {failure.domain}",
                    )
                    continue
                pool = self.datacenter.pool(
                    store.placement.allocations[0].device_type
                )
                before = list(store.placement.allocations)
                try:
                    rebuilt = store.heal(ReplicaPlacer(pool))
                except Exception as exc:  # noqa: BLE001 - degraded, not fatal
                    self.telemetry.event(
                        self.sim.now, name, "heal-failed", repr(exc)
                    )
                    continue
                if rebuilt:
                    # Rebill: dead replicas' meters close, replacements
                    # start, and the OWNING submission's object follows
                    # (a store attached by other submissions is still
                    # owned — and billed — by its creator).
                    after = list(store.placement.allocations)
                    owner = self._owner_of.get(
                        before[0].alloc_id, submission
                    )
                    obj = owner.objects.get(name, submission.objects[name])
                    for old in before:
                        if old not in after:
                            self._settle(old)
                            pool.release(old)
                            if old in obj.allocations:
                                obj.allocations.remove(old)
                    for new in after:
                        if new not in before:
                            self._track(owner, new)
                            obj.allocations.append(new)
                    self.telemetry.event(
                        self.sim.now, name, "heal",
                        f"re-replicated {rebuilt} replica(s) after "
                        f"{failure.domain}",
                    )

    # ------------------------------------------------------------- attestation

    def _attest(self, obj: UDCObject, placement: TaskPlacement) -> None:
        env = obj.environment
        device = placement.unit.compute.device
        if env is None or not env.profile.attestable or not device.spec.attestable:
            return
        measurement = Measurement(
            env_kind=env.kind.value,
            code_hash=obj.module.code_hash,
            tenant=obj.tenant,
            single_tenant=env.single_tenant,
            device_model=device.spec.model,
        )
        env.measurement = measurement
        obj.quote = self.root_of_trust.quote(device, measurement)

    def _apply_dishonesty(
        self, objects: Dict[str, UDCObject], dishonest_env: Dict[str, EnvKind]
    ) -> None:
        """Swap what actually launches; claims keep stating the promise."""
        for name, actual_kind in dishonest_env.items():
            obj = objects.get(name)
            if obj is None or obj.environment is None:
                continue
            obj.environment.profile = ENV_PROFILES[actual_kind]

    # ----------------------------------------------------------------- accounting

    def _make_checkpoint_store(self) -> Optional[CheckpointStore]:
        for device_type in (DeviceType.SSD, DeviceType.NVM, DeviceType.HDD):
            if device_type in self.datacenter.pools:
                pool = self.datacenter.pool(device_type)
                for device in pool.devices:
                    if not device.failed:
                        return CheckpointStore(
                            self.sim, self.datacenter.fabric, device
                        )
        return None

    def _settle(self, allocation) -> None:
        """Close an allocation's meter on its owner's ledger."""
        submission = self._owner_of.pop(allocation.alloc_id, None)
        if submission is None:
            return
        for index, (alloc, acquired_at) in enumerate(submission.cost_ledger):
            if alloc is allocation:
                hours = (self.sim.now - acquired_at) / 3600.0
                submission.settled_cost += alloc.hourly_cost * hours
                submission.cost_ledger.pop(index)
                return

    def _release_task(self, submission: Submission, obj: UDCObject) -> None:
        released_any = False
        for allocation in obj.allocations:
            if allocation.released:
                continue
            self._settle(allocation)
            self.datacenter.pool(allocation.device_type).release(allocation)
            released_any = True
        if released_any:
            self._schedule_admission_retry()

    def _teardown(self, submission: Submission) -> None:
        for obj in submission.objects.values():
            if submission.persistent and obj.is_data:
                continue  # standing state survives until decommission
            self._release_task(submission, obj)

    def decommission(self, submission: Submission) -> float:
        """Release a persistent submission's standing data allocations.

        Returns the additional cost settled at decommission time.  The
        submission's ``result`` (if already collected) is updated with
        the final bill.
        """
        before = submission.settled_cost
        self._holding.pop(submission.seq, None)
        for obj in submission.objects.values():
            self._release_task(submission, obj)
        delta = submission.settled_cost - before
        if submission.result is not None:
            submission.result.total_cost = submission.settled_cost
        return delta

    # ------------------------------------------------------------------- reporting

    def metrics_snapshot(self) -> MetricsRegistry:
        """The run's metrics registry with collector-style gauges refreshed.

        Counters and histograms are maintained incrementally as the run
        executes; pool-capacity/utilization, warm-pool hit-rate, and
        open-breaker gauges are collected here, at snapshot time, so the
        allocate/release hot path never touches the registry.
        """
        registry = self.telemetry.metrics
        self.datacenter.pools.collect_metrics(registry)
        registry.gauge("udc_warm_pool_hit_rate").set(
            self.warm_pool.stats.hit_rate
        )
        registry.gauge("udc_breakers_open").set(
            float(len(self.breakers.open_keys(self.sim.now)))
        )
        return registry

    def _initial_records(
        self,
        objects: Dict[str, UDCObject],
        placements: Dict[str, TaskPlacement],
        dishonest_env: Dict[str, EnvKind],
    ) -> Dict[str, FulfillmentRecord]:
        records: Dict[str, FulfillmentRecord] = {}
        for name, obj in objects.items():
            record = FulfillmentRecord(module=name)
            if name in placements:
                placement = placements[name]
                record.device_type = placement.device_type.value
                record.amount = placement.amount
                env = obj.environment
                promised_kind = (
                    obj.aspects.execenv.env_kind
                    if obj.aspects.execenv and obj.aspects.execenv.env_kind
                    else None
                )
                # A dishonest provider *claims* the promise; an honest one
                # claims what it launched.
                if name in dishonest_env and promised_kind is not None:
                    record.env_kind = promised_kind.value
                else:
                    record.env_kind = env.kind.value if env else None
                record.single_tenant = env.single_tenant if env else False
                if env is not None:
                    record.isolation = env.effective_isolation.value
                record.device = placement.unit.compute.device
            execenv = obj.aspects.execenv
            if execenv is not None:
                record.protections = [
                    flag
                    for flag, enabled in (
                        ("encrypt", execenv.protection.encrypt),
                        ("integrity", execenv.protection.integrity),
                        ("replay", execenv.protection.replay_protect),
                    )
                    if enabled
                ]
            records[name] = record
        return records

    def _finalize_records(
        self,
        records: Dict[str, FulfillmentRecord],
        objects: Dict[str, UDCObject],
        stores: Dict[str, ReplicatedStore],
    ) -> None:
        for name, store in stores.items():
            record = records[name]
            record.replication_factor = len(store.replicas)
            record.consistency = store.consistency.value
            obj = objects[name]
            if obj.primary_allocation is not None:
                record.device_type = obj.primary_allocation.device_type.value
                record.amount = obj.primary_allocation.amount
            record.quote = obj.quote
        for name, obj in objects.items():
            if obj.is_task:
                records[name].quote = obj.quote

    def _build_result(self, submission: Submission, makespan: float) -> RunResult:
        objects = submission.objects
        records = submission.records
        result = RunResult(
            app=submission.dag.name,
            tenant=submission.tenant,
            makespan_s=makespan,
            objects=objects,
            records=records,
            telemetry=self.telemetry,
            conflicts=submission.resolution,
            outputs=submission.outputs,
            fabric_messages=self.datacenter.fabric.stats.messages,
            fabric_bytes=self.datacenter.fabric.stats.bytes_total,
            warm_hits=self.warm_pool.stats.hits,
            warm_misses=self.warm_pool.stats.misses,
        )
        if self.telemetry.enabled:
            result.metrics_capture = self.metrics_snapshot().capture()
        total_cost = submission.settled_cost
        # Persistent submissions still have live meters: report the bill
        # accrued so far (decommission finalizes it).
        for allocation, acquired_at in submission.cost_ledger:
            hours = max(self.sim.now - acquired_at, 0.0) / 3600.0
            total_cost += allocation.hourly_cost * hours
        for name in sorted(objects):
            obj = objects[name]
            record = records[name]
            env = obj.environment
            cost = self._module_cost(obj)
            row = ModuleRow(
                name=name,
                kind="task" if obj.is_task else "data",
                device=record.device_type or "-",
                amount=f"{record.amount:g}" if record.amount else "-",
                env=record.env_kind or "-",
                single_tenant=record.single_tenant,
                replication=record.replication_factor or 1,
                consistency=record.consistency or "-",
                wall_s=obj.record.wall_s if obj.is_task else 0.0,
                startup_s=obj.record.startup_s,
                compute_s=obj.record.compute_s,
                transfer_s=obj.record.transfer_s,
                protection_s=obj.record.protection_s,
                checkpoint_s=obj.record.checkpoint_s,
                failures=obj.record.failures,
                cost=cost,
                retries=obj.record.retries,
                hedges=obj.record.hedges,
                hedge_won=obj.record.hedge_won,
                deadline_missed=obj.record.deadline_missed,
            )
            result.rows.append(row)
        result.total_cost = total_cost
        return result

    def _module_cost(self, obj: UDCObject) -> float:
        """Approximate per-module cost from its allocations' hold times."""
        cost = 0.0
        for allocation in obj.allocations:
            end = obj.record.finished_at if obj.is_task else self.sim.now
            if end <= allocation.created_at:
                end = self.sim.now
            hours = max(end - allocation.created_at, 0.0) / 3600.0
            cost += allocation.hourly_cost * hours
        return cost
