"""Placement scheduler (paper §3.2).

*"Our runtime scheduler would use the user-supplied resource aspect,
execution environment aspect, and locality information from the
application semantic aspect to decide the location(s) to execute a module
and initialize it with the resource amount as user specified."*

Decisions, in order:

1. **Device type** — explicit aspect device wins; otherwise the goal
   picks among the developer's candidates: FASTEST maximizes effective
   compute rate, CHEAPEST minimizes cost-per-work (`price / rate`).
2. **Amount** — the aspect's amount (defaulting to one unit).
3. **Location** — co-location groups are hard constraints (all members on
   one device); otherwise the scheduler scores candidate racks by the
   fabric cost of moving the module's inputs (affinity hints + incoming
   edge bytes) and picks the cheapest.  Locality can be disabled for the
   E6 ablation.
4. **Environment** — the concrete env kind if named, else the provider's
   pick for the requested isolation tier on the chosen device type.
5. **Memory** — `mem_gb` from the DRAM pool, same rack when possible.

The static half of decisions 1, 3 and 4 — candidate types in goal
order, environment kind per type, groups and locality inputs — is
compiled once per app shape into the submission's
:class:`~repro.core.template.AppTemplate`; placement decides only what
depends on live capacity.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.appmodel.dag import DagValidationError, ModuleDAG
from repro.appmodel.module import DataModule
from repro.core.aspects import ResourceAspect, ResourceGoal
from repro.core.bundle import BundleManager, ResourceUnit
from repro.core.objects import UDCObject
from repro.core.observability import NULL_SPAN, Span
from repro.core.telemetry import Telemetry
from repro.core.template import (AppTemplate, AppView, CellPlan, DeviceChoice,
                                 EnvChoice)
from repro.distsem.replication import PlacementResult, ReplicaPlacer, ReplicationPolicy
from repro.execenv.environments import EnvKind
from repro.hardware.devices import Device, DeviceType
from repro.hardware.fabric import Location
from repro.hardware.pools import Allocation, AllocationError
from repro.hardware.topology import Datacenter

__all__ = ["SchedulerError", "TaskPlacement", "UdcScheduler"]

#: media fallback order for data with no explicit pin: hot data prefers
#: memory-class, cold data prefers cheap storage.
HOT_MEDIA_ORDER = [DeviceType.DRAM, DeviceType.NVM, DeviceType.SSD, DeviceType.HDD]
COLD_MEDIA_ORDER = [DeviceType.HDD, DeviceType.SSD, DeviceType.NVM, DeviceType.DRAM]


class SchedulerError(Exception):
    """Raised when a module cannot be placed as specified."""

    #: the rolled-back submission, when raised out of ``UDCRuntime.submit``
    submission = None


@dataclass
class TaskPlacement:
    """Everything the runtime needs to execute one task object."""

    obj: UDCObject
    device_type: DeviceType
    amount: float
    unit: ResourceUnit
    compute_rate: float


class _BatchCache:
    """Round-scoped memos for :meth:`UdcScheduler.batch_round`.

    Everything cached here is a pure function of inputs that cannot
    change while a round is open: the simulation clock does not advance
    between placements (no execution, failures, or partitions), so
    fabric transfer times and the resulting argmin rack choices are
    frozen.  (DAG structure is frozen for good: it lives in each
    submission's :class:`~repro.core.template.AppTemplate`.)  Serial
    submissions interleave with execution, where none of this holds —
    which is why these memos only exist inside a round.
    """

    __slots__ = ("transfers", "locations")

    def __init__(self):
        #: (src, dst, size_bytes) -> seconds
        self.transfers: Dict[Tuple[Location, Location, int], float] = {}
        #: (pulls tuple, candidate-racks tuple) -> argmin rack
        self.locations: Dict[Tuple, Location] = {}


class UdcScheduler:
    """Places UDC objects onto a disaggregated datacenter."""

    def __init__(
        self,
        datacenter: Datacenter,
        bundles: BundleManager,
        telemetry: Optional[Telemetry] = None,
        use_locality: bool = True,
        breakers=None,
    ):
        self.datacenter = datacenter
        self.bundles = bundles
        self.telemetry = telemetry or Telemetry()
        self.use_locality = use_locality
        #: CircuitBreakerRegistry (or None): devices with open breakers
        #: are skipped during explicit device picks (standbys, groups);
        #: pool auto-placement consults it via pool.admission_filter.
        self.breakers = breakers
        #: placement-cell label (set by the sharded serving layer): when
        #: not None, placement counters and batch-round latency carry a
        #: ``cell`` label.  None keeps label sets byte-identical to the
        #: unsharded output.
        self.cell_label: Optional[str] = None
        #: round-robin cursor for locality-oblivious spreading
        self._rr_rack = 0
        #: inside a batch round: per-placement spans and wall-clock
        #: observations coalesce into one round-level record
        self._in_batch = False
        #: round-scoped pure-input memos; non-None only inside batch_round
        self._batch: Optional[_BatchCache] = None

    def _metric_labels(self, **base) -> Optional[Dict[str, str]]:
        """Metric labels with the cell label merged in when sharded.

        Only called on telemetry-enabled paths; with telemetry disabled
        the ``inc``/``observe`` guards fire first, so the disabled hot
        path never builds a dict here.
        """
        if self.cell_label is not None:
            base["cell"] = self.cell_label
        return base or None

    def _breaker_allows(self, device: Device) -> bool:
        if self.breakers is None:
            return True
        return self.breakers.allows(device.device_id, self._now())

    def _span_start(self, *args, **kwargs) -> Span:
        """Per-placement span, suppressed inside a batch round (the round
        span stands in for them; placement *decisions* are unaffected)."""
        if self._in_batch:
            return NULL_SPAN
        return self.telemetry.span_start(*args, **kwargs)

    def _track_placement(self) -> bool:
        """Whether to emit per-placement latency/span telemetry."""
        return self.telemetry.enabled and not self._in_batch

    # -- batched placement ----------------------------------------------------

    @contextmanager
    def batch_round(self, size_hint: int = 0):
        """Amortize placement telemetry over one scheduling round.

        Placements made inside the context take exactly the same
        decisions as serial calls (same pool state transitions, same
        aspect inputs), but per-placement ``schedule``/``allocate`` spans
        and wall-clock histogram samples are replaced by a single
        ``place-batch`` span and one latency observation for the whole
        round — the control-plane cost is paid once, not per app.

        The round also installs a :class:`_BatchCache`: because the clock
        is frozen for the whole round, fabric transfer times and locality
        argmins are pure and memoized across the round's placements.
        Cached values reproduce the serial computation bit-for-bit (same
        scan order, same float summation order, same argmin tie-breaks),
        so decisions stay byte-identical.
        """
        if self._in_batch:  # nesting is a no-op: the outer round owns it
            yield
            return
        enabled = self.telemetry.enabled
        t_wall = time.perf_counter() if enabled else 0.0
        span = self.telemetry.span_start(
            self._now(), "scheduler", "place-batch", "schedule",
            batch=size_hint,
        )
        self._in_batch = True
        self._batch = _BatchCache()
        try:
            yield
        finally:
            self._in_batch = False
            self._batch = None
            if enabled:
                self.telemetry.span_end(span, self._now())
                self.telemetry.observe("udc_placement_latency_seconds",
                                       time.perf_counter() - t_wall,
                                       labels=self._metric_labels())

    # -- data placement -------------------------------------------------------

    def place_data(self, obj: UDCObject) -> PlacementResult:
        """Allocate replicas for a data object per its aspects."""
        assert isinstance(obj.module, DataModule)
        aspect = obj.aspects.resource or ResourceAspect()
        dist = obj.aspects.distributed
        policy = (dist.replication if dist and dist.replication
                  else ReplicationPolicy(factor=1))
        size = obj.module.size_gb

        media_order: List[DeviceType]
        if aspect.media is not None:
            media_order = [aspect.media]
        elif obj.module.hot:
            media_order = HOT_MEDIA_ORDER
        else:
            media_order = COLD_MEDIA_ORDER

        last_error: Optional[Exception] = None
        t_wall = time.perf_counter() if self._track_placement() else 0.0
        for media in media_order:
            if media not in self.datacenter.pools:
                continue
            pool = self.datacenter.pool(media)
            if pool.total_free < size * policy.factor:
                continue
            placer = ReplicaPlacer(pool)
            try:
                result = placer.place(size, obj.tenant, policy)
            except AllocationError as exc:
                last_error = exc
                continue
            obj.allocations.extend(result.allocations)
            if self.telemetry.enabled:
                self.telemetry.inc("udc_placements_total",
                                   labels=self._metric_labels(kind="data"))
            if self._track_placement():
                # Structured replacement for the old "place-data" event:
                # one zero-sim-duration allocate span carrying the decision.
                span = self.telemetry.span_start(
                    self._now(), obj.name, "place-data", "allocate",
                    media=media.value, replicas=policy.factor,
                    size_gb=size,
                    devices=[a.device.device_id
                             for a in result.allocations],
                )
                self.telemetry.span_end(span, self._now())
                self.telemetry.observe("udc_placement_latency_seconds",
                                       time.perf_counter() - t_wall,
                                       labels=self._metric_labels())
            return result
        raise SchedulerError(
            f"data module {obj.name}: no medium can hold "
            f"{policy.factor} x {size:g} GB "
            f"(tried {[m.value for m in media_order]}; last: {last_error})"
        )

    # -- task placement ---------------------------------------------------------

    def place_tasks(
        self, objects: Dict[str, UDCObject], dag: ModuleDAG,
        template: Optional[AppTemplate] = None,
    ) -> Dict[str, TaskPlacement]:
        """Place every task object, honoring co-location groups.

        ``template`` is the submission's compiled
        :class:`~repro.core.template.AppTemplate`; without one, the
        objects' own aspects are compiled for this call.
        """
        if template is None:
            template = AppTemplate.of_objects(dag, objects)
        view = template.view
        plan = template.cell_plan(self.datacenter)
        placements: Dict[str, TaskPlacement] = {}
        for members, choice in plan.groups:
            placements.update(self._place_group(
                [objects[name] for name in members], objects, view, plan,
                choice,
            ))
        if view.stages is None:
            raise DagValidationError(f"app {dag.name!r} has a task cycle")
        grouped = view.grouped
        for stage in view.stages:
            for name in stage:
                if name in grouped or name not in objects:
                    continue
                obj = objects[name]
                if obj.is_task:
                    placements[name] = self._place_single(obj, objects,
                                                          view, plan)
        return placements

    def choose_device_type(self, choice: DeviceChoice) -> DeviceType:
        """The first of ``choice``'s goal-ordered candidate types whose
        pool can host its shard right now, else the most preferred one
        (so a capacity error names the preferred type)."""
        if choice.error is not None:
            raise SchedulerError(choice.error)
        options = choice.options
        if len(options) > 1:
            pool = self.datacenter.pool
            for device_type, shard in options:
                # Any live device with enough free space <=> the pool's
                # max free clears the shard — O(1) off the free index.
                if pool(device_type).max_free() + 1e-9 >= shard:
                    return device_type
        return options[0][0]

    @staticmethod
    def resolve_env(envs: Dict[DeviceType, EnvChoice],
                    device_type: DeviceType) -> Tuple[EnvKind, bool]:
        """``(env kind, single tenant)`` for a task on ``device_type``."""
        env = envs[device_type]
        if isinstance(env, str):
            raise SchedulerError(env)
        return env

    def _preferred_location(
        self,
        name: str,
        objects: Dict[str, UDCObject],
        view: AppView,
        device_type: DeviceType,
    ) -> Optional[Location]:
        """Pick the rack minimizing input-transfer cost (locality, E6).

        With locality disabled, placement models what coarse cluster
        schedulers actually do: round-robin across racks for load balance,
        oblivious to where the module's data lives.
        """
        if not self.use_locality:
            racks = self.datacenter.pool(device_type).live_rack_locations()
            if not racks:
                return None
            self._rr_rack += 1
            return racks[self._rr_rack % len(racks)]
        batch = self._batch
        pulls: List[Tuple[Location, int]] = []
        for src_name, size in view.pulls.get(name, ()):
            upstream = objects.get(src_name)
            if upstream is not None and upstream.location is not None:
                pulls.append((upstream.location, size))
        if not pulls:
            return None

        fabric = self.datacenter.fabric
        pool = self.datacenter.pool(device_type)
        candidate_racks = pool.live_rack_locations()
        if not candidate_racks:
            return None

        if batch is not None:
            # The full argmin is pure given (inputs, candidates): clock
            # frozen => fabric costs frozen; the key captures the exact
            # candidate order, so min()'s first-wins tie-break matches.
            loc_key = (tuple(pulls), tuple(candidate_racks))
            rack = batch.locations.get(loc_key)
            if rack is None:
                transfers = batch.transfers

                def cost(rack: Location) -> float:
                    total = 0.0
                    for src, size in pulls:
                        t_key = (src, rack, size)
                        t = transfers.get(t_key)
                        if t is None:
                            t = fabric.transfer_time(src, rack, size)
                            transfers[t_key] = t
                        total += t
                    return total

                rack = batch.locations[loc_key] = min(candidate_racks,
                                                      key=cost)
            return rack

        def cost(rack: Location) -> float:
            return sum(
                fabric.transfer_time(src, rack, size) for src, size in pulls
            )

        return min(candidate_racks, key=cost)

    def _build_unit(
        self,
        obj: UDCObject,
        device_type: DeviceType,
        amount: float,
        preferred: Optional[Location],
        envs: Dict[DeviceType, EnvChoice],
        device: Optional[Device] = None,
        parent: Optional[Span] = None,
    ) -> Tuple[ResourceUnit, float]:
        aspect = obj.aspects.resource or ResourceAspect()
        env_kind, single_tenant = self.resolve_env(envs, device_type)
        alloc_span = self._span_start(
            self._now(), obj.name, "allocate", "allocate", parent=parent,
            device_type=device_type.value, amount=amount,
        )
        pool = self.datacenter.pool(device_type)
        spec = self.datacenter.spec.spec_for(device_type)
        shards: List[Allocation] = []
        try:
            primary_amount = amount
            if device is None and amount > spec.capacity:
                # "Arbitrary amounts" (§1): requests larger than one
                # physical device split into shards across devices, all
                # preferring the same rack.  The primary shard hosts the
                # environment; the rest gang with it.
                remaining = amount
                first = True
                while remaining > 1e-9:
                    shard_amount = min(remaining, spec.capacity)
                    shard = pool.allocate(
                        shard_amount,
                        obj.tenant,
                        single_tenant=single_tenant,
                        preferred_location=preferred,
                    )
                    if first:
                        preferred = preferred or Location(
                            shard.device.location.pod,
                            shard.device.location.rack, 0,
                        )
                        first = False
                    shards.append(shard)
                    remaining -= shard_amount
                compute = shards[0]
                primary_amount = compute.amount
                self.telemetry.event(
                    self._now(), obj.name, "split-allocation",
                    lambda: f"{amount:g} {device_type.value} across "
                            f"{len(shards)} devices",
                )
            else:
                compute = pool.allocate(
                    amount,
                    obj.tenant,
                    single_tenant=single_tenant,
                    preferred_location=preferred,
                    device=device,
                )
                shards = [compute]
        except AllocationError as exc:
            for shard in shards:
                pool.release(shard)
            self.telemetry.span_end(alloc_span, self._now(), status="error")
            raise SchedulerError(f"{obj.name}: {exc}") from exc

        memory: Optional[Allocation] = None
        if aspect.mem_gb > 0 and DeviceType.DRAM in self.datacenter.pools:
            try:
                memory = self.datacenter.pool(DeviceType.DRAM).allocate(
                    aspect.mem_gb,
                    obj.tenant,
                    preferred_location=compute.device.location,
                )
            except AllocationError as exc:
                for shard in shards:
                    pool.release(shard)
                self.telemetry.span_end(alloc_span, self._now(),
                                        status="error")
                raise SchedulerError(f"{obj.name}: memory: {exc}") from exc

        unit = self.bundles.assemble(
            compute=compute,
            memory=memory,
            env_kind=env_kind,
            tenant=obj.tenant,
            single_tenant=single_tenant,
            extra_compute=shards[1:],
        )
        obj.allocations.extend(shards)
        if memory is not None:
            obj.allocations.append(memory)
        obj.environment = unit.environment
        rate = compute.device.spec.compute_rate
        if self.telemetry.enabled:
            # Structured replacement for the old "place-task" event.
            alloc_span.attrs.update(
                device=compute.device.device_id, env=env_kind.value,
                single_tenant=single_tenant,
                warm=unit.environment.from_warm_pool,
                shards=len(shards), mem_gb=aspect.mem_gb,
            )
            self.telemetry.span_end(alloc_span, self._now())
            self.telemetry.inc("udc_placements_total",
                               labels=self._metric_labels(kind="task"))
        return unit, rate

    def _place_single(
        self, obj: UDCObject, objects: Dict[str, UDCObject], view: AppView,
        plan: CellPlan,
    ) -> TaskPlacement:
        aspect = obj.aspects.resource or ResourceAspect()
        t_wall = time.perf_counter() if self._track_placement() else 0.0
        schedule_span = self._span_start(
            self._now(), obj.name, "schedule", "schedule",
        )
        try:
            device_type = self.choose_device_type(plan.devices[obj.name])
            spec = self.datacenter.spec.spec_for(device_type)
            amount = (aspect.amount if aspect.amount is not None
                      else spec.min_grain)
            preferred = self._preferred_location(
                obj.name, objects, view, device_type
            )
            unit, rate = self._build_unit(
                obj, device_type, amount, preferred, plan.envs[obj.name],
                parent=schedule_span,
            )
            self._place_standbys(obj, device_type, amount, unit)
        except SchedulerError:
            self.telemetry.span_end(schedule_span, self._now(),
                                    status="error")
            raise
        if self._track_placement():
            schedule_span.attrs.update(
                device_type=device_type.value, amount=amount,
                goal=(aspect.goal or ResourceGoal.CHEAPEST).value,
                preferred_rack=str(preferred) if preferred else None,
            )
            self.telemetry.span_end(schedule_span, self._now())
            self.telemetry.observe("udc_placement_latency_seconds",
                                   time.perf_counter() - t_wall,
                                   labels=self._metric_labels())
        return TaskPlacement(
            obj=obj, device_type=device_type, amount=amount, unit=unit,
            compute_rate=rate,
        )

    def _place_standbys(self, obj, device_type, amount, unit) -> None:
        """Task replication (Table 1's "Rep 2x" on task modules): keep
        ``factor - 1`` hot-standby allocations on *other* devices.

        Standbys cost money while held (the paper's "more replicas is more
        expensive") and let failover skip re-allocation.
        """
        dist = obj.aspects.distributed
        if dist is None or dist.replication is None or dist.replication.factor <= 1:
            return
        pool = self.datacenter.pool(device_type)
        primary_device = unit.compute.device
        single = unit.environment.single_tenant
        # devices_by_seq() is maintained sorted by the pool — no per-replica
        # O(N log N) re-sort on this path.
        ordered = pool.devices_by_seq()
        for _ in range(dist.replication.factor - 1):
            candidate = next(
                (
                    d for d in ordered
                    if d is not primary_device
                    and d.can_fit(amount, obj.tenant, single)
                    and self._breaker_allows(d)
                ),
                None,
            )
            if candidate is None:
                self.telemetry.event(
                    self._now(), obj.name, "standby-degraded",
                    "no device available for a task standby replica",
                )
                return
            standby = pool.allocate(
                amount, obj.tenant, single_tenant=single, device=candidate
            )
            obj.allocations.append(standby)
            self.telemetry.event(
                self._now(), obj.name, "place-standby",
                lambda: f"{amount:g} {device_type.value} "
                        f"@ {candidate.device_id}",
            )

    def _place_group(
        self,
        members: List[UDCObject],
        objects: Dict[str, UDCObject],
        view: AppView,
        plan: CellPlan,
        choice: DeviceChoice,
    ) -> Dict[str, TaskPlacement]:
        """Co-location: all members on one physical device (hard)."""
        device_type = self.choose_device_type(choice)
        spec = self.datacenter.spec.spec_for(device_type)
        amounts = [
            (m.aspects.resource.amount
             if m.aspects.resource and m.aspects.resource.amount
             else spec.min_grain)
            for m in members
        ]
        total = sum(amounts)
        single = any(
            m.aspects.execenv and m.aspects.execenv.single_tenant for m in members
        )
        pool = self.datacenter.pool(device_type)
        preferred = self._preferred_location(
            members[0].name, objects, view, device_type
        )
        # min() over the eligible devices equals first-of-sorted (the key
        # ends in the unique seq) without sorting the whole pool.
        host = min(
            (
                d for d in pool.devices
                if d.can_fit(total, members[0].tenant, single)
                and self._breaker_allows(d)
            ),
            key=lambda d: (
                0 if preferred is not None
                and d.location.same_rack(preferred) else 1,
                d.free,
                d.seq,
            ),
            default=None,
        )
        if host is None:
            raise SchedulerError(
                f"colocate group {[m.name for m in members]}: no single "
                f"{device_type.value} device has {total:g} free units"
            )
        placements: Dict[str, TaskPlacement] = {}
        for member, amount in zip(members, amounts):
            t_wall = time.perf_counter() if self._track_placement() else 0.0
            schedule_span = self._span_start(
                self._now(), member.name, "schedule", "schedule",
                colocated=True, host=host.device_id,
            )
            try:
                unit, rate = self._build_unit(
                    member, device_type, amount, None, plan.envs[member.name],
                    device=host, parent=schedule_span,
                )
            except SchedulerError:
                self.telemetry.span_end(schedule_span, self._now(),
                                        status="error")
                raise
            if self._track_placement():
                self.telemetry.span_end(schedule_span, self._now())
                self.telemetry.observe("udc_placement_latency_seconds",
                                       time.perf_counter() - t_wall,
                                       labels=self._metric_labels())
            placements[member.name] = TaskPlacement(
                obj=member, device_type=device_type, amount=amount, unit=unit,
                compute_rate=rate,
            )
        return placements

    def _now(self) -> float:
        return self.datacenter.sim.now
