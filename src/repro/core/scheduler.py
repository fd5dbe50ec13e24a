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
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.appmodel.dag import ModuleDAG
from repro.appmodel.module import DataModule, TaskModule
from repro.core.aspects import ResourceAspect, ResourceGoal
from repro.core.bundle import BundleManager, ResourceUnit
from repro.core.objects import UDCObject
from repro.core.observability import NULL_SPAN, Span
from repro.core.telemetry import Telemetry
from repro.distsem.replication import PlacementResult, ReplicaPlacer, ReplicationPolicy
from repro.execenv.environments import EnvKind, environments_for_level
from repro.execenv.isolation import IsolationLevel
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


@dataclass
class TaskPlacement:
    """Everything the runtime needs to execute one task object."""

    obj: UDCObject
    device_type: DeviceType
    amount: float
    unit: ResourceUnit
    compute_rate: float


class _DagMemo:
    """Pure structural facts about one DAG, computed once per batch round.

    ``pulls`` maps each task to the static half of its locality inputs —
    (source module name, byte weight) in the exact order the serial path
    scans them (edges first, then affinity hints), so the memoized cost
    sums are bit-identical to the uncached ones.
    """

    __slots__ = ("dag", "groups", "stages", "pulls")

    def __init__(self, dag: ModuleDAG):
        self.dag = dag  # strong ref: keeps id(dag) stable for the round
        self.groups = dag.merged_colocation_groups()
        self.stages = dag.task_stages()
        pulls: Dict[str, List[Tuple[str, int]]] = {}
        for edge in dag.edges:
            pulls.setdefault(edge.dst, []).append(
                (edge.src, edge.bytes_transferred)
            )
        for (task_name, data_name), weight in dag.affinities.items():
            pulls.setdefault(task_name, []).append((data_name, weight))
        self.pulls = pulls


class _BatchCache:
    """Round-scoped memos for :meth:`UdcScheduler.batch_round`.

    Everything cached here is a pure function of inputs that cannot
    change while a round is open: the simulation clock does not advance
    between placements (no execution, failures, or partitions), so DAG
    structure, fabric transfer times, and the resulting argmin rack
    choices are all frozen.  Serial submissions interleave with
    execution, where none of this holds — which is why these memos only
    exist inside a round.
    """

    __slots__ = ("dags", "transfers", "locations")

    def __init__(self):
        #: id(dag) -> _DagMemo (the memo holds the dag alive)
        self.dags: Dict[int, _DagMemo] = {}
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

    def _dag_memo(self, dag: ModuleDAG) -> Optional[_DagMemo]:
        """The round's structural memo for ``dag``, or None outside a
        batch round (serial placements recompute, since the DAG may be
        mutated between independent submissions)."""
        batch = self._batch
        if batch is None:
            return None
        memo = batch.dags.get(id(dag))
        if memo is None or memo.dag is not dag:
            memo = batch.dags[id(dag)] = _DagMemo(dag)
        return memo

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
        is frozen for the whole round, DAG structure, fabric transfer
        times, and locality argmins are pure and memoized across the
        round's placements.  Cached values reproduce the serial
        computation bit-for-bit (same scan order, same float summation
        order, same argmin tie-breaks), so decisions stay byte-identical.
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
        self, objects: Dict[str, UDCObject], dag: ModuleDAG
    ) -> Dict[str, TaskPlacement]:
        """Place every task object, honoring co-location groups."""
        placements: Dict[str, TaskPlacement] = {}
        memo = self._dag_memo(dag)
        groups = memo.groups if memo else dag.merged_colocation_groups()
        grouped: Set[str] = set().union(*groups) if groups else set()

        for group in groups:
            members = [objects[name] for name in sorted(group) if name in objects]
            if members:
                placements.update(self._place_group(members, objects, dag))

        for stage in memo.stages if memo else dag.task_stages():
            for name in stage:
                if name in grouped or name not in objects:
                    continue
                obj = objects[name]
                if obj.is_task:
                    placements[name] = self._place_single(obj, objects, dag)
        return placements

    def _choose_device_type(
        self, task: TaskModule, aspect: ResourceAspect
    ) -> DeviceType:
        if aspect.device is not None:
            if aspect.device not in task.device_candidates:
                raise SchedulerError(
                    f"{task.name}: aspect demands {aspect.device.value} but the "
                    f"developer's candidate set is "
                    f"{sorted(d.value for d in task.device_candidates)}"
                )
            return aspect.device
        available = [
            d for d in task.device_candidates if d in self.datacenter.pools
        ]
        if not available:
            raise SchedulerError(
                f"{task.name}: none of the candidate device types exist in "
                f"this datacenter"
            )
        # §3.2: goal-directed selection happens "based on load and
        # available hardware at the run time" — a candidate type whose
        # pool cannot currently host even the smallest grain is skipped
        # (falling back to the full set only if every pool is exhausted,
        # so the error message names the preferred type).
        def has_capacity(device_type: DeviceType) -> bool:
            pool = self.datacenter.pool(device_type)
            grain = self.datacenter.spec.spec_for(device_type).min_grain
            needed = aspect.amount if aspect.amount is not None else grain
            shard = min(needed,
                        self.datacenter.spec.spec_for(device_type).capacity)
            # Any live device with enough free space <=> the pool's max
            # free clears the shard — O(1) off the pool's free index.
            return pool.max_free() + 1e-9 >= shard

        with_capacity = [d for d in available if has_capacity(d)]
        candidates = with_capacity or available
        goal = aspect.goal or ResourceGoal.CHEAPEST
        specs = {d: self.datacenter.spec.spec_for(d) for d in candidates}
        if goal == ResourceGoal.FASTEST:
            return max(candidates, key=lambda d: specs[d].compute_rate)
        # CHEAPEST: minimize cost to finish a unit of work.
        return min(
            candidates,
            key=lambda d: specs[d].unit_price_hour / max(specs[d].compute_rate, 1e-9),
        )

    def _preferred_location(
        self,
        name: str,
        objects: Dict[str, UDCObject],
        dag: ModuleDAG,
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
        memo = self._dag_memo(dag)
        if memo is not None:
            for src_name, size in memo.pulls.get(name, ()):
                upstream = objects.get(src_name)
                if upstream is not None and upstream.location is not None:
                    pulls.append((upstream.location, size))
        else:
            for edge in dag.edges:
                if edge.dst != name:
                    continue
                upstream = objects.get(edge.src)
                if upstream is not None and upstream.location is not None:
                    pulls.append((upstream.location, edge.bytes_transferred))
            for (task_name, data_name), weight in dag.affinities.items():
                if task_name != name:
                    continue
                data_obj = objects.get(data_name)
                if data_obj is not None and data_obj.location is not None:
                    pulls.append((data_obj.location, weight))
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

    def _resolve_env_kind(
        self, obj: UDCObject, device_type: DeviceType
    ) -> Tuple[EnvKind, bool]:
        execenv = obj.aspects.execenv
        if execenv is None:
            level, single = IsolationLevel.WEAK, False
        elif execenv.env_kind is not None:
            from repro.execenv.environments import ENV_PROFILES

            profile = ENV_PROFILES[execenv.env_kind]
            if device_type not in profile.requires_device:
                raise SchedulerError(
                    f"{obj.name}: environment "
                    f"{execenv.env_kind.value!r} cannot host on "
                    f"{device_type.value} (today's TEEs are CPU-only — the "
                    f"paper's §3.3 gap); pick a CPU device or an isolation "
                    f"tier and let the provider choose the mechanism"
                )
            return execenv.env_kind, execenv.single_tenant
        else:
            level = execenv.isolation or IsolationLevel.WEAK
            single = execenv.single_tenant or level == IsolationLevel.STRONGEST
        profiles = environments_for_level(level, device_type)
        if not profiles:
            raise SchedulerError(
                f"{obj.name}: no environment provides isolation "
                f"{level.value} on {device_type.value}"
            )
        # Provider's pick: the fastest-starting mechanism that satisfies
        # the tier (providers optimize their own churn).
        chosen = min(profiles, key=lambda p: p.cold_start_s)
        return chosen.kind, single

    def _build_unit(
        self,
        obj: UDCObject,
        device_type: DeviceType,
        amount: float,
        preferred: Optional[Location],
        device: Optional[Device] = None,
        parent: Optional[Span] = None,
    ) -> Tuple[ResourceUnit, float]:
        aspect = obj.aspects.resource or ResourceAspect()
        env_kind, single_tenant = self._resolve_env_kind(obj, device_type)
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
        self, obj: UDCObject, objects: Dict[str, UDCObject], dag: ModuleDAG
    ) -> TaskPlacement:
        task = obj.module
        assert isinstance(task, TaskModule)
        aspect = obj.aspects.resource or ResourceAspect()
        t_wall = time.perf_counter() if self._track_placement() else 0.0
        schedule_span = self._span_start(
            self._now(), obj.name, "schedule", "schedule",
        )
        try:
            device_type = self._choose_device_type(task, aspect)
            spec = self.datacenter.spec.spec_for(device_type)
            amount = (aspect.amount if aspect.amount is not None
                      else spec.min_grain)
            preferred = self._preferred_location(
                obj.name, objects, dag, device_type
            )
            unit, rate = self._build_unit(
                obj, device_type, amount, preferred, parent=schedule_span
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
        dag: ModuleDAG,
    ) -> Dict[str, TaskPlacement]:
        """Co-location: all members on one physical device (hard)."""
        shared = frozenset.intersection(
            *(m.module.device_candidates for m in members)
        )
        # Respect any member's explicit device pin inside the shared set.
        pinned = {
            m.aspects.resource.device
            for m in members
            if m.aspects.resource and m.aspects.resource.device
        }
        pinned.discard(None)
        if pinned:
            if len(pinned) > 1 or not pinned <= shared:
                raise SchedulerError(
                    f"colocate group {[m.name for m in members]}: conflicting "
                    f"device pins {sorted(d.value for d in pinned)}"
                )
            device_type = next(iter(pinned))
        else:
            goal_aspect = members[0].aspects.resource or ResourceAspect()
            probe = TaskModule(
                name="__group__", work=1.0, device_candidates=shared
            )
            device_type = self._choose_device_type(probe, goal_aspect)

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
            members[0].name, objects, dag, device_type
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
                    member, device_type, amount, preferred=None, device=host,
                    parent=schedule_span,
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
