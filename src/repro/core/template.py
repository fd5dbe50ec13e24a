"""Compiled app templates: the scheduler's inputs, derived once (§3.2).

*"Our runtime scheduler would use the user-supplied resource aspect,
execution environment aspect, and locality information from the
application semantic aspect to decide the location(s) to execute a
module."*  Both inputs are fixed when a tenant submits: the aspects it
declared and the DAG's locality information.  An :class:`AppTemplate`
computes every pure function of them once:

* the admission result — the :class:`~repro.core.conflicts.ConflictResolution`
  and the default-filled (frozen, shareable) aspect bundle of each module;
* the :class:`AppView` of the DAG — effective task graph and its stages,
  merged co-location groups in declaration order, and each task's
  locality pulls in the order placement sums them;
* whether the app declares a standing (persistent) deployment, and the
  router's coarse demand estimate (on the first service dispatch);
* per datacenter pool set (:class:`CellPlan`): each task's candidate
  device types in goal order with the shard each must fit, and the
  environment kind each type gets.

What depends on live capacity — which candidate has room, live racks,
the fabric argmins — stays per placement.

:meth:`UDCRuntime.compile <repro.core.runtime.UDCRuntime.compile>`
builds templates; the serving layer memoizes them by content
(:class:`~repro.service.cache.SubmissionKey`), so equal DAG/definition
pairs share one however many objects carry them, and a DAG or
definition mutated between submits compiles anew.  A template is
read-only once built: submissions, spills, admission retries and
preemption redeploys all read the same one.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, NamedTuple, Optional, Tuple, Union

from repro.appmodel.dag import ModuleDAG, topological_stages
from repro.core.aspects import (AspectBundle, ExecEnvAspect, ResourceAspect,
                                ResourceGoal)
from repro.core.objects import UDCObject
from repro.execenv.environments import (ENV_PROFILES, EnvKind,
                                        environments_for_level)
from repro.execenv.isolation import IsolationLevel
from repro.hardware.devices import DeviceType

__all__ = ["AppTemplate", "AppView", "CellPlan", "DeviceChoice"]

#: an environment decision: ``(kind, single_tenant)``, or the message of
#: the SchedulerError that choosing this device type raises
EnvChoice = Union[Tuple[EnvKind, bool], str]


class AppView:
    """The structural facts placement reads about one DAG shape.

    ``pulls`` maps each task to the static half of its locality inputs —
    (source module name, byte weight), incoming edges first, then
    affinity hints, each in declaration order — the order the fabric
    cost sums run in.  ``stages`` is None when the task graph has a
    cycle (validation rejects such apps before placement).
    """

    __slots__ = ("graph", "stages", "groups", "grouped", "pulls", "tasks")

    def __init__(self, dag: ModuleDAG):
        #: task -> sorted upstream tasks (ModuleDAG.effective_task_graph)
        self.graph: Dict[str, List[str]] = dag.effective_task_graph()
        self.stages: Optional[List[List[str]]] = topological_stages(self.graph)
        #: merged co-location groups, in declaration order
        self.groups: Tuple[FrozenSet[str], ...] = tuple(
            frozenset(group) for group in dag.merged_colocation_groups()
        )
        self.grouped: FrozenSet[str] = frozenset().union(*self.groups)
        pulls: Dict[str, List[Tuple[str, int]]] = {}
        for edge in dag.edges:
            pulls.setdefault(edge.dst, []).append(
                (edge.src, edge.bytes_transferred)
            )
        for (task_name, data_name), weight in dag.affinities.items():
            pulls.setdefault(task_name, []).append((data_name, weight))
        self.pulls = {name: tuple(entries) for name, entries in pulls.items()}
        #: task -> the developer's device candidates
        self.tasks: Dict[str, FrozenSet[DeviceType]] = {
            task.name: frozenset(task.device_candidates) for task in dag.tasks
        }


class DeviceChoice(NamedTuple):
    """The static half of one device-type decision.

    ``options`` are the candidate types in goal order (CHEAPEST: price
    per unit of work ascending; FASTEST: compute rate descending; ties
    in candidate-set order), each with the shard a device of that type
    must have free to count as having capacity.  Placement takes the
    first option with capacity, else the first option.  ``error`` is
    the SchedulerError message to raise instead.
    """

    options: Tuple[Tuple[DeviceType, float], ...]
    error: Optional[str] = None


def device_choice(name: str, candidates: FrozenSet[DeviceType],
                  aspect: ResourceAspect, datacenter) -> DeviceChoice:
    """Explicit aspect device wins; otherwise the goal orders the
    candidates this datacenter has pools for."""
    if aspect.device is not None:
        if aspect.device not in candidates:
            return DeviceChoice((), (
                f"{name}: aspect demands {aspect.device.value} but the "
                f"developer's candidate set is "
                f"{sorted(d.value for d in candidates)}"
            ))
        return DeviceChoice(((aspect.device, 0.0),))
    available = [d for d in candidates if d in datacenter.pools]
    if not available:
        return DeviceChoice((), (
            f"{name}: none of the candidate device types exist in this "
            f"datacenter"
        ))
    specs = {d: datacenter.spec.spec_for(d) for d in available}
    if (aspect.goal or ResourceGoal.CHEAPEST) == ResourceGoal.FASTEST:
        ordered = sorted(available, key=lambda d: -specs[d].compute_rate)
    else:
        # CHEAPEST: minimize cost to finish a unit of work.
        ordered = sorted(available, key=lambda d: specs[d].unit_price_hour
                         / max(specs[d].compute_rate, 1e-9))
    # §3.2: selection happens "based on load and available hardware at
    # the run time" — a type whose pool cannot host even the smallest
    # shard is skipped at placement.
    return DeviceChoice(tuple(
        (d, min(aspect.amount if aspect.amount is not None
                else specs[d].min_grain, specs[d].capacity))
        for d in ordered
    ))


def env_choice(name: str, execenv: Optional[ExecEnvAspect],
               device_type: DeviceType) -> EnvChoice:
    """The concrete env kind if named, else the provider's pick for the
    requested isolation tier on ``device_type``."""
    if execenv is None:
        level, single = IsolationLevel.WEAK, False
    elif execenv.env_kind is not None:
        profile = ENV_PROFILES[execenv.env_kind]
        if device_type not in profile.requires_device:
            return (
                f"{name}: environment {execenv.env_kind.value!r} cannot "
                f"host on {device_type.value} (today's TEEs are CPU-only — "
                f"the paper's §3.3 gap); pick a CPU device or an isolation "
                f"tier and let the provider choose the mechanism"
            )
        return execenv.env_kind, execenv.single_tenant
    else:
        level = execenv.isolation or IsolationLevel.WEAK
        single = execenv.single_tenant or level == IsolationLevel.STRONGEST
    profiles = environments_for_level(level, device_type)
    if not profiles:
        return (f"{name}: no environment provides isolation {level.value} "
                f"on {device_type.value}")
    # Provider's pick: the fastest-starting mechanism that satisfies the
    # tier (providers optimize their own churn).
    return min(profiles, key=lambda p: p.cold_start_s).kind, single


class CellPlan:
    """The part of a template that depends on which pools a datacenter
    (a placement cell) has.

    ``devices`` and ``envs`` cover every task with a bundle; ``groups``
    pairs each merged co-location group's members (sorted, those with a
    bundle) with the group's shared device choice.
    """

    __slots__ = ("devices", "envs", "groups")

    def __init__(self, template: "AppTemplate", datacenter):
        bundles = template.bundles
        tasks = template.view.tasks
        self.devices: Dict[str, DeviceChoice] = {}
        self.envs: Dict[str, Dict[DeviceType, EnvChoice]] = {}
        for name, candidates in tasks.items():
            bundle = bundles.get(name)
            if bundle is None:
                continue
            self.devices[name] = device_choice(
                name, candidates, bundle.resource or ResourceAspect(),
                datacenter,
            )
            self.envs[name] = {
                device_type: env_choice(name, bundle.execenv, device_type)
                for device_type in candidates
            }
        self.groups: List[Tuple[Tuple[str, ...], DeviceChoice]] = []
        for group in template.view.groups:
            members = tuple(name for name in sorted(group) if name in bundles)
            if members:
                self.groups.append((members, self._group_choice(
                    members, tasks, bundles, datacenter)))

    @staticmethod
    def _group_choice(members, tasks, bundles, datacenter) -> DeviceChoice:
        """All members on one device: the shared candidates, honoring
        any member's explicit pin inside them."""
        shared = frozenset.intersection(*(tasks[name] for name in members))
        pinned = {
            bundles[name].resource.device for name in members
            if bundles[name].resource and bundles[name].resource.device
        }
        pinned.discard(None)
        if pinned:
            if len(pinned) > 1 or not pinned <= shared:
                return DeviceChoice((), (
                    f"colocate group {list(members)}: conflicting device "
                    f"pins {sorted(d.value for d in pinned)}"
                ))
            return DeviceChoice(((next(iter(pinned)), 0.0),))
        return device_choice("__group__", shared,
                             bundles[members[0]].resource or ResourceAspect(),
                             datacenter)


class AppTemplate:
    """Everything placement and deployment read about one submitted app
    shape and definition, computed once (see the module docstring)."""

    __slots__ = ("view", "bundles", "resolution", "persistent", "demand",
                 "_cells")

    def __init__(self, view: AppView, bundles: Dict[str, AspectBundle], *,
                 resolution=None, persistent: bool = False):
        self.view = view
        #: module name -> default-filled aspect bundle
        self.bundles = bundles
        self.resolution = resolution
        #: the definition asks for a standing deployment
        self.persistent = persistent
        #: the router's coarse demand (repro.core.cells.estimate_demand),
        #: filled by the first service dispatch
        self.demand: Optional[Dict[DeviceType, float]] = None
        #: pool-set key -> CellPlan, filled on first placement there
        self._cells: Dict[Tuple[DeviceType, ...], CellPlan] = {}

    @classmethod
    def of_objects(cls, dag: ModuleDAG,
                   objects: Dict[str, UDCObject]) -> "AppTemplate":
        """A template over already-admitted objects (their aspects as the
        bundles): what a direct ``place_tasks`` caller places from."""
        return cls(AppView(dag),
                   {name: obj.aspects for name, obj in objects.items()})

    def instantiate(self, dag: ModuleDAG, tenant: str) -> Dict[str, UDCObject]:
        """One fresh UDC object per module of ``dag`` for ``tenant``."""
        bundles = self.bundles
        return {
            name: UDCObject(module=module, aspects=bundles[name],
                            tenant=tenant)
            for name, module in dag.modules.items()
        }

    def cell_plan(self, datacenter) -> CellPlan:
        """The device and environment plan for ``datacenter``'s pools.

        Keyed by the pool set's device types: cells of one service share
        the spec, so equal pool sets plan identically.
        """
        key = tuple(datacenter.pools.pools)
        plan = self._cells.get(key)
        if plan is None:
            plan = self._cells[key] = CellPlan(self, datacenter)
        return plan
