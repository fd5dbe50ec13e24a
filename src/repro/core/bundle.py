"""Vertical bundling into self-sustained resource units (Principle 3).

*"We propose to vertically bundle layers of fine-grained pieces into a
self-sustained resource unit.  For example, we can combine some amount of
compute resources (e.g., a CPU core), an execution environment (e.g., a
container), and some distributed API library into one low-level resource
unit for allocation, scheduling, and failure handling."*

A :class:`ResourceUnit` is that bundle.  :class:`BundleManager` assembles
units on demand and, when enabled, keeps warm units so secure-environment
cold starts are paid by the provider's background loop instead of the
tenant's critical path (benchmark E5's ablation toggles this).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional

from repro.execenv.environments import (
    ENV_PROFILES,
    EnvKind,
    EnvState,
    ExecutionEnvironment,
)
from repro.execenv.warmpool import WarmPool
from repro.hardware.pools import Allocation

__all__ = ["BundleManager", "ResourceUnit"]

_unit_ids = itertools.count()


#: scaling efficiency of compute shards beyond the primary device: gang
#: members pay cross-device synchronization (the disaggregation tax on
#: single-module scale-out).
REMOTE_SHARD_EFFICIENCY = 0.9


@dataclass
class ResourceUnit:
    """Compute grain + execution environment + distsem library, as one
    allocatable/schedulable/failable unit."""

    unit_id: str
    compute: Allocation
    memory: Optional[Allocation]
    environment: ExecutionEnvironment
    #: additional compute shards when one device could not hold the
    #: requested amount (split allocations, §1's "arbitrary amounts")
    extra_compute: List[Allocation] = field(default_factory=list)
    #: version tag of the bundled distributed-API library
    distsem_library: str = "udc-distsem-1.0"

    @property
    def location(self):
        return self.compute.device.location

    @property
    def total_compute_amount(self) -> float:
        return self.compute.amount + sum(a.amount for a in self.extra_compute)

    @property
    def effective_compute_amount(self) -> float:
        """Usable parallel capacity: remote shards scale sub-linearly."""
        return self.compute.amount + REMOTE_SHARD_EFFICIENCY * sum(
            a.amount for a in self.extra_compute
        )

    @property
    def startup_time(self) -> float:
        return self.environment.startup_time()

    def hourly_cost(self) -> float:
        cost = self.compute.hourly_cost
        cost += sum(a.hourly_cost for a in self.extra_compute
                    if not a.released)
        if self.memory is not None and not self.memory.released:
            cost += self.memory.hourly_cost
        return cost


class BundleManager:
    """Builds resource units; optionally backed by a warm pool."""

    def __init__(self, warm_pool: Optional[WarmPool] = None):
        self.warm_pool = warm_pool

    def assemble(
        self,
        compute: Allocation,
        memory: Optional[Allocation],
        env_kind: EnvKind,
        tenant: str,
        single_tenant: bool,
        extra_compute: Optional[List[Allocation]] = None,
    ) -> ResourceUnit:
        """Create a unit around existing allocations.

        When the warm pool holds a matching environment shell, the unit's
        environment starts warm (``warm_start_s``); otherwise it cold
        starts.  The hit/miss is recorded in the pool's stats.
        """
        environment = ExecutionEnvironment(
            profile=ENV_PROFILES[env_kind],
            tenant=tenant,
            allocations=[a for a in (compute, memory) if a is not None],
            single_tenant=single_tenant,
        )
        if self.warm_pool is not None and self.warm_pool.try_acquire(
            env_kind, single_tenant
        ):
            environment.from_warm_pool = True
        environment.state = EnvState.STARTING
        unit = ResourceUnit(
            unit_id=f"unit-{next(_unit_ids)}",
            compute=compute,
            memory=memory,
            environment=environment,
            extra_compute=list(extra_compute or []),
        )
        return unit

    def refill_warm_pool(self) -> int:
        if self.warm_pool is None:
            return 0
        return self.warm_pool.refill()
