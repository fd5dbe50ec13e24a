"""Admission-queue ordering policies.

When placement fails for lack of capacity, ``queue_if_full`` submissions
park in the runtime's admission queue and re-enter as running work
releases resources.  *Which* parked submission gets the freed capacity is
a policy decision: the paper's provider serves many user-defined clouds
from one substrate (§2), so admission order is where tenant fairness is
enforced.

The runtime orders every retry round by :meth:`AdmissionPolicy.sort_key`
and notifies the policy of each successful admission, making the order a
pure, deterministic function of (tenant, submission seq) — previously
parked submissions re-entered in insertion order only, with no way to
prioritize and no defined tie-break.

* :class:`FifoAdmission` — insertion order (the historical behavior,
  now with an explicit seq tie-break).
* :class:`WeightedFairShare` — stride scheduling over per-tenant virtual
  time: each admission advances the tenant's clock by ``1 / weight``, so
  long-run admission rates are proportional to weights and a starved
  tenant's next submission always sorts ahead.  Ties (equal virtual
  time) break by submission seq, keeping the order deterministic.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

__all__ = ["AdmissionPolicy", "FifoAdmission", "WeightedFairShare"]


class AdmissionPolicy:
    """Orders pending submissions; notified as admissions succeed.

    Keys are compared across one queue, so a policy only needs internal
    consistency: lower sorts first, and keys must embed ``seq`` (every
    submission's unique monotonic id) to guarantee a total, deterministic
    order even when the policy ranks two tenants equal.
    """

    def sort_key(self, tenant: str, seq: int) -> Tuple:
        raise NotImplementedError

    def on_admitted(self, tenant: str) -> None:
        """Called once per successful admission (direct or retried)."""


class FifoAdmission(AdmissionPolicy):
    """First queued, first retried — submission seq IS arrival order."""

    def sort_key(self, tenant: str, seq: int) -> Tuple:
        return (seq,)

    def on_admitted(self, tenant: str) -> None:
        pass


class WeightedFairShare(AdmissionPolicy):
    """Stride scheduling: admission rates proportional to tenant weights.

    A tenant first seen mid-run starts at the minimum live virtual time
    (not zero), so a latecomer competes fairly instead of monopolizing
    the queue until it "catches up".
    """

    def __init__(self, weights: Optional[Dict[str, float]] = None,
                 default_weight: float = 1.0):
        if not 0 < default_weight < math.inf:
            raise ValueError(
                f"weights must be positive and finite, got {default_weight}"
            )
        self.default_weight = default_weight
        self._weights: Dict[str, float] = {}
        self._vtime: Dict[str, float] = {}
        for tenant, weight in (weights or {}).items():
            self.set_weight(tenant, weight)

    def set_weight(self, tenant: str, weight: float) -> None:
        if not 0 < weight < math.inf:
            raise ValueError(
                f"tenant {tenant!r}: weight must be positive and finite, "
                f"got {weight}"
            )
        self._weights[tenant] = weight

    def weight_of(self, tenant: str) -> float:
        return self._weights.get(tenant, self.default_weight)

    def _vtime_of(self, tenant: str) -> float:
        if tenant not in self._vtime:
            floor = min(self._vtime.values()) if self._vtime else 0.0
            self._vtime[tenant] = floor
        return self._vtime[tenant]

    def sort_key(self, tenant: str, seq: int) -> Tuple:
        return (self._vtime_of(tenant), seq)

    def on_admitted(self, tenant: str) -> None:
        self._vtime[tenant] = (
            self._vtime_of(tenant) + 1.0 / self.weight_of(tenant)
        )
