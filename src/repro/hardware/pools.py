"""Typed resource pools with exact-amount allocation.

This module realizes the paper's central mechanism (§3.2): *"Fulfilling
users' resource demands would then simply be allocating the exact amount
from the corresponding resource pools (instead of a bin-packing problem
with traditional servers)."*

A :class:`ResourcePool` owns all devices of one :class:`DeviceType`.
Allocation requests name an exact amount (possibly fractional, down to the
device's ``min_grain``), a tenant, and placement constraints (preferred
location for locality, single-tenant pinning for the security aspect).
Pools keep a time-weighted utilization integral so the disaggregation
benchmark (E2) can compare utilization against server bin-packing.

Placement hot path
------------------

Best-fit placement is served from an incrementally-maintained sorted index
of ``(free, seq)`` keys (a plain ``bisect`` list — no external
dependencies) plus per-location buckets, so one ``allocate`` is
O(log N + k) in the number of devices instead of the historical
scan-and-sort O(N log N).  Pool-level ``total_used`` / ``peak_used`` /
the utilization integral are maintained incrementally from per-device
cached counters, so ``_sample`` is O(1) instead of O(devices ×
allocations).  Placement *decisions* are byte-identical to the naive
path: the index preserves the exact ``(local, free, seq)`` tie-break
order, and the per-device cache never drifts from a re-sum (see
``Device._remove_alloc``).  The naive path itself is preserved
(``ResourcePool(..., indexed=False)``) as the reference for the
placement-equivalence golden test and the ``bench_perf_scale``
speedup baseline; see ``docs/performance.md``.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.hardware.devices import Device, DeviceSpec, DeviceType

__all__ = ["Allocation", "AllocationError", "PoolSet", "ResourcePool"]

_alloc_ids = itertools.count()


def _frozen_clock() -> float:
    """Default pool clock for pools built without a simulator (unit
    tests): time stands still.  A named function, not a lambda, so
    pools stay picklable for replay snapshots."""
    return 0.0


class AllocationError(Exception):
    """Raised when a pool cannot satisfy a request."""


@dataclass
class Allocation:
    """A live slice of one device granted to one tenant."""

    alloc_id: str
    device: Device
    amount: float
    tenant: str
    single_tenant: bool = False
    released: bool = False
    created_at: float = 0.0

    @property
    def device_type(self) -> DeviceType:
        return self.device.device_type

    @property
    def hourly_cost(self) -> float:
        """On-demand cost of holding this allocation for one hour.

        Single-tenant allocations are billed for the whole device — the
        stranded remainder cannot be sold to anyone else (§3.3's "large
        resource wastes" caveat), which E4 quantifies.
        """
        billed = self.device.spec.capacity if self.single_tenant else self.amount
        return billed * self.device.spec.unit_price_hour


class ResourcePool:
    """All devices of one type, with allocation and utilization telemetry.

    ``indexed=True`` (the default) enables the O(log N) placement index
    and O(1) incremental capacity accounting.  ``indexed=False`` keeps
    the original scan-sort-and-resum behavior as a reference path; both
    modes make identical placement decisions.
    """

    def __init__(self, device_type: DeviceType, clock=None, indexed: bool = True):
        self.device_type = device_type
        self.devices: List[Device] = []
        self._allocations: Dict[str, Allocation] = {}
        #: callable returning current time; wired to the simulator via a
        #: picklable SimClock by the datacenter builder.  Defaults to a
        #: frozen clock for unit tests.  Must stay picklable: snapshots
        #: (repro.replay) serialize pools, and a lambda here would break
        #: them.
        self._clock = clock if clock is not None else _frozen_clock
        self._last_sample_time = 0.0
        self._used_time_integral = 0.0  # ∫ used(t) dt
        self.peak_used = 0.0
        #: Optional predicate applied to candidate devices during
        #: auto-placement; the runtime wires this to its circuit-breaker
        #: registry so tripped devices are skipped.  Explicit ``device=``
        #: requests (standby failover, migration) bypass it.
        self.admission_filter = None
        #: Optional trace sink: when set to a list, every successful
        #: allocate appends ``(device.seq, amount, tenant)`` — the
        #: placement-equivalence golden test hangs off this.
        self.alloc_log: Optional[List[Tuple[int, float, str]]] = None
        #: Placement-cell label (``repro.core.cells``): set by
        #: partition_datacenter so metric gauges carry a ``cell`` label.
        #: None for unsharded pools — label sets stay byte-identical to
        #: the pre-cells output in that case.
        self.cell: Optional[str] = None
        #: bumped by every change to the capacity aggregates: allocate,
        #: release, resize, device membership and failure flips
        self.changes = 0
        #: ``[registry, cell, gauges, changes, clock]`` as of the last
        #: collect_metrics: the gauge handles (so a snapshot does no label
        #: lookups) and what they reflect (so it re-sets only stale ones)
        self._gauges: Optional[list] = None

        self.indexed = indexed
        # Live-capacity accounting (devices that are not failed), kept
        # incrementally in indexed mode.  One definition serves
        # total_capacity, total_used, utilization, _sample, and the
        # utilization report — see _device_is_live.
        self._live_capacity = 0.0
        self._live_used = 0.0
        # Placement index: sorted (free, seq) keys over live devices,
        # globally and per exact location, plus seq lookups.
        self._free_index: List[Tuple[float, int]] = []
        self._loc_index: Dict[object, List[Tuple[float, int]]] = {}
        self._index_keys: Dict[int, Tuple[float, int]] = {}
        self._by_seq: Dict[int, Device] = {}
        self._devices_by_seq: List[Device] = []
        #: (pod, rack) -> live device count, for O(1) rack enumeration
        self._rack_counts: Dict[Tuple[int, int], int] = {}

    # -- construction ------------------------------------------------------

    def add_device(self, device: Device) -> None:
        if device.device_type != self.device_type:
            raise ValueError(
                f"device {device.device_id} is {device.device_type}, "
                f"pool is {self.device_type}"
            )
        self.devices.append(device)
        self.changes += 1
        device._register_pool(self)
        self._by_seq[device.seq] = device
        insort(self._devices_by_seq, device, key=lambda d: d.seq)
        if self._device_is_live(device):
            self._live_capacity += device.spec.capacity
            self._live_used += device.used
            self._rack_add(device)
            if self.indexed:
                self._index_add(device)

    def detach_all_devices(self) -> List[Device]:
        """Deregister every device and return them, ordered by seq.

        Cell partitioning (:func:`repro.core.cells.partition_datacenter`)
        moves a fresh datacenter's devices into per-cell pools; leaving
        them registered here too would let this pool's incremental
        accounting go stale the moment a cell pool allocates (accounting
        deltas only flow to the pool performing the operation).  Bulk
        reset — not per-device removal — so a 100k-device partition is
        O(N), not O(N²) of list deletions.  Refuses to detach while any
        allocation is live: partition before placing.
        """
        if self._allocations:
            raise ValueError(
                f"{self.device_type.value} pool has "
                f"{len(self._allocations)} live allocations; partition "
                f"into cells before placing anything"
            )
        moved = sorted(self.devices, key=lambda d: d.seq)
        for device in moved:
            device._pools.remove(self)
        self.changes += 1
        self.devices = []
        self._live_capacity = 0.0
        self._live_used = 0.0
        self._free_index = []
        self._loc_index = {}
        self._index_keys = {}
        self._by_seq = {}
        self._devices_by_seq = []
        self._rack_counts = {}
        return moved

    # -- capacity accounting -------------------------------------------------

    @staticmethod
    def _device_is_live(device: Device) -> bool:
        """THE definition of live capacity, used by every aggregate below.

        A device counts toward pool capacity unless it has *failed*.
        Devices with open circuit breakers remain live: a breaker gates
        admission (``admission_filter``), not capacity — the hardware is
        still powered, billed, and holding its allocations.
        """
        return not device.failed

    @property
    def total_capacity(self) -> float:
        if self.indexed:
            return self._live_capacity
        return sum(d.spec.capacity for d in self.devices
                   if self._device_is_live(d))

    @property
    def total_used(self) -> float:
        if self.indexed:
            return self._live_used
        return sum(d.recompute_used() for d in self.devices
                   if self._device_is_live(d))

    @property
    def total_free(self) -> float:
        return self.total_capacity - self.total_used

    def max_free(self) -> float:
        """Largest free capacity on any live device (0.0 when none)."""
        if self.indexed:
            return self._free_index[-1][0] if self._free_index else 0.0
        return max(
            (d.free for d in self.devices if self._device_is_live(d)),
            default=0.0,
        )

    def devices_by_seq(self) -> List[Device]:
        """All devices in deterministic ``seq`` order (do not mutate)."""
        return self._devices_by_seq

    def live_rack_locations(self) -> List:
        """Sorted rack-level Locations that hold at least one live device."""
        from repro.hardware.fabric import Location

        if self.indexed:
            return [Location(pod, rack, 0)
                    for pod, rack in sorted(self._rack_counts)]
        racks = {
            (d.location.pod, d.location.rack)
            for d in self.devices
            if self._device_is_live(d) and d.location is not None
        }
        return [Location(pod, rack, 0) for pod, rack in sorted(racks)]

    def utilization(self) -> float:
        """Instantaneous fraction of live capacity in use."""
        cap = self.total_capacity
        return self.total_used / cap if cap else 0.0

    def _sample(self) -> None:
        now = self._clock()
        dt = now - self._last_sample_time
        if dt > 0:
            self._used_time_integral += self.total_used * dt
            self._last_sample_time = now

    def mean_utilization(self) -> float:
        """Time-weighted mean utilization since pool creation."""
        self._sample()
        elapsed = self._last_sample_time
        cap = self.total_capacity
        if elapsed <= 0 or cap <= 0:
            return self.utilization()
        return self._used_time_integral / (elapsed * cap)

    # -- placement index ------------------------------------------------------

    def _index_add(self, device: Device) -> None:
        key = (device.free, device.seq)
        self._index_keys[device.seq] = key
        insort(self._free_index, key)
        insort(self._loc_index.setdefault(device.location, []), key)

    def _index_remove(self, device: Device) -> None:
        key = self._index_keys.pop(device.seq, None)
        if key is None:
            return
        i = bisect_left(self._free_index, key)
        del self._free_index[i]
        bucket = self._loc_index[device.location]
        i = bisect_left(bucket, key)
        del bucket[i]

    def _index_update(self, device: Device) -> None:
        """Re-key one device after its free capacity changed."""
        if not self.indexed or device.seq not in self._index_keys:
            return
        self._index_remove(device)
        self._index_add(device)

    def _rack_add(self, device: Device) -> None:
        if device.location is None:
            return
        rack = (device.location.pod, device.location.rack)
        self._rack_counts[rack] = self._rack_counts.get(rack, 0) + 1

    def _rack_remove(self, device: Device) -> None:
        if device.location is None:
            return
        rack = (device.location.pod, device.location.rack)
        count = self._rack_counts.get(rack, 0) - 1
        if count <= 0:
            self._rack_counts.pop(rack, None)
        else:
            self._rack_counts[rack] = count

    def _on_device_failed_changed(self, device: Device) -> None:
        """Device.failed flipped (failure injection / repair): move the
        device in or out of the live aggregates and the placement index.

        The utilization integral is *not* sampled here, matching the
        naive path: a mid-interval failure changes what the next sample
        credits, exactly as the on-demand re-sum always did.
        """
        if device.seq not in self._by_seq:
            return
        self.changes += 1
        if device.failed:
            self._live_capacity -= device.spec.capacity
            self._live_used -= device.used
            self._rack_remove(device)
            if self.indexed:
                self._index_remove(device)
        else:
            self._live_capacity += device.spec.capacity
            self._live_used += device.used
            self._rack_add(device)
            if self.indexed:
                self._index_add(device)

    def _account(self, device: Device, delta: float) -> None:
        """Apply a used-delta for ``device`` to the live totals + index."""
        if self._device_is_live(device):
            self._live_used += delta
            self._index_update(device)

    # -- allocation ----------------------------------------------------------

    def _candidates(
        self, amount: float, tenant: str, single_tenant: bool,
        preferred_location=None,
    ) -> List[Device]:
        """Naive reference: scan every device, sort by (local, free, seq).

        Kept verbatim as the pre-index hot path; ``indexed`` pools answer
        the same question via :meth:`_best_candidate`.
        """
        fits = [d for d in self.devices if d.can_fit(amount, tenant, single_tenant)]
        if self.admission_filter is not None:
            admitted = [d for d in fits if self.admission_filter(d)]
            # When every candidate is gated off (all breakers open), fall
            # back to the ungated list: a degraded placement beats an
            # unplaceable module.
            if admitted:
                fits = admitted
        # Best-fit: smallest sufficient free capacity limits fragmentation.
        # Locality preference dominates: devices at the preferred location
        # sort first (the scheduler's co-location mechanism, E6).
        def key(device: Device):
            local = 0 if (preferred_location is not None
                          and device.location == preferred_location) else 1
            return (local, device.free, device.seq)

        fits.sort(key=key)
        return fits

    def _best_candidate(
        self, amount: float, tenant: str, single_tenant: bool,
        preferred_location=None,
    ) -> Optional[Device]:
        """Indexed best-fit: the device minimizing (local, free, seq).

        Walks the preferred location's bucket, then the global free index,
        starting at the first entry whose free capacity can hold
        ``amount`` (same epsilon as :meth:`Device.can_fit`).  The
        admission-filter fallback matches the naive path exactly: an
        admitted device anywhere beats an unadmitted one, and only when
        *no* fitting device is admitted does the ungated order apply.
        """
        flt = self.admission_filter
        threshold = (amount - 1e-9,)
        first_fit_local: Optional[Device] = None
        if preferred_location is not None:
            bucket = self._loc_index.get(preferred_location)
            if bucket:
                for _, seq in bucket[bisect_left(bucket, threshold):]:
                    device = self._by_seq[seq]
                    if not device.can_fit(amount, tenant, single_tenant):
                        continue
                    if flt is None or flt(device):
                        # Admitted + local: nothing can sort earlier.
                        return device
                    if first_fit_local is None:
                        first_fit_local = device
        first_fit_global: Optional[Device] = None
        for _, seq in self._free_index[
                bisect_left(self._free_index, threshold):]:
            device = self._by_seq[seq]
            if preferred_location is not None \
                    and device.location == preferred_location:
                continue  # already considered in the local bucket
            if not device.can_fit(amount, tenant, single_tenant):
                continue
            if flt is None or flt(device):
                # Admitted non-local: beats any unadmitted local fit.
                return device
            if first_fit_global is None:
                first_fit_global = device
        # No fitting device is admitted: fall back to the ungated order,
        # locality first.
        return first_fit_local if first_fit_local is not None \
            else first_fit_global

    def allocate(
        self,
        amount: float,
        tenant: str,
        single_tenant: bool = False,
        preferred_location=None,
        device: Optional[Device] = None,
    ) -> Allocation:
        """Grant exactly ``amount`` units to ``tenant``.

        Raises :class:`AllocationError` when no single device can hold the
        request.  (Requests larger than one device must be split by the
        caller — the scheduler does this — because an allocation models a
        contiguous slice of one physical device.)
        """
        if amount <= 0:
            raise AllocationError(f"amount must be positive, got {amount}")
        spec = self._spec()
        if spec is not None and amount < spec.min_grain - 1e-12:
            # Round tiny requests up to the device grain, as real
            # allocators do; never bill below the grain.
            amount = spec.min_grain
        if device is not None:
            if not device.can_fit(amount, tenant, single_tenant):
                raise AllocationError(
                    f"device {device.device_id} cannot fit {amount:g} for {tenant}"
                )
            chosen = device
        else:
            if self.indexed:
                chosen = self._best_candidate(
                    amount, tenant, single_tenant, preferred_location
                )
            else:
                candidates = self._candidates(
                    amount, tenant, single_tenant, preferred_location
                )
                chosen = candidates[0] if candidates else None
            if chosen is None:
                raise AllocationError(
                    f"pool {self.device_type.value}: no device fits {amount:g} "
                    f"{self.device_type.unit} for tenant {tenant!r} "
                    f"(single_tenant={single_tenant}, free={self.total_free:g})"
                )

        self._sample()
        self.changes += 1
        alloc = Allocation(
            alloc_id=f"{tenant}/{self.device_type.value}-{next(_alloc_ids)}",
            device=chosen,
            amount=amount,
            tenant=tenant,
            single_tenant=single_tenant,
            created_at=self._clock(),
        )
        delta = chosen._add_alloc(alloc.alloc_id, amount, tenant)
        self._account(chosen, delta)
        if single_tenant:
            chosen.single_tenant_of = tenant
        self._allocations[alloc.alloc_id] = alloc
        used = self.total_used
        if used > self.peak_used:
            self.peak_used = used
        if self.alloc_log is not None:
            self.alloc_log.append((chosen.seq, amount, tenant))
        return alloc

    def release(self, alloc: Allocation) -> None:
        if alloc.released:
            return
        self._sample()
        self.changes += 1
        alloc.released = True
        device = alloc.device
        delta = device._remove_alloc(alloc.alloc_id, alloc.tenant)
        self._account(device, delta)
        self._allocations.pop(alloc.alloc_id, None)
        if device.single_tenant_of == alloc.tenant \
                and not device.has_tenant(alloc.tenant):
            device.single_tenant_of = None

    def resize(self, alloc: Allocation, new_amount: float) -> Allocation:
        """Grow or shrink an allocation in place (the tuner's mechanism).

        Growing beyond the device's free capacity raises
        :class:`AllocationError`; the tuner then falls back to migration.
        """
        if alloc.released:
            raise AllocationError("cannot resize a released allocation")
        if new_amount <= 0:
            raise AllocationError("new_amount must be positive")
        spec = alloc.device.spec
        new_amount = max(new_amount, spec.min_grain)
        delta = new_amount - alloc.amount
        if delta > alloc.device.free + 1e-9:
            raise AllocationError(
                f"cannot grow {alloc.alloc_id} by {delta:g}: device free is "
                f"{alloc.device.free:g}"
            )
        self._sample()
        self.changes += 1
        alloc.amount = new_amount
        used_delta = alloc.device._resize_alloc(alloc.alloc_id, new_amount)
        self._account(alloc.device, used_delta)
        used = self.total_used
        if used > self.peak_used:
            self.peak_used = used
        return alloc

    def rehome(self, alloc: Allocation, target: Device) -> None:
        """Move a live allocation to ``target`` (defragmentation).

        Pool-level totals are unchanged (same pool); per-device counters,
        tenant refcounts, and the free index follow the move.
        """
        source = alloc.device
        if target is source:
            return
        delta = source._remove_alloc(alloc.alloc_id, alloc.tenant)
        self._account(source, delta)
        delta = target._add_alloc(alloc.alloc_id, alloc.amount, alloc.tenant)
        self._account(target, delta)
        alloc.device = target

    def allocations_for(self, tenant: str) -> List[Allocation]:
        return [a for a in self._allocations.values() if a.tenant == tenant]

    def collect_metrics(self, registry) -> None:
        """Snapshot this pool's capacity gauges into a MetricsRegistry.

        Collector-style (Prometheus idiom): called at scrape/snapshot
        time — never on the allocate/release hot path — so the indexed
        placement fast path pays nothing for metrics.  All values come
        from the incrementally-maintained aggregates.

        Only stale gauges are re-set: capacity, used, peak and
        utilization when :attr:`changes` moved since the last collection
        into this registry, the time-weighted mean also when the clock
        did.
        """
        cached = self._gauges
        now = self._clock()
        if (cached is None or cached[0] is not registry
                or cached[1] != self.cell):
            labels = {"device_type": self.device_type.value}
            if self.cell is not None:
                labels["cell"] = self.cell
            cached = self._gauges = [registry, self.cell, tuple(
                registry.gauge(name, labels) for name in (
                    "udc_pool_capacity_units", "udc_pool_used_units",
                    "udc_pool_peak_used_units", "udc_pool_utilization",
                    "udc_pool_mean_utilization")), None, None]
        capacity, used, peak, utilization, mean = cached[2]
        if cached[3] != self.changes:
            capacity.set(self.total_capacity)
            used.set(self.total_used)
            peak.set(self.peak_used)
            utilization.set(self.utilization())
        elif cached[4] == now:
            return
        mean.set(self.mean_utilization())
        cached[3] = self.changes
        cached[4] = now

    def _spec(self) -> Optional[DeviceSpec]:
        return self.devices[0].spec if self.devices else None

    def check_accounting(self) -> None:
        """Assert every cached counter matches a from-scratch recompute.

        Test/benchmark hook: raises AssertionError on any drift between
        the incremental accounting and the naive definition.
        """
        for device in self.devices:
            resummed = device.recompute_used()
            assert device.used == resummed, (
                f"{device.device_id}: cached used {device.used!r} != "
                f"re-sum {resummed!r}"
            )
            tenants = {a.split("/", 1)[0] for a in device.allocations}
            assert device.tenants == tenants, (
                f"{device.device_id}: tenant refcounts {device.tenants} != "
                f"{tenants}"
            )
        live_cap = sum(d.spec.capacity for d in self.devices
                       if self._device_is_live(d))
        live_used = sum(d.recompute_used() for d in self.devices
                        if self._device_is_live(d))
        assert abs(self.total_capacity - live_cap) < 1e-9
        assert abs(self.total_used - live_used) < 1e-9
        if self.indexed:
            expected = sorted(
                (d.free, d.seq) for d in self.devices
                if self._device_is_live(d)
            )
            assert self._free_index == expected, "free index out of sync"

    def __repr__(self) -> str:
        return (
            f"ResourcePool({self.device_type.value}, devices={len(self.devices)}, "
            f"used={self.total_used:g}/{self.total_capacity:g})"
        )


@dataclass
class PoolSet:
    """The full set of pools in one datacenter, keyed by device type."""

    pools: Dict[DeviceType, ResourcePool] = field(default_factory=dict)

    def pool(self, device_type: DeviceType) -> ResourcePool:
        if device_type not in self.pools:
            raise KeyError(f"datacenter has no {device_type.value} pool")
        return self.pools[device_type]

    def __contains__(self, device_type: DeviceType) -> bool:
        return device_type in self.pools

    def __iter__(self):
        return iter(self.pools.values())

    def hourly_cost(self, tenant: str) -> float:
        """Current burn rate of all of ``tenant``'s live allocations."""
        return sum(
            alloc.hourly_cost
            for pool in self.pools.values()
            for alloc in pool.allocations_for(tenant)
        )

    def utilization_report(self) -> Dict[str, float]:
        return {
            dtype.value: pool.mean_utilization()
            for dtype, pool in sorted(self.pools.items(), key=lambda kv: kv[0].value)
        }

    def collect_metrics(self, registry) -> None:
        """Snapshot every pool's gauges (see ResourcePool.collect_metrics)."""
        for _dtype, pool in sorted(self.pools.items(),
                                   key=lambda kv: kv[0].value):
            pool.collect_metrics(registry)


def total_fragmentation(pool: ResourcePool) -> float:
    """Fraction of free capacity stranded in slices below min_grain."""
    spec = pool._spec()
    if spec is None:
        return 0.0
    stranded = sum(
        d.free for d in pool.devices
        if not d.failed and 0 < d.free < spec.min_grain
    )
    free = pool.total_free
    return stranded / free if free else 0.0


def is_amount_valid(spec: DeviceSpec, amount: float) -> bool:
    """Whether ``amount`` is a legal request against devices of ``spec``."""
    return (
        amount > 0
        and amount <= spec.capacity
        and not math.isnan(amount)
        and not math.isinf(amount)
    )
