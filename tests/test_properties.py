"""Property-based tests (hypothesis) on core data structures & invariants."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.distsem.consistency import ConsistencyLevel, strictest
from repro.execenv.protection import ProtectionPolicy, SecureChannel
from repro.hardware.catalog import UNIT_PRICES, default_catalog
from repro.hardware.devices import DEFAULT_SPECS, Device, DeviceType
from repro.hardware.fabric import Fabric, Location
from repro.hardware.pools import AllocationError, ResourcePool
from repro.hardware.server import ServerCluster, ServerSpec, WorkloadDemand
from repro.simulator import Simulator
from repro.simulator.rng import derive_seed

# ------------------------------------------------------------ pools


@st.composite
def allocation_plans(draw):
    """A sequence of (amount, tenant) requests against a CPU pool."""
    n = draw(st.integers(1, 20))
    return [
        (
            draw(st.floats(0.25, 8.0, allow_nan=False)),
            draw(st.sampled_from(["a", "b", "c"])),
        )
        for _ in range(n)
    ]


@given(allocation_plans())
@settings(max_examples=60, deadline=None)
def test_pool_conservation(plan):
    """used + free == capacity after any allocate/release interleaving,
    and no device is ever oversubscribed."""
    pool = ResourcePool(DeviceType.CPU)
    for _ in range(3):
        pool.add_device(Device(spec=DEFAULT_SPECS[DeviceType.CPU]))
    live = []
    for index, (amount, tenant) in enumerate(plan):
        try:
            live.append(pool.allocate(amount, tenant))
        except AllocationError:
            pass
        if index % 3 == 2 and live:
            pool.release(live.pop(0))
    assert pool.total_used + pool.total_free == pytest.approx(
        pool.total_capacity)
    for device in pool.devices:
        assert device.used <= device.spec.capacity + 1e-9
    for allocation in live:
        pool.release(allocation)
    assert pool.total_used == pytest.approx(0.0)


@given(st.floats(0.25, 32.0), st.floats(0.25, 32.0))
@settings(max_examples=40, deadline=None)
def test_resize_preserves_conservation(initial, target):
    pool = ResourcePool(DeviceType.CPU)
    pool.add_device(Device(spec=DEFAULT_SPECS[DeviceType.CPU]))
    alloc = pool.allocate(initial, "t")
    try:
        pool.resize(alloc, target)
    except AllocationError:
        pass
    assert pool.total_used + pool.total_free == pytest.approx(
        pool.total_capacity)
    assert pool.total_used == pytest.approx(alloc.amount)


# ------------------------------------------------------------ fabric


locations = st.builds(
    Location,
    pod=st.integers(0, 3),
    rack=st.integers(0, 5),
    slot=st.integers(0, 8),
)


@given(locations, locations, st.integers(1, 1 << 24))
@settings(max_examples=80, deadline=None)
def test_transfer_time_nonnegative_and_symmetric(src, dst, size):
    fabric = Fabric(Simulator())
    forward = fabric.transfer_time(src, dst, size)
    backward = fabric.transfer_time(dst, src, size)
    assert forward >= 0
    assert forward == pytest.approx(backward)


@given(locations, locations, st.integers(1, 1 << 20), st.integers(1, 1 << 20))
@settings(max_examples=60, deadline=None)
def test_transfer_time_monotone_in_size(src, dst, a, b):
    fabric = Fabric(Simulator())
    small, large = sorted((a, b))
    assert fabric.transfer_time(src, dst, small) <= \
        fabric.transfer_time(src, dst, large)


# ------------------------------------------------------------ protection


policies = st.builds(
    ProtectionPolicy,
    encrypt=st.booleans(),
    integrity=st.booleans(),
    replay_protect=st.booleans(),
)


@given(policies, st.binary(min_size=0, max_size=2048))
@settings(max_examples=80, deadline=None)
def test_protect_unprotect_roundtrip(policy, payload):
    channel = SecureChannel(b"shared", policy, "ch")
    assert channel.unprotect(channel.protect(payload)) == payload


@given(st.binary(min_size=1, max_size=512), st.integers(0, 511))
@settings(max_examples=60, deadline=None)
def test_any_bitflip_detected(payload, position):
    from repro.execenv.protection import IntegrityError

    position %= len(payload)
    channel = SecureChannel(
        b"shared", ProtectionPolicy(encrypt=True, integrity=True), "ch"
    )
    blob = channel.protect(payload)
    body = bytearray(blob.body)
    body[position] ^= 0x01
    import dataclasses

    tampered = dataclasses.replace(blob, body=bytes(body))
    with pytest.raises(IntegrityError):
        channel.unprotect(tampered)


@given(policies, policies)
@settings(max_examples=40, deadline=None)
def test_protection_strictest_commutative_and_monotone(a, b):
    merged = a.strictest(b)
    assert merged == b.strictest(a)
    for flag in ("encrypt", "integrity", "replay_protect"):
        assert getattr(merged, flag) == (getattr(a, flag) or getattr(b, flag))


# ------------------------------------------------------------ consistency lattice


levels = st.sampled_from(list(ConsistencyLevel))


@given(levels, levels, levels)
@settings(max_examples=30, deadline=None)
def test_strictest_is_a_join(a, b, c):
    assert strictest(a, b) == strictest(b, a)
    assert strictest(a, a) == a
    assert strictest(strictest(a, b), c) == strictest(a, strictest(b, c))
    assert strictest(a, b).rank >= max(a.rank, b.rank) - 0  # == actually
    assert strictest(a, b).rank == max(a.rank, b.rank)


# ------------------------------------------------------------ catalog


demands = st.builds(
    WorkloadDemand,
    cpus=st.floats(0.25, 64.0),
    mem_gb=st.floats(0.5, 512.0),
    gpus=st.sampled_from([0.0, 0.0, 0.0, 1.0, 4.0, 8.0]),
    duty=st.floats(0.1, 1.0),
)


@given(demands)
@settings(max_examples=100, deadline=None)
def test_cheapest_fit_covers_and_waste_bounded(demand):
    catalog = default_catalog()
    instance = catalog.cheapest_fit(demand)
    if instance is None:
        # Nothing covers it; must exceed the largest shape somewhere.
        assert demand.cpus > 96 or demand.mem_gb > 768 or demand.gpus > 8
        return
    assert instance.fits(demand)
    # No cheaper instance also fits.
    for other in catalog:
        if other.price_hour < instance.price_hour:
            assert not other.fits(demand)
    waste = 1.0 - (
        demand.duty * (
            min(demand.cpus, instance.vcpus) * UNIT_PRICES["vcpu"]
            + min(demand.mem_gb, instance.mem_gb) * UNIT_PRICES["mem_gb"]
            + min(demand.gpus, instance.gpus) * UNIT_PRICES["gpu"]
        ) / instance.price_hour
    )
    assert -1e-9 <= waste <= 1.0


# ------------------------------------------------------------ bin packing


@given(st.lists(demands, min_size=1, max_size=30))
@settings(max_examples=40, deadline=None)
def test_ffd_never_oversubscribes(demand_list):
    spec = ServerSpec(cpus=64, mem_gb=512, gpus=8)
    cluster = ServerCluster(spec)
    placement = cluster.pack(demand_list)
    for server in cluster.servers:
        for dim, capacity in spec.dimensions().items():
            assert server.used(dim) <= capacity + 1e-6
    placed = len(placement.assignments) + len(placement.unplaced)
    assert placed == len(demand_list)


# ------------------------------------------------------------ rng


@given(st.integers(0, 2**31), st.text(min_size=0, max_size=20))
@settings(max_examples=60, deadline=None)
def test_derive_seed_in_range_and_stable(seed, name):
    value = derive_seed(seed, name)
    assert 0 <= value < 2**64
    assert value == derive_seed(seed, name)
