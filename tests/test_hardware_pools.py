"""Tests for devices and exact-amount pool allocation."""

import pytest

from repro.hardware.devices import DEFAULT_SPECS, Device, DeviceSpec, DeviceType
from repro.hardware.pools import AllocationError, ResourcePool


def make_pool(device_type=DeviceType.CPU, devices=2, clock=None):
    pool = ResourcePool(device_type, clock=clock)
    for _ in range(devices):
        pool.add_device(Device(spec=DEFAULT_SPECS[device_type]))
    return pool


def test_exact_fractional_allocation():
    pool = make_pool()
    alloc = pool.allocate(2.5, "tenant-a")
    assert alloc.amount == 2.5
    assert pool.total_used == 2.5
    pool.release(alloc)
    assert pool.total_used == 0.0


def test_sub_grain_request_rounds_up_to_grain():
    pool = make_pool()
    alloc = pool.allocate(0.1, "tenant-a")  # CPU grain is 0.25
    assert alloc.amount == 0.25


def test_wrong_device_type_rejected():
    pool = ResourcePool(DeviceType.CPU)
    with pytest.raises(ValueError):
        pool.add_device(Device(spec=DEFAULT_SPECS[DeviceType.GPU]))


def test_overcommit_rejected():
    pool = make_pool(devices=1)
    pool.allocate(30, "a")
    with pytest.raises(AllocationError):
        pool.allocate(3, "b")  # only 2 left on the single 32-core device


def test_nonpositive_amount_rejected():
    pool = make_pool()
    with pytest.raises(AllocationError):
        pool.allocate(0, "a")
    with pytest.raises(AllocationError):
        pool.allocate(-1, "a")


def test_best_fit_prefers_fuller_device():
    pool = make_pool(devices=2)
    first = pool.allocate(30, "a")  # device now has 2 free
    second = pool.allocate(2, "b")  # best fit: the 2-free device
    assert second.device is first.device


def test_single_tenant_excludes_other_tenants():
    pool = make_pool(devices=1)
    pool.allocate(1, "alice", single_tenant=True)
    with pytest.raises(AllocationError):
        pool.allocate(1, "bob")
    # Alice herself can still grow on her device.
    again = pool.allocate(1, "alice")
    assert again.amount == 1


def test_single_tenant_requires_empty_device():
    pool = make_pool(devices=1)
    pool.allocate(1, "alice")
    with pytest.raises(AllocationError):
        pool.allocate(1, "bob", single_tenant=True)


def test_single_tenant_pin_clears_after_release():
    pool = make_pool(devices=1)
    alloc = pool.allocate(1, "alice", single_tenant=True)
    pool.release(alloc)
    assert pool.devices[0].single_tenant_of is None
    assert pool.allocate(1, "bob").amount == 1


def test_single_tenant_billed_for_whole_device():
    pool = make_pool(devices=1)
    shared = pool.allocate(1, "a")
    assert shared.hourly_cost == pytest.approx(1 * 0.048)
    pool.release(shared)
    exclusive = pool.allocate(1, "a", single_tenant=True)
    assert exclusive.hourly_cost == pytest.approx(32 * 0.048)


def test_release_idempotent():
    pool = make_pool()
    alloc = pool.allocate(1, "a")
    pool.release(alloc)
    pool.release(alloc)  # no error
    assert pool.total_used == 0


def test_resize_grow_and_shrink():
    pool = make_pool(devices=1)
    alloc = pool.allocate(4, "a")
    pool.resize(alloc, 8)
    assert alloc.amount == 8
    assert pool.total_used == 8
    pool.resize(alloc, 2)
    assert pool.total_used == 2


def test_resize_beyond_device_capacity_fails():
    pool = make_pool(devices=1)
    alloc = pool.allocate(4, "a")
    pool.allocate(27, "a")
    with pytest.raises(AllocationError):
        pool.resize(alloc, 6)  # device has only 1 free


def test_resize_released_allocation_fails():
    pool = make_pool()
    alloc = pool.allocate(1, "a")
    pool.release(alloc)
    with pytest.raises(AllocationError):
        pool.resize(alloc, 2)


def test_failed_device_excluded_from_capacity_and_allocation():
    pool = make_pool(devices=2)
    pool.devices[0].failed = True
    assert pool.total_capacity == 32
    for _ in range(2):
        alloc = pool.allocate(16, "a")
        assert alloc.device is pool.devices[1]
    with pytest.raises(AllocationError):
        pool.allocate(1, "a")


def test_preferred_location_wins():
    from repro.hardware.fabric import Location

    pool = ResourcePool(DeviceType.CPU)
    near = Device(spec=DEFAULT_SPECS[DeviceType.CPU], location=Location(0, 0))
    far = Device(spec=DEFAULT_SPECS[DeviceType.CPU], location=Location(0, 1))
    pool.add_device(far)
    pool.add_device(near)
    alloc = pool.allocate(1, "a", preferred_location=Location(0, 0))
    assert alloc.device is near


def test_mean_utilization_time_weighted():
    clock = {"t": 0.0}
    pool = make_pool(devices=1, clock=lambda: clock["t"])
    alloc = pool.allocate(16, "a")   # 50% of 32
    clock["t"] = 10.0
    pool.release(alloc)              # used 50% for 10s
    clock["t"] = 20.0
    # 10s at 50% + 10s at 0% = 25% mean
    assert pool.mean_utilization() == pytest.approx(0.25)


def test_allocations_for_tenant():
    pool = make_pool()
    pool.allocate(1, "a")
    pool.allocate(2, "a")
    pool.allocate(3, "b")
    assert len(pool.allocations_for("a")) == 2
    assert len(pool.allocations_for("b")) == 1


def test_device_spec_validation():
    with pytest.raises(ValueError):
        DeviceSpec(DeviceType.CPU, capacity=0)
    with pytest.raises(ValueError):
        DeviceSpec(DeviceType.CPU, capacity=8, min_grain=16)


def test_device_tenants_property():
    pool = make_pool(devices=1)
    pool.allocate(1, "a")
    pool.allocate(1, "b")
    assert pool.devices[0].tenants == {"a", "b"}


def test_device_class_taxonomy():
    assert DeviceType.GPU.device_class.value == "compute"
    assert DeviceType.DRAM.device_class.value == "memory"
    assert DeviceType.SSD.device_class.value == "storage"
    assert DeviceType.SWITCH.device_class.value == "network"
    assert DeviceType.CPU.unit == "cores"
    assert DeviceType.NVM.unit == "GB"


# ------------------------------------------------- collector gauges


def _fresh(pool):
    return (pool.total_capacity, pool.total_used, pool.peak_used,
            pool.utilization(), pool.mean_utilization())


def test_collect_metrics_resets_only_stale_gauges(monkeypatch):
    """A snapshot re-sets capacity/used/peak/utilization only after the
    pool changed, and the time-weighted mean only when the pool or the
    clock moved; the gauges always read what a full refresh would."""
    from repro.core.observability import Gauge, MetricsRegistry

    sets = []
    original = Gauge.set
    monkeypatch.setattr(Gauge, "set",
                        lambda self, value: (sets.append(value),
                                             original(self, value)))
    now = [0.0]
    pool = make_pool(clock=lambda: now[0])
    registry = MetricsRegistry()

    def collect():
        del sets[:]
        pool.collect_metrics(registry)
        names = ("udc_pool_capacity_units", "udc_pool_used_units",
                 "udc_pool_peak_used_units", "udc_pool_utilization",
                 "udc_pool_mean_utilization")
        values = tuple(registry.gauge(name, {"device_type": "cpu"}).value
                       for name in names)
        assert values == _fresh(pool)
        return len(sets)

    assert collect() == 5
    assert collect() == 0              # nothing changed
    now[0] = 10.0
    assert collect() == 1              # only the clock moved
    alloc = pool.allocate(4.0, "t")
    assert collect() == 5
    now[0] = 20.0
    pool.resize(alloc, 8.0)
    assert collect() == 5
    pool.release(alloc)
    assert collect() == 5
    pool.devices[0].failed = True      # a failure flip changes capacity
    assert collect() == 5
    assert collect() == 0
    other = MetricsRegistry()          # another registry starts full
    del sets[:]
    pool.collect_metrics(other)
    assert len(sets) == 5
