"""The one submission key: computed once at ``UDCService.submit()``.

Covers the key's contract — fluent builders key by content, not by
object, and anything that is not a definition is refused — and that each
submission is fingerprinted exactly once however it reaches placement:
serial, batched, spilled across cells, parked in the admission queue
and retried, or preempted and redeployed.
"""

import itertools

import pytest

import repro.hardware.devices as devices_mod
import repro.hardware.pools as pools_mod
import repro.service.cache as cache_mod
from repro.appmodel.annotations import AppBuilder
from repro.core.builder import define
from repro.hardware.devices import DeviceType
from repro.hardware.topology import DatacenterSpec, build_datacenter
from repro.service import TenantSpec, UDCService, tenant_spec
from repro.service.cache import SubmissionKey, definition_fingerprint

#: one rack, 16 GPUs: a 16-GPU job owns the datacenter
TINY = DatacenterSpec(
    pods=1, racks_per_pod=1,
    devices_per_rack={DeviceType.CPU: 2, DeviceType.GPU: 2,
                      DeviceType.DRAM: 1, DeviceType.SSD: 1},
)
#: four pods -> four cells of 2 racks each (32 gpus, 1024 GB DRAM each)
QUAD = DatacenterSpec(
    pods=4, racks_per_pod=2,
    devices_per_rack={DeviceType.CPU: 2, DeviceType.GPU: 2,
                      DeviceType.DRAM: 1, DeviceType.SSD: 1},
)


def gpu_job(name, gpus=16, work=20.0, hot_gb=None):
    app = AppBuilder(name)

    @app.task(name="train", work=work, devices={DeviceType.GPU})
    def train(ctx):
        return name

    if hot_gb is not None:
        app.data("corpus", size_gb=hot_gb, hot=True)
    return app.build(), {"train": {"resource": {"device": "gpu",
                                                "amount": gpus}}}


# ------------------------------------------------------------ contract


def test_builders_key_by_content_not_by_object():
    """Builders used to key by ``repr`` — their memory address — so a
    rejected builder's verdict could answer a later, different builder
    allocated at the same address."""
    first = define().module("train").resource(device="gpu", amount=4)
    second = define().module("train").resource(device="gpu", amount=4)
    other = define().module("train").resource(device="gpu", amount=8)
    assert first is not second
    assert definition_fingerprint(first) == definition_fingerprint(second)
    assert definition_fingerprint(first) != definition_fingerprint(other)
    # A builder keys exactly as the raw dict it compiles to.
    assert definition_fingerprint(first) == \
        definition_fingerprint(first.to_dict())
    app, _ = gpu_job("keyed")
    assert SubmissionKey.of("t", app, first, None) == \
        SubmissionKey.of("t", app, second.to_dict(), None)


def test_non_definition_is_refused_at_submit():
    service = UDCService(build_datacenter(TINY))
    app, _ = gpu_job("typed")
    with pytest.raises(TypeError, match="definition must be"):
        service.submit("t", app, "train: gpu")
    with pytest.raises(TypeError):
        definition_fingerprint(["train"])


# ---------------------------------------------- one fingerprint per submit


@pytest.fixture
def fingerprints(monkeypatch):
    """Counts every DAG, definition and inputs canonicalization."""
    counts = {"dag": 0, "definition": 0, "inputs": 0}

    def counted(kind, original):
        def wrapper(*args, **kwargs):
            counts[kind] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cache_mod, "dag_fingerprint",
                        counted("dag", cache_mod.dag_fingerprint))
    monkeypatch.setattr(cache_mod, "definition_fingerprint",
                        counted("definition",
                                cache_mod.definition_fingerprint))
    monkeypatch.setattr(cache_mod, "inputs_fingerprint",
                        counted("inputs", cache_mod.inputs_fingerprint))
    return counts


def _assert_once_each(counts, submits):
    assert counts == {"dag": submits, "definition": submits,
                      "inputs": submits}


@pytest.mark.parametrize("batched", [False, True], ids=["serial", "batched"])
def test_fingerprinted_once_per_submit(fingerprints, batched):
    service = UDCService(build_datacenter(TINY), batched=batched)
    app, definition = gpu_job("steady", gpus=1, work=2.0)
    for index in range(6):
        service.submit("t", app, definition, inputs={"train": index % 3})
        if index == 2:
            service.drain()
    service.drain()
    # Three distinct inputs: three executions, then three cache hits.
    assert service.cache_stats.hits == 3
    _assert_once_each(fingerprints, 6)
    if batched:
        memo = service.runtime.admission_memo
        assert memo.stats.misses == 1 and memo.stats.hits == 2


def test_fingerprinted_once_across_cell_spills(fingerprints):
    devices_mod._device_ids = itertools.count()
    pools_mod._alloc_ids = itertools.count()
    service = UDCService(build_datacenter(QUAD), cells=4,
                         result_cache_capacity=0)
    # Cell 0 looks roomiest but has only 15 GPUs free; cells 1-3 have
    # every GPU free but less DRAM headroom, so cell 0 ranks first and
    # every 16-GPU job spills off it.
    gpu0 = service.cell_runtimes[0].datacenter.pool(DeviceType.GPU)
    for amount in (8.0, 8.0, 1.0):
        gpu0.allocate(amount, "filler")
    for cell in (1, 2, 3):
        dram = service.cell_runtimes[cell].datacenter.pool(DeviceType.DRAM)
        dram.allocate(512.0, "filler")
        dram.allocate(442.0, "filler")
    app, definition = gpu_job("spiller", work=4.0, hot_gb=64.0)
    handles = [service.submit("t", app, definition) for _ in range(3)]
    service.drain()
    assert all(h.status == "done" for h in handles)
    assert service.router.spills == 3
    assert sorted(h.cell for h in handles) == [1, 2, 3]
    _assert_once_each(fingerprints, 3)


def test_fingerprinted_once_across_admission_retries(fingerprints):
    service = UDCService(build_datacenter(TINY), result_cache_capacity=0)
    app, definition = gpu_job("hog")
    handles = [service.submit("t", app, definition) for _ in range(4)]
    service.dispatch_round()
    assert [h.status for h in handles].count("queued") == 3
    service.drain()
    assert all(h.status == "done" for h in handles)
    assert all(h.submission.queue_wait_s > 0 for h in handles[1:])
    # Every retry deploy reused the key: one template built, and each
    # later deploy attempt (failed retries included) hit it.
    memo = service.runtime.admission_memo
    assert memo.stats.misses == 1 and memo.stats.hits >= 3
    _assert_once_each(fingerprints, 4)


def test_fingerprinted_once_across_preemption_redeploy(fingerprints):
    service = UDCService(build_datacenter(TINY))
    service.register_tenant("spot", tenant_spec().spot())
    service.register_tenant("firm", TenantSpec())
    spot = service.submit("spot", *gpu_job("spotjob", work=50.0))
    service.dispatch_round()
    firm = service.submit("firm", *gpu_job("firmjob", work=5.0))
    service.dispatch_round()
    assert service.preemptions == 1
    service.drain()
    assert spot.status == "done" and firm.status == "done"
    assert spot.submission.preemptions == 1
    _assert_once_each(fingerprints, 2)
