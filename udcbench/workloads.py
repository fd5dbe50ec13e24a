"""Workload shapes shared by the benchmark runner and the SUT process.

Every shape is fixed here, tenant population included; the only
per-run input is the seed, which drives the generated submission trace
(and, for the gateway, the client's tenant order and payloads).
"""

from __future__ import annotations

#: in-process workloads: replayed through ``UDCService`` the way
#: ``udc serve`` replays a generated tenant trace
INPROC = {
    # Diurnal multi-tenant interactive stream (SPEC RG pattern: periodic
    # load with tenant-staggered peaks), telemetry and tuner on.
    "serve-trace": {
        "tenants": 64,
        "population_seed": 0,
        "rate_per_min": 2.0,
        "minutes": 10.0,
        "repeat_fraction": 0.25,
        "round_every": 8,
        "cache_capacity": 128,
        "cells": 1,
        "pods": 1,
        "racks": 4,
        "telemetry": True,
        "autopilot": False,
        "warm": False,
        "spot_fraction": 0.0,
        "budget": None,
        "failures": None,
        "task_retry": None,
    },
    # Elastic fleet with churn (SPEC RG pattern: bursty batch arrivals
    # on shared capacity with failures and spot reclaim), telemetry off.
    "fleet-churn": {
        "tenants": 64,
        "population_seed": 0,
        "rate_per_min": 2.0,
        "minutes": 40.0,
        "repeat_fraction": 0.5,
        # large rounds on one rack per cell: placements spill across
        # cells, park in admission queues and preempt spot work
        "round_every": 64,
        # room for the repeated payloads so cache hits are a real share
        "cache_capacity": 1024,
        "cells": 4,
        "pods": 1,
        "racks": 4,
        "telemetry": False,
        "autopilot": True,
        "warm": True,
        "spot_fraction": 0.5,
        "budget": 1.0e6,
        # every ``every``-th round, fail one module-default failure
        # domain (rotating through the archetypes' task modules)
        # ``delay_s`` simulated seconds into the round and repair it
        # ``repair_s`` later
        "failures": {"every": 4, "delay_s": 1.0, "repair_s": 2.0},
        # declared by every tenant on its task modules: back off past
        # the repair window before re-placing a crashed task
        "task_retry": {"max_attempts": 3, "base_backoff_s": 3.0},
    },
}

#: task modules of the cluster archetypes, in the order failures rotate
FAILURE_MODULES = ("api", "extract", "ingest", "preproc", "render",
                   "aggregate", "process", "model")

#: the gateway workload: one server process, one client process
GATEWAY = {
    # tenants share the server round-robin; with the window below each
    # tenant has at most one submission in flight
    "tenants": 64,
    # closed-loop in-flight window: enough to keep every engine tick
    # busy, far below the server's max_live=512 so nothing is shed
    "window": 16,
    # fixed work per server process: results collected before shutdown
    "results": 400,
    "pods": 1,
    "racks": 4,
}

WORKLOADS = ("serve-trace", "gateway-stream", "fleet-churn")
