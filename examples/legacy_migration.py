#!/usr/bin/env python3
"""Migrating a legacy monolith onto UDC (paper §4, "Supporting legacy
software").

``examples/legacy/sensor_rollup.py`` is an un-modularized IoT script:
global stores, plain functions, and a few ``udc:`` hints in docstrings.
The whole-program analyzer reads its source (never executing it), cuts
it into task and data modules, and emits a definition that passes
``udc lint`` with zero findings.  The script itself then supplies the
function bodies, and the migrated application runs on UDC.

Run:  python examples/legacy_migration.py
"""

from pathlib import Path

from repro import UDCRuntime, build_datacenter
from repro.analysis.program import attach_functions, input_payload, modularize
from repro.hardware.topology import DatacenterSpec

SOURCE = Path(__file__).resolve().parent / "legacy" / "sensor_rollup.py"


def main():
    source = SOURCE.read_text(encoding="utf-8")
    result = modularize(source, name="sensor_rollup")
    print(f"cutting {SOURCE.name} into UDC modules:")
    for group in result.cut.groups:
        print(f"  {group.kind:<4} {group.name}: {list(group.members)}")
    print(f"cross-module traffic: {result.cut.cross_bytes:,} B "
          f"({result.cut.internal_bytes:,} B kept inside modules)")

    # The analyzer never runs the legacy code; the migration does, to
    # hand each emitted task module the functions it is made of.  The
    # script's __main__ guard keeps its own demo from firing.
    namespace = {"__name__": "sensor_rollup_legacy"}
    exec(compile(source, str(SOURCE), "exec"), namespace)
    app = attach_functions(result.model, result.cut, result.emitted,
                           namespace)
    batch = [{"sensor": "s-1", "value": 3.5},
             {"sensor": "s-2", "value": 7.25},
             {"sensor": "s-1", "value": 4.0}]

    runtime = UDCRuntime(build_datacenter(DatacenterSpec(pods=1,
                                                         racks_per_pod=4)))
    run = runtime.run(app, result.emitted.definition, tenant="migrator",
                      inputs=input_payload(result.model, result.emitted,
                                           batch=batch))
    print(f"\nmigrated app ran in {run.makespan_s:.2f}s for "
          f"${run.total_cost:.6f}")
    for module, output in sorted(run.outputs.items()):
        print(f"  {module}: {output}")
    assert run.total_failures == 0
    print("legacy migration OK")


if __name__ == "__main__":
    main()
