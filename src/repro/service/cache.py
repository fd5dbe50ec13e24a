"""The submission key and the bounded caches it feeds.

:meth:`UDCService.submit <repro.service.service.UDCService.submit>`
fingerprints each submission once, into a :class:`SubmissionKey`: DAG
shape, identity (app name and code hashes), definition, inputs and the
tenant-scope decision.  Every front-door structure keys off those parts:

* :class:`ResultCache` — completed executions, keyed by all five parts:
  a tenant re-submitting byte-identical work gets the finished
  :class:`~repro.core.report.RunResult` back without consuming capacity.
  Tenant-confidential apps key by tenant (:func:`requires_tenant_scope`).
* the lint memo — a :class:`ResultCache` of analysis reports keyed by
  shape, identity, definition and the tenant's tier.
* :class:`AdmissionMemo` — admission templates (validation, parsing,
  conflict resolution, provider defaults) keyed by shape, definition and
  conflict policy only, so tenants submitting the same app shape share
  one.  Placement still runs per submission against live pool state.

The service reads app, definition and inputs once, at ``submit()``:
callers must not mutate them until the handle finalizes.  Fingerprints
are canonical nested tuples (hashable, order-normalized) — no
serialization, no timestamps, fully deterministic in-process.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, NamedTuple, Optional, Tuple

from repro.appmodel.dag import ModuleDAG
from repro.appmodel.module import TaskModule
from repro.core.conflicts import ConflictPolicy, ConflictResolution
from repro.core.report import RunResult
from repro.core.spec import UserDefinition

__all__ = [
    "AdmissionMemo",
    "CacheStats",
    "ResultCache",
    "SubmissionKey",
    "dag_fingerprint",
    "definition_fingerprint",
    "inputs_fingerprint",
    "requires_tenant_scope",
]


_LEAVES = (str, int, float, bool, type(None))


def _canon(value: Any) -> Any:
    """Canonical, hashable form of a JSON-ish value (dict order ignored)."""
    if isinstance(value, _LEAVES):
        return value
    if isinstance(value, dict):
        if all(type(k) is str for k in value):
            # Plain-str keys sort as their str(): skip the key function.
            return ("d", *[(k, _canon(value[k])) for k in sorted(value)])
        return ("d", *[
            (str(k), _canon(v))
            for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))
        ])
    if isinstance(value, (list, tuple)):
        return ("l", *[_canon(v) for v in value])
    if isinstance(value, (set, frozenset)):
        return ("s",) + tuple(sorted(repr(_canon(v)) for v in value))
    return repr(value)


def dag_fingerprint(dag: ModuleDAG) -> Tuple[Tuple, Tuple]:
    """``(shape, identity)`` of an application DAG.

    ``shape`` is everything admission can observe, without the app name
    or any code hash; ``identity`` is ``(app name, task code hashes in
    sorted module order)``, so different code never shares results.
    """
    modules = []
    code_hashes = []
    for name in sorted(dag.modules):
        module = dag.modules[name]
        if isinstance(module, TaskModule):
            modules.append((
                "task", name, module.work,
                tuple(sorted(d.value for d in module.device_candidates)),
                module.output_bytes, module.state_bytes,
                module.max_parallelism, module.sanitizer,
            ))
            code_hashes.append(module.code_hash)
        else:
            modules.append((
                "data", name, module.size_gb, module.record_bytes,
                module.hot, module.sensitivity,
            ))
    edges = tuple(sorted(
        (e.src, e.dst, e.bytes_transferred) for e in dag.edges
    ))
    groups = tuple(sorted(
        tuple(sorted(group)) for group in dag.colocate_groups
    ))
    affinities = tuple(sorted(
        (task, data, weight)
        for (task, data), weight in dag.affinities.items()
    ))
    shape = (tuple(modules), edges, groups, affinities)
    return shape, (dag.name, tuple(code_hashes))


def _keyable(definition: Any) -> "UserDefinition | Dict | None":
    """The definition as a dict, UserDefinition or None: fluent builders
    become the dict they compile to; anything else raises TypeError."""
    if definition is None or isinstance(definition, (dict, UserDefinition)):
        return definition
    if hasattr(definition, "build_definition"):
        return definition.to_dict()
    raise TypeError(
        f"definition must be a dict, UserDefinition or definition "
        f"builder, got {type(definition).__name__}"
    )


def definition_fingerprint(definition: Any) -> Tuple:
    """Canonical key for a definition in any accepted form: dicts (and
    builders, as their dict) without parsing — the admission memo exists
    to skip ``parse_definition`` — and parsed ones by their repr."""
    definition = _keyable(definition)
    if definition is None:
        return ("none",)
    if isinstance(definition, dict):
        return ("dict", _canon(definition))
    return ("parsed", tuple(
        (name, repr(bundle))
        for name, bundle in sorted(definition.bundles.items())
    ))


def inputs_fingerprint(inputs: Optional[Dict[str, Any]]) -> Tuple:
    return _canon(inputs or {})


def _requests_encryption(definition: Any) -> bool:
    """True when any module's execenv asks for ``encrypt`` protection."""
    definition = _keyable(definition)
    if isinstance(definition, UserDefinition):
        return any(
            bundle.execenv is not None and bundle.execenv.protection.encrypt
            for bundle in definition.bundles.values()
        )
    for aspects in (definition or {}).values():
        execenv = aspects.get("execenv") if isinstance(aspects, dict) else {}
        flags = execenv.get("protection") if isinstance(execenv, dict) else ()
        flags = [flags] if isinstance(flags, str) else flags
        if isinstance(flags, (list, tuple, set, frozenset)) \
                and "encrypt" in {str(flag).lower() for flag in flags}:
            return True
    return False


def requires_tenant_scope(dag: ModuleDAG, definition: Any) -> bool:
    """True when the app's results are tenant-confidential: a module
    carries a non-``public`` sensitivity label (the C4 lattice ``public <
    anonymized < phi``), or the definition asks an execenv to encrypt.

    Such results must never be served across tenants, even for
    byte-identical submissions; everything else shares cache entries.
    """
    return any(
        getattr(module, "sensitivity", None) not in (None, "public")
        for module in dag.modules.values()
    ) or _requests_encryption(definition)


class SubmissionKey(NamedTuple):
    """The one fingerprint of a submission, computed at ``submit()``.

    The result cache (:attr:`result`), lint memo (:meth:`lint`) and
    admission memo (:meth:`admission`) all key off these parts; the key
    rides on the submission through dispatch, cell spills, admission
    retries and preemption redeploys, so nothing is fingerprinted twice.
    """

    #: admission-visible DAG structure, without app name or code hashes
    shape: Tuple
    #: ``(app name, task code hashes in sorted module order)``
    identity: Tuple
    definition: Tuple
    inputs: Any
    #: ``("tenant", name)`` if :func:`requires_tenant_scope`, else
    #: ``("shared",)``
    scope: Tuple

    @classmethod
    def of(cls, tenant: str, dag: ModuleDAG, definition: Any,
           inputs: Optional[Dict[str, Any]]) -> "SubmissionKey":
        definition = _keyable(definition)
        shape, identity = dag_fingerprint(dag)
        scope = (("tenant", tenant)
                 if requires_tenant_scope(dag, definition) else ("shared",))
        return cls(shape, identity, definition_fingerprint(definition),
                   inputs_fingerprint(inputs), scope)

    @property
    def result(self) -> Tuple:
        """Result-cache key: everything, tenant-scoped when confidential."""
        return (self.scope, self.shape, self.identity, self.definition,
                self.inputs)

    def lint(self, tier: str) -> Tuple:
        """Lint-memo key: the report depends on app, definition, tier."""
        return (self.shape, self.identity, self.definition, tier)

    def admission(self, policy: ConflictPolicy) -> Tuple:
        """Admission-memo key: shape only, so tenants share templates."""
        return (self.shape, self.definition, policy.value)


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    size: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class _Lru:
    """Bounded LRU with hit/miss/eviction stats; ``capacity <= 0``
    disables it (every lookup misses, stores drop)."""

    def __init__(self, capacity: int = 128):
        self.capacity = capacity
        self._entries: "OrderedDict[Tuple, Any]" = OrderedDict()
        self.stats = CacheStats()

    def _get(self, key: Tuple) -> Any:
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry

    def _put(self, key: Tuple, value: Any) -> None:
        if self.capacity <= 0:
            return
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        self.stats.size = len(self._entries)

    def __len__(self) -> int:
        return len(self._entries)


class ResultCache(_Lru):
    """Bounded LRU over completed :class:`RunResult`\\ s."""

    def get(self, key: Tuple) -> Optional[RunResult]:
        return self._get(key)

    def put(self, key: Tuple, result: RunResult) -> None:
        self._put(key, result)


class AdmissionMemo(_Lru):
    """Bounded LRU of admission templates, consumed by
    :meth:`~repro.core.runtime.UDCRuntime.admit` (``runtime.admission_memo``)
    for submissions that carry a :class:`SubmissionKey`.

    A template holds one app shape's :class:`ConflictResolution` and the
    default-filled (frozen, shareable) per-module aspect bundles; hitting
    it skips DAG validation, definition parsing, and conflict resolution.
    """

    def __init__(self, capacity: int = 256):
        super().__init__(capacity)

    def lookup(self, key: Tuple) -> Optional[Tuple[ConflictResolution, Dict]]:
        return self._get(key)

    def store(self, key: Tuple, resolution: ConflictResolution,
              bundles: Dict) -> None:
        self._put(key, (resolution, bundles))
