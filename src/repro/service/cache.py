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
* :class:`AdmissionMemo` — compiled app templates
  (:class:`~repro.core.template.AppTemplate`: admission result, DAG
  view, device plans, router demand) keyed by shape, definition and
  conflict policy only, so tenants submitting the same app shape share
  one; and the DAG views themselves keyed by shape, which the lint pass
  shares.  Placement still runs per submission against live pool state.

The service reads app, definition and inputs once, at ``submit()``:
callers must not mutate them until the handle finalizes.  Key parts are
canonical text, so lookups hash each part once (strings cache their
hash) and compare flat strings:

* ``shape`` and ``identity`` are built directly from the DAG: modules in
  name order, then edges, co-location groups and affinity hints in
  *declaration* order — placement sums locality pulls in edge order and
  places groups in list order, so equal keys mean identical placement
  inputs;
* ``definition`` and ``inputs`` are compact JSON with sorted keys (the
  stdlib encoder).  Values JSON cannot express faithfully — sets, NaN,
  non-string dict keys, enums and other subclassed values (an IntEnum
  would encode as its number) — key as ``"\\x00" + repr(...)`` of an
  order-normalized form, which no JSON text can equal.  JSON typing is
  kept: ``1``, ``1.0`` and ``true`` are different values, and so are
  the dict keys ``1`` and ``"1"``.  Tuples key like lists.

No hashing of object identities, no timestamps: a key is the same in
every process, whatever the hash seed.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, NamedTuple, Optional, Tuple

from repro.appmodel.dag import ModuleDAG
from repro.appmodel.module import TaskModule
from repro.core.conflicts import ConflictPolicy
from repro.core.report import RunResult
from repro.core.spec import UserDefinition
from repro.core.template import AppTemplate, AppView

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
#: exact types whose JSON text is faithful (subclasses such as IntEnum
#: encode as their base value, so they take the fallback)
_JSON_LEAVES = frozenset(_LEAVES)

#: compact, key-sorted, NaN-refusing JSON text
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                           allow_nan=False).encode


def _plain(value: Any) -> bool:
    """True when ``value``'s JSON text says exactly what it is: only
    dicts with ``str`` keys (the encoder turns ``1``, ``True`` and
    ``None`` keys into strings), lists, tuples and exact JSON leaves."""
    kind = type(value)
    if kind is dict:
        for key, item in value.items():
            if type(key) is not str or (type(item) not in _JSON_LEAVES
                                        and not _plain(item)):
                return False
        return True
    if kind is list or kind is tuple:
        for item in value:
            if type(item) not in _JSON_LEAVES and not _plain(item):
                return False
        return True
    return kind in _JSON_LEAVES


def _canon(value: Any) -> Any:
    """Order-normalized form of a value JSON cannot encode faithfully
    (dict order and set iteration order ignored, dict keys typed)."""
    if isinstance(value, _LEAVES):
        return value
    if isinstance(value, dict):
        return ("d", *sorted(
            ((repr(_canon(k)), _canon(v)) for k, v in value.items()),
            key=lambda kv: kv[0]))
    if isinstance(value, (list, tuple)):
        return ("l", *[_canon(v) for v in value])
    if isinstance(value, (set, frozenset)):
        return ("s",) + tuple(sorted(repr(_canon(v)) for v in value))
    return repr(value)


def _text(value: Any) -> str:
    """Canonical text of a JSON-ish value: compact sorted JSON, or
    ``"\\x00" + repr(_canon(value))`` when JSON cannot express it
    faithfully (no JSON text starts with a NUL)."""
    if _plain(value):
        try:
            return _encode(value)
        except ValueError:  # NaN or infinity
            pass
    return "\x00" + repr(_canon(value))


def dag_fingerprint(dag: ModuleDAG) -> Tuple[str, str]:
    """``(shape, identity)`` of an application DAG, as text.

    ``shape`` is everything admission and placement can observe, without
    the app name or any code hash: one line per module in name order,
    then the edges, co-location groups and affinity hints in declaration
    order.  ``identity`` is the app name and the task code hashes in
    module-name order, so different code never shares results.
    """
    lines = []
    code_hashes = []
    modules = dag.modules
    for name in sorted(modules):
        module = modules[name]
        if isinstance(module, TaskModule):
            candidates = ",".join(
                sorted([d.value for d in module.device_candidates]))
            lines.append(
                f"t{name!r} {module.work!r} {candidates} "
                f"{module.output_bytes!r} {module.state_bytes!r} "
                f"{module.max_parallelism!r} {module.sanitizer!r}"
            )
            code_hashes.append(module.code_hash)
        else:
            lines.append(
                f"d{name!r} {module.size_gb!r} {module.record_bytes!r} "
                f"{module.hot!r} {module.sensitivity!r}"
            )
    lines.append("E" + ";".join([
        f"{e.src!r}>{e.dst!r}:{e.bytes_transferred!r}" for e in dag.edges
    ]))
    lines.append("G" + ";".join([
        ",".join(sorted(map(repr, group))) for group in dag.colocate_groups
    ]))
    lines.append("A" + ";".join([
        f"{task!r}~{data!r}:{weight!r}"
        for (task, data), weight in dag.affinities.items()
    ]))
    return "\n".join(lines), repr([dag.name, *code_hashes])


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


def definition_fingerprint(definition: Any) -> str:
    """Canonical text of a definition in any accepted form: dicts (and
    builders, as their dict) without parsing — the admission memo exists
    to skip ``parse_definition`` — and parsed ones by their bundles'
    repr.  ``None`` keys apart from ``{}``."""
    definition = _keyable(definition)
    if definition is None:
        return "none"
    if isinstance(definition, dict):
        return _text(definition)
    return "parsed" + _encode([
        [name, repr(bundle)]
        for name, bundle in sorted(definition.bundles.items())
    ])


def inputs_fingerprint(inputs: Optional[Dict[str, Any]]) -> str:
    return _text(inputs) if inputs else "{}"


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
    shape: str
    #: app name and task code hashes in sorted module order
    identity: str
    definition: str
    inputs: str
    #: ``("tenant", name)`` if :func:`requires_tenant_scope`, else
    #: ``("shared",)``
    scope: Tuple[str, ...]

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
    """Bounded LRU of compiled :class:`~repro.core.template.AppTemplate`\\ s,
    consumed by :meth:`~repro.core.runtime.UDCRuntime.compile`
    (``runtime.admission_memo``) for submissions that carry a
    :class:`SubmissionKey`.

    Hitting it skips DAG validation, definition parsing, conflict
    resolution, graph building and device planning.  :attr:`views` holds
    the DAG views by shape (same capacity), so the lint pass and every
    template of one shape share a single task graph.
    """

    def __init__(self, capacity: int = 256):
        super().__init__(capacity)
        self.views = _Lru(capacity)

    def lookup(self, key: Tuple) -> Optional[AppTemplate]:
        return self._get(key)

    def store(self, key: Tuple, template: AppTemplate) -> None:
        self._put(key, template)

    def view(self, shape: str, dag: ModuleDAG) -> AppView:
        """The view of ``dag`` (whose shape text is ``shape``)."""
        view = self.views._get(shape)
        if view is None:
            view = AppView(dag)
            self.views._put(shape, view)
        return view
