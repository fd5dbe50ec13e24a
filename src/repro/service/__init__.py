"""The multi-tenant serving layer (tentpole of PR 4).

``UDCService`` turns the single-shot :class:`~repro.core.runtime
.UDCRuntime` into what the paper actually describes: one provider
control plane accepting continuous ``(tenant, app, definition)``
submissions from many user-defined clouds, with per-tenant quotas,
weighted fair-share admission, batched placement rounds, and result
memoization.  See :mod:`repro.service.service` for the full story.
"""

from repro.core.admission import (
    AdmissionPolicy,
    FifoAdmission,
    WeightedFairShare,
)
from repro.service.cache import (
    AdmissionMemo,
    CacheStats,
    ResultCache,
    SubmissionKey,
    dag_fingerprint,
    definition_fingerprint,
    inputs_fingerprint,
)
from repro.service.service import ResultNotReady, SubmissionHandle, UDCService
from repro.service.tenants import (
    BudgetExceeded,
    QuotaExceeded,
    SubmitOptions,
    Tenant,
    TenantQuota,
    TenantSpec,
    submit_options,
    tenant_spec,
)

__all__ = [
    "AdmissionMemo",
    "AdmissionPolicy",
    "BudgetExceeded",
    "CacheStats",
    "FifoAdmission",
    "QuotaExceeded",
    "ResultCache",
    "ResultNotReady",
    "SubmissionHandle",
    "SubmissionKey",
    "SubmitOptions",
    "Tenant",
    "TenantQuota",
    "TenantSpec",
    "UDCService",
    "WeightedFairShare",
    "dag_fingerprint",
    "definition_fingerprint",
    "inputs_fingerprint",
    "submit_options",
    "tenant_spec",
]
