"""Failure-handling strategies: re-execute vs checkpoint-restore (§3.4).

The user's distributed aspect names, per failure domain, *"whether to
re-execute a module or recover from a user-defined checkpoint."*  The two
strategies here are consumed by the UDC runtime's failure listener and by
benchmark E14:

* **RERUN** — lose all progress; pay the module's full execution again.
* **CHECKPOINT_RESTORE** — pay a restore transfer, then re-execute only
  the work after the last snapshot.  Cheaper for long modules, but the
  running module pays periodic checkpoint overhead.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.distsem.checkpoint import Checkpoint, CheckpointStore

__all__ = ["RecoveryOutcome", "RecoveryStrategy", "plan_recovery"]


class RecoveryStrategy(enum.Enum):
    """User-selectable failure handling per module / failure domain."""

    NONE = "none"                # failure is fatal for this module
    RERUN = "rerun"
    CHECKPOINT_RESTORE = "checkpoint-restore"


@dataclass(frozen=True)
class RecoveryOutcome:
    """What recovery will cost, computed before re-execution starts."""

    strategy: RecoveryStrategy
    #: progress retained after recovery, in [0, 1]
    resume_progress: float
    #: the snapshot used, when any
    checkpoint: Optional[Checkpoint] = None


def plan_recovery(
    strategy: RecoveryStrategy,
    module: str,
    store: Optional[CheckpointStore],
) -> RecoveryOutcome:
    """Decide where re-execution resumes.

    CHECKPOINT_RESTORE without a snapshot (module failed before its first
    checkpoint, or no store was provisioned) degrades to a full rerun —
    the semantics users get from real checkpointing systems.
    """
    if strategy == RecoveryStrategy.CHECKPOINT_RESTORE and store is not None:
        snapshot = store.latest(module)
        if snapshot is not None:
            return RecoveryOutcome(
                strategy=strategy,
                resume_progress=snapshot.progress,
                checkpoint=snapshot,
            )
    if strategy == RecoveryStrategy.NONE:
        return RecoveryOutcome(strategy=strategy, resume_progress=0.0)
    return RecoveryOutcome(strategy=RecoveryStrategy.RERUN, resume_progress=0.0)
