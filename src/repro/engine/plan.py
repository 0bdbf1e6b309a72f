"""The search plan: every option that shapes one search (DESIGN.md §5).

A :class:`SearchPlan` holds the bounds, the search order, the
reduction, the key discipline, the sharding and the checkpoint surface
of one exploration.  Constructing one checks every rule that relates
them, so a plan that exists is a plan some explorer can run: the
explorers, the suite jobs and the CLI take a plan and re-check
nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional, Tuple

from repro.engine.frontier import STRATEGIES

#: Reduction names accepted by ``explore(reduction=...)`` and the CLI
#: (DESIGN.md §9): the unreduced search and parsimonious DPOR.
REDUCTIONS = ("none", "optimal")


@dataclass(frozen=True)
class SearchPlan:
    """The validated options of one search.

    ``max_events`` bounds the program events per state and
    ``max_configs`` the distinct configurations; ``strategy`` and
    ``reduction`` pick the search; ``canonicalize=False`` keys
    configurations by their raw state; ``stop_on_violation`` ends the
    run at the first violation.  ``shards`` and ``shard_processes``
    configure the sharded search (DESIGN.md §15); ``checkpoint``,
    ``checkpoint_every`` and ``resume`` the snapshot surface
    (DESIGN.md §16).
    """

    max_events: Optional[int] = None
    max_configs: Optional[int] = None
    strategy: str = "bfs"
    reduction: str = "none"
    canonicalize: bool = True
    stop_on_violation: bool = False
    shards: int = 1
    shard_processes: Optional[bool] = None
    checkpoint: Optional[str] = None
    checkpoint_every: Optional[int] = None
    resume: Optional[str] = None

    def __post_init__(self) -> None:
        if self.reduction not in REDUCTIONS:
            raise ValueError(
                f"unknown reduction {self.reduction!r}; choose from {REDUCTIONS}"
            )
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"unknown search strategy {self.strategy!r}; "
                f"choose from {STRATEGIES}"
            )
        if self.max_events is not None and self.max_events < 0:
            raise ValueError(f"max_events must be >= 0, not {self.max_events}")
        if self.max_configs is not None and self.max_configs < 1:
            raise ValueError(f"max_configs must be >= 1, not {self.max_configs}")
        if self.durable:
            if not self.canonicalize:
                raise ValueError(
                    "checkpoint/resume snapshots canonical keys; "
                    "canonicalize=False has no snapshottable key"
                )
            if self.reduction != "none":
                raise ValueError(
                    f"checkpoint/resume supports only the unreduced search; "
                    f"reduction={self.reduction!r} keeps per-key backtrack "
                    "state the snapshot format does not cover"
                )
        if self.checkpoint_every is not None:
            if self.checkpoint_every < 1:
                raise ValueError("checkpoint_every must be >= 1")
            if self.checkpoint is None:
                raise ValueError(
                    "checkpoint_every sets the snapshot cadence, which "
                    "needs a checkpoint file to write"
                )
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.shards > 1:
            if self.reduction != "none":
                raise ValueError(
                    f"sharded exploration supports only the unreduced "
                    f"search, not reduction={self.reduction!r} (the DPOR "
                    "tier is depth-first with global backtrack state)"
                )
            if self.strategy != "bfs":
                raise ValueError(
                    "sharded exploration is breadth-first by construction; "
                    f"strategy={self.strategy!r} is not shardable"
                )
            if not self.canonicalize:
                raise ValueError(
                    "sharded exploration partitions by canonical-key "
                    "digest; canonicalize=False has no digestable key"
                )

    @property
    def durable(self) -> bool:
        """Whether the run writes or resumes a checkpoint."""
        return self.checkpoint is not None or self.resume is not None

    def options(self) -> dict:
        """The plan as ``explore``'s keyword arguments."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def fingerprint(self, program, init_values, model) -> dict:
        """The identity a checkpoint of this run carries
        (:func:`~repro.engine.checkpoint.run_fingerprint`)."""
        from repro.engine.checkpoint import run_fingerprint

        return run_fingerprint(
            program, init_values, model,
            max_events=self.max_events, max_configs=self.max_configs,
            strategy=self.strategy, reduction=self.reduction,
            canonicalize=self.canonicalize, shards=self.shards,
        )

    def open_checkpoint(
        self, program, init_values, model, algo: str
    ) -> Tuple[Optional[dict], Optional[dict]]:
        """``(fingerprint, resume payload)`` of a durable run.

        The payload is ``None`` unless the plan resumes; a resumed file
        must carry this run's fingerprint and ``algo``'s loop state.
        Both are ``None`` for a run that is not durable.
        """
        if not self.durable:
            return None, None
        from repro.engine.checkpoint import CheckpointError, read_checkpoint

        fingerprint = self.fingerprint(program, init_values, model)
        if self.resume is None:
            return fingerprint, None
        _, payload = read_checkpoint(self.resume, expect=fingerprint)
        if payload.get("algo") != algo:
            raise CheckpointError(
                f"checkpoint {self.resume!r} holds {payload.get('algo')!r} "
                f"loop state, not the {algo!r} search's"
            )
        return fingerprint, payload


__all__ = ["REDUCTIONS", "SearchPlan"]
