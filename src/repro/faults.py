"""Deterministic fault injection for the exploration engine (DESIGN.md §16).

Fault tolerance that is only exercised by real crashes is fault
tolerance that is never exercised.  This module turns every recovery
path in the engine into something a test (or the chaos CI job, or the
``--check-faults`` fuzz oracle) can trigger *on purpose*, at an exact,
replayable point: worker ``k`` dies at round ``r``, the run is
interrupted after exactly ``N`` configurations.  A fault plan is pure data parsed from a spec string,
so the same spec injected twice produces the same fault sequence —
recovery bugs reproduce from the command line.

Spec grammar (the value of ``REPRO_FAULTS`` or ``repro run
--inject-faults``)::

    spec    :=  action (';' action)*
    action  :=  name (':' key '=' int (',' key '=' int)*)?

Actions:

``kill-worker:shard=K,round=R``
    Shard worker ``K`` exits hard (``os._exit(1)``) at the start of
    superstep round ``R`` — the supervisor must detect the death and
    retry instead of deadlocking the round.  Process mode only; each
    ``(K, R)`` pair fires at most once per plan (the plan handed to
    respawned workers is disarmed, so recovery cannot loop).
``delay-queue:ms=M`` / ``delay-queue:ms=M,shard=K``
    Sleep ``M`` milliseconds before every cross-shard batch send (of
    worker ``K`` only, when given) — widens round-barrier race windows.
``interrupt:configs=N``
    Raise :class:`FaultInterrupt` once the explorer has integrated
    ``N`` configurations — a deterministic stand-in for SIGKILL, used
    by the kill-and-resume parity tests.

Engine code asks the *active plan* (``--inject-faults`` argument, else
the ``REPRO_FAULTS`` environment variable, else nothing) via the probe
helpers; with no plan armed every probe is a single ``None`` check, so
the harness costs nothing in ordinary runs.
"""

from __future__ import annotations

import os
import time
from typing import Dict, Optional, Set, Tuple

__all__ = [
    "FaultInterrupt",
    "FaultPlan",
    "active_plan",
    "set_plan",
    "clear_plan",
]


class FaultInterrupt(RuntimeError):
    """An injected mid-run interruption (a deterministic crash).

    Raised by the explorer when an ``interrupt:configs=N`` fault fires.
    Carries the checkpoint path written last (if any) so harnesses can
    resume without guessing.
    """

    def __init__(self, message: str, checkpoint: Optional[str] = None) -> None:
        super().__init__(message)
        self.checkpoint = checkpoint


_ACTIONS = ("kill-worker", "delay-queue", "interrupt")


def _parse_action(text: str) -> Tuple[str, Dict[str, int]]:
    name, _, rest = text.strip().partition(":")
    name = name.strip()
    if name not in _ACTIONS:
        raise ValueError(
            f"unknown fault action {name!r}; choose from {_ACTIONS}"
        )
    params: Dict[str, int] = {}
    if rest.strip():
        for pair in rest.split(","):
            key, sep, value = pair.partition("=")
            if not sep:
                raise ValueError(
                    f"fault action {name!r}: expected key=value, got {pair!r}"
                )
            try:
                params[key.strip()] = int(value.strip())
            except ValueError:
                raise ValueError(
                    f"fault action {name!r}: {key.strip()!r} must be an "
                    f"integer, got {value.strip()!r}"
                ) from None
    return name, params


def _require(name: str, params: Dict[str, int], *keys: str) -> None:
    for key in keys:
        if key not in params:
            raise ValueError(f"fault action {name!r} requires {key}=<int>")
    extra = set(params) - set(keys) - {"shard"}
    if extra:
        raise ValueError(
            f"fault action {name!r}: unknown parameter(s) {sorted(extra)}"
        )


class FaultPlan:
    """A parsed fault spec plus the one-shot firing state.

    The plan object is mutable — counters advance as faults fire — but
    the *spec* is immutable and reparsable, so a fresh plan built from
    ``plan.spec`` replays the identical fault sequence.
    """

    def __init__(self, spec: str) -> None:
        self.spec = spec
        #: (shard, round) pairs still armed to kill their worker.
        self.kills: Set[Tuple[int, int]] = set()
        #: shard (or None = every shard) → delay in seconds per send.
        self.delays: Dict[Optional[int], float] = {}
        #: config count at which to interrupt the run, if any.
        self.interrupt_configs: Optional[int] = None
        self._interrupted = False
        for action in spec.split(";"):
            if not action.strip():
                continue
            name, params = _parse_action(action)
            if name == "kill-worker":
                _require(name, params, "shard", "round")
                self.kills.add((params["shard"], params["round"]))
            elif name == "delay-queue":
                _require(name, params, "ms")
                self.delays[params.get("shard")] = params["ms"] / 1000.0
            elif name == "interrupt":
                _require(name, params, "configs")
                if params["configs"] < 1:
                    raise ValueError("interrupt: configs must be >= 1")
                self.interrupt_configs = params["configs"]

    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        return cls(spec)

    def __repr__(self) -> str:
        return f"FaultPlan({self.spec!r})"

    # -- probes ---------------------------------------------------------

    def kill_worker_now(self, shard: int, round_: int) -> bool:
        """True exactly once per armed ``(shard, round)`` pair."""
        try:
            self.kills.remove((shard, round_))
            return True
        except KeyError:
            return False

    def delay_send(self, shard: int) -> None:
        """Sleep the configured queue delay for ``shard``, if any."""
        delay = self.delays.get(shard)
        if delay is None:
            delay = self.delays.get(None)
        if delay:
            time.sleep(delay)

    def interrupt_due(self, configs: int) -> bool:
        """True exactly once, when ``configs`` reaches the armed count."""
        if self._interrupted or self.interrupt_configs is None:
            return False
        if configs >= self.interrupt_configs:
            self._interrupted = True
            return True
        return False


# ----------------------------------------------------------------------
# The active plan of this process
# ----------------------------------------------------------------------

#: Sentinel distinguishing "no override" from "explicitly no plan".
_UNSET = object()

_override = _UNSET
_env_spec: Optional[str] = None
_env_plan: Optional[FaultPlan] = None


def set_plan(plan: Optional[FaultPlan]) -> None:
    """Install ``plan`` as this process's active plan (overrides env).

    Passing ``None`` disables fault injection even when ``REPRO_FAULTS``
    is set — the supervisor uses this to disarm retried attempts.
    """
    global _override
    _override = plan


def clear_plan() -> None:
    """Drop any ``set_plan`` override; ``REPRO_FAULTS`` applies again."""
    global _override
    _override = _UNSET


def active_plan() -> Optional[FaultPlan]:
    """The fault plan governing this process, or ``None``.

    An explicit :func:`set_plan` wins; otherwise ``REPRO_FAULTS`` is
    parsed once and the same (stateful) plan object is returned for the
    life of the process, so one-shot faults stay one-shot.
    """
    global _env_spec, _env_plan
    if _override is not _UNSET:
        return _override
    spec = os.environ.get("REPRO_FAULTS")
    if not spec:
        return None
    if spec != _env_spec:
        _env_plan = FaultPlan(spec)
        _env_spec = spec
    return _env_plan
