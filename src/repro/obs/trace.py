"""The structured trace bus (DESIGN.md §14).

One process-wide :class:`Tracer` (or none).  When tracing is off —
the default — :func:`tracer` returns ``None`` and the instrumented
code paths reduce to a single ``is None`` test per exploration loop
iteration: no record objects, no string formatting, no allocation.
When on, every record is one JSON object written as one line via a
single ``os.write`` to a file opened ``O_APPEND``, so records from the
parent and from forked pool workers interleave whole-line atomically
in the same file.

Activation
==========

* ``enable(path)`` / ``disable()`` programmatically;
* the ``REPRO_TRACE=PATH`` environment variable, resolved lazily on
  the first :func:`tracer` call of each process — pool workers created
  by :class:`~repro.engine.parallel.ParallelRunner` inherit the parent
  environment (and, under fork, the live tracer), so ``--trace`` on
  the CLI traces every worker too;
* ``REPRO_TRACE_SAMPLE=N`` keeps 1-in-N of the *high-frequency*
  records (``node`` and ``prune``); structural records (runs, spans,
  races, views, jobs) are never sampled.  Default: 16.  A value that is
  not a whole number of at least 1 is an error (:func:`env_sample`),
  never clamped or replaced.

Record schema (``repro-trace/1``)
=================================

Every record carries ``ev`` (its type), ``ts`` (epoch seconds, float)
and ``pid``.  Per-type payload fields — the authoritative table is
:data:`SCHEMA`, which ``tools/check_trace_schema.py`` validates trace
files against:

=============  ====================================================
``header``     ``schema``, ``sample`` — emitted once per enabling
``run_start``  ``run`` id, ``prog`` label, ``pcs``, ``model``,
               ``strategy``, ``reduction``, ``bound``
``span``       ``run``, phase ``name``, ``dur`` seconds (emitted at
               run end from the engine's phase timers, so span totals
               agree with ``EngineStats`` by construction)
``run_end``    ``run``, ``configs``, ``transitions``, ``truncated``,
               ``dur``
``node``       ``run``, running config count ``n``, ``pcs``, key-cache
               ``keys`` ``[hits, misses]`` delta — sampled
``shard``      one superstep of one shard of a sharded run
               (DESIGN.md §15): ``run``, ``shard`` index, ``round``,
               messages ``sent``/``recv``, next-level ``frontier`` size;
               per-shard expand time lands in ``span`` records named
               ``shard0``, ``shard1``, …
``race``       ``run``, ``tid``, conflicting ``vars``, ``pcs``
``view``       ``run``, scheduled reversing ``view`` (tid sequence),
               ``pcs``
``prune``      ``run``, ``kind`` (``visited``), ``pcs`` —
               sampled
``job_start``  ``job`` label, ``kind``
``job_end``    ``job``, ``kind``, ``dur``, ``configs``, ``verdict``
``case``       fuzz case: ``seed``, ``index``, divergence ``kind``
``outline``    proof discharge: ``name``, ``model``, ``obligations``,
               ``failed``
``ckpt``       checkpoint activity (DESIGN.md §16): ``run``, ``path``,
               ``configs`` at the snapshot, ``action`` (``write``)
``fault``      fault-tolerance event: ``run``, ``kind``
               (``interrupt``/``worker-death``/``respawn``/``degrade``),
               free-form ``detail``
=============  ====================================================
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, List, Optional

#: Schema identifier stamped into every trace header.
SCHEMA_NAME = "repro-trace/1"

#: Event type -> payload fields required on top of ``ev``/``ts``/``pid``.
SCHEMA: Dict[str, frozenset] = {
    "header": frozenset({"schema", "sample"}),
    "run_start": frozenset(
        {"run", "prog", "pcs", "model", "strategy", "reduction", "bound"}
    ),
    "span": frozenset({"run", "name", "dur"}),
    "run_end": frozenset({"run", "configs", "transitions", "truncated", "dur"}),
    "node": frozenset({"run", "n", "pcs", "keys"}),
    "shard": frozenset({"run", "shard", "round", "sent", "recv", "frontier"}),
    "race": frozenset({"run", "tid", "vars", "pcs"}),
    "view": frozenset({"run", "view", "pcs"}),
    "prune": frozenset({"run", "kind", "pcs"}),
    "job_start": frozenset({"job", "kind"}),
    "job_end": frozenset({"job", "kind", "dur", "configs", "verdict"}),
    "case": frozenset({"seed", "index", "kind"}),
    "outline": frozenset({"name", "model", "obligations", "failed"}),
    "ckpt": frozenset({"run", "path", "configs", "action"}),
    "fault": frozenset({"run", "kind", "detail"}),
}

#: Default 1-in-N sampling of node/prune records.
DEFAULT_SAMPLE = 16

#: The engine phases reported as ``span`` records at run end, read off
#: the corresponding ``EngineStats.time_*`` attribute.
PHASES = ("total", "expand", "model", "keys", "checks", "orders")


def program_pcs(program) -> List[int]:
    """The per-thread program counters of a (possibly lowered) program.

    Both :class:`~repro.lang.program.Program` and
    :class:`~repro.interp.compiled.LoweredProgram` expose ``labels``
    (``pc`` per thread, in ``tids`` order); anything else reports no
    pcs rather than failing the trace path.
    """
    try:
        return list(program.labels)
    except Exception:  # noqa: BLE001 - tracing must never break a run
        return []


def program_label(program) -> str:
    """A short human-readable handle for a program (hot-program keys)."""
    try:
        text = str(program)
    except Exception:  # noqa: BLE001
        return type(program).__name__
    return text if len(text) <= 120 else text[:117] + "..."


class Tracer:
    """One JSONL trace sink; create via :func:`enable`, not directly."""

    __slots__ = (
        "path", "sample", "emitted", "mirror", "_fd", "_tick", "_runs",
    )

    def __init__(self, path: str, sample: int = DEFAULT_SAMPLE) -> None:
        if sample < 1:
            raise ValueError(f"trace sample must be at least 1, got {sample}")
        self.path = path
        self.sample = sample
        self.emitted = 0
        #: when a list, every record is also appended here (tests use
        #: this to assert the file round-trips losslessly)
        self.mirror: Optional[List[dict]] = None
        self._fd: Optional[int] = None
        self._tick = 0
        self._runs = 0

    # -- core ----------------------------------------------------------

    def emit(self, ev: str, **fields: Any) -> dict:
        """Write one record; returns the dict written."""
        record: Dict[str, Any] = {"ev": ev, "ts": time.time(), "pid": os.getpid()}
        record.update(fields)
        if self._fd is None:
            self._fd = os.open(
                self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
            )
        os.write(
            self._fd,
            (json.dumps(record, separators=(",", ":")) + "\n").encode("utf-8"),
        )
        self.emitted += 1
        if self.mirror is not None:
            self.mirror.append(record)
        return record

    def tick(self) -> bool:
        """Sampling gate for high-frequency records: true 1-in-sample."""
        self._tick += 1
        if self._tick >= self.sample:
            self._tick = 0
            return True
        return False

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    # -- typed helpers (structural records, never sampled) -------------

    def run_start(self, program, model_name: str, strategy: str,
                  reduction: str, bound: Optional[int]) -> str:
        self._runs += 1
        run = f"{os.getpid()}-{self._runs}"
        self.emit(
            "run_start", run=run, prog=program_label(program),
            pcs=program_pcs(program), model=model_name, strategy=strategy,
            reduction=reduction, bound=bound,
        )
        return run

    def run_end(self, run: str, stats, truncated: bool) -> None:
        """Phase spans (straight off the engine's timers — totals agree
        with ``EngineStats`` by construction) followed by the run
        summary record."""
        for name in PHASES:
            dur = stats.time_total if name == "total" else getattr(
                stats, f"time_{name}"
            )
            if dur > 0.0:
                self.emit("span", run=run, name=name, dur=dur)
        self.emit(
            "run_end", run=run, configs=stats.configs,
            transitions=stats.transitions, truncated=truncated,
            dur=stats.time_total,
        )

    def race(self, run: str, tid: int, footprint, program) -> None:
        self.emit(
            "race", run=run, tid=tid,
            vars=sorted(map(str, footprint.reads | footprint.writes)),
            pcs=program_pcs(program),
        )

    def view(self, run: str, view, program) -> None:
        self.emit("view", run=run, view=list(view), pcs=program_pcs(program))

    def prune(self, run: str, kind: str, program) -> None:
        """Sampled: call under ``tick()`` on hot paths."""
        self.emit("prune", run=run, kind=kind, pcs=program_pcs(program))


#: Process-wide tracer, or None.  ``_resolved`` records whether the
#: environment has been consulted (so the disabled path costs one
#: attribute load + ``is None`` after the first call).
_TRACER: Optional[Tracer] = None
_resolved = False


def tracer() -> Optional[Tracer]:
    """The active tracer, or ``None`` (the common, fast case)."""
    global _resolved, _TRACER
    if not _resolved:
        _resolved = True
        path = os.environ.get("REPRO_TRACE")
        if path:
            _TRACER = Tracer(path, sample=env_sample())
            _TRACER.emit("header", schema=SCHEMA_NAME, sample=_TRACER.sample)
    return _TRACER


def env_sample() -> int:
    """The sampling rate ``REPRO_TRACE_SAMPLE`` asks for (default
    :data:`DEFAULT_SAMPLE`); a value that is not a whole number of at
    least 1 raises :class:`ValueError`."""
    text = os.environ.get("REPRO_TRACE_SAMPLE")
    if text is None:
        return DEFAULT_SAMPLE
    try:
        sample = int(text)
    except ValueError:
        sample = 0
    if sample < 1:
        raise ValueError(
            "REPRO_TRACE_SAMPLE must be a whole number of at least 1, "
            f"got {text!r}"
        )
    return sample


def enable(path: str, sample: Optional[int] = None) -> Tracer:
    """Start tracing to ``path`` (replacing any active tracer)."""
    global _resolved, _TRACER
    if _TRACER is not None:
        _TRACER.close()
    if sample is None:
        sample = env_sample()
    _TRACER = Tracer(path, sample=sample)
    _resolved = True
    _TRACER.emit("header", schema=SCHEMA_NAME, sample=_TRACER.sample)
    return _TRACER


def disable() -> None:
    """Stop tracing (and forget any ``REPRO_TRACE`` resolution)."""
    global _resolved, _TRACER
    if _TRACER is not None:
        _TRACER.close()
    _TRACER = None
    _resolved = False


def parse_trace(path: str) -> List[dict]:
    """Read a JSONL trace file back into records (blank lines skipped).

    Raises ``ValueError`` with the offending line number on malformed
    JSON — the same strictness the schema checker applies.
    """
    records: List[dict] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: malformed record: {exc}")
    return records


__all__ = [
    "DEFAULT_SAMPLE",
    "PHASES",
    "SCHEMA",
    "SCHEMA_NAME",
    "Tracer",
    "disable",
    "enable",
    "parse_trace",
    "program_label",
    "program_pcs",
    "tracer",
]
