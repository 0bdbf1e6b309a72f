"""Span recording for the benchmark's traced run.

The traced run wraps the public entry point of each layer from outside
the program (:func:`install`): every call records one span — name,
start, end and parent span — into flat arrays kept in memory.  Worker
processes (the suite pool, shard workers) are forked, so they inherit
the wrappers; a fork hook empties the inherited buffer in the child,
and the child writes its spans to the recorder's spill directory each
time one of its root spans closes.  The parent reads them back with
:func:`load_spilled` once the run has ended.

Times come from ``time.perf_counter`` (CLOCK_MONOTONIC on Linux), which
every process of a run reads on the same time base, so spans of
different processes can be compared directly.
"""

from __future__ import annotations

import functools
import os
import pickle
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Span names.  A span stores its name as an index into this table, so
#: every process of a run must use the same table.
NAMES = (
    "setup",  # the benchmark's input construction (root)
    "verdict",  # the call under test plus its correctness check (root)
    "core",  # repro.engine.core.explore: loop, visited set, parents, frontier
    "interp.expand",  # successor_list / thread_successor_list
    "model.transitions",  # MemoryModel.transitions_list
    "keys",  # MemoryModel.canonical_state_key
    "checks",  # the case studies' *_violations hooks
    "por",  # repro.engine.por.explore_reduced
    "shard",  # repro.engine.shard.explore_sharded (coordinator)
    "shard.worker",  # one shard worker process (root in the worker)
    "ckpt",  # repro.engine.checkpoint.write_checkpoint
    "parallel",  # ParallelRunner.run
    "job",  # repro.engine.parallel.run_suite_job (root in a pool worker)
    "spawn",  # multiprocessing BaseProcess.start
    "axiomatic.compare",  # compare_axiomatisations
    "axiomatic.validity",  # check_validity
    "lang.lower",  # repro.interp.compiled.maybe_lower
    "fuzz.generate",  # repro.fuzz.generator.generate_case
    "verify.check",  # ProofCaseStudy.check
)
NAME_ID = {name: index for index, name in enumerate(NAMES)}


@dataclass
class Trace:
    """The spans one process recorded, in start order: a span's parent
    (an index into the same trace, or -1 for a root) always precedes it."""

    pid: int
    names: Sequence[int]
    parents: Sequence[int]
    starts: Sequence[float]
    ends: Sequence[float]
    #: non-span counters recorded at layer boundaries (bytes written,
    #: programs lowered, ...)
    counts: Dict[str, float] = field(default_factory=dict)
    _tree: Optional[Tuple[List[float], List[int]]] = field(
        default=None, repr=False, compare=False
    )

    def __len__(self) -> int:
        return len(self.names)

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_tree": None}  # derived, recomputed on demand

    def tree(self) -> Tuple[List[float], List[int]]:
        """:func:`span_tree` of this trace, computed once."""
        if self._tree is None:
            self._tree = span_tree(self)
        return self._tree


class SpanRecorder:
    """One process's span buffer, and the factory of span wrappers."""

    def __init__(self, spill_dir: Optional[str] = None) -> None:
        self.spill_dir = spill_dir
        self.pid = os.getpid()
        self.child = False
        self.flushes = 0
        # the wrappers close over these objects, so they are only ever
        # cleared in place, never replaced
        self.names = array("H")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: List[int] = [-1]
        self.counts: Counter = Counter()

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with one span named ``name`` recorded per call."""
        ident = NAME_ID[name]
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(names)
            names.append(ident)
            parents.append(stack[-1])
            starts.append(clock())
            ends.append(0.0)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
                if self.child and len(stack) == 1:
                    self.flush()

        return wrapper

    def run(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside one span named ``name``."""
        return self.wrap(name, fn)(*args, **kwargs)

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] += amount

    def snapshot(self) -> Trace:
        return Trace(
            self.pid, array("H", self.names), array("l", self.parents),
            array("d", self.starts), array("d", self.ends), dict(self.counts),
        )

    def flush(self) -> None:
        """Write the buffered spans to the spill directory and clear the
        buffer (workers only: their spans would die with the process)."""
        path = os.path.join(self.spill_dir, f"{self.pid}-{self.flushes}.spans")
        with open(path, "wb") as handle:
            pickle.dump(self.snapshot(), handle, protocol=pickle.HIGHEST_PROTOCOL)
        self.flushes += 1
        self._clear()

    def after_fork_in_child(self) -> None:
        self.pid = os.getpid()
        self.child = True
        self.flushes = 0
        self._clear()

    def _clear(self) -> None:
        for buffer in (self.names, self.parents, self.starts, self.ends):
            del buffer[:]
        self.stack[:] = [-1]
        self.counts.clear()


def load_spilled(spill_dir: str) -> List[Trace]:
    """Every trace the run's workers wrote (files this benchmark wrote)."""
    traces = []
    for entry in sorted(os.listdir(spill_dir)):
        if entry.endswith(".spans"):
            with open(os.path.join(spill_dir, entry), "rb") as handle:
                traces.append(pickle.load(handle))
    return traces


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------


def span_tree(trace: Trace) -> Tuple[List[float], List[int]]:
    """Per span: its self time (duration minus the part its children
    cover) and the bitmask of names on its ancestor path."""
    n = len(trace)
    names, parents, starts, ends = trace.names, trace.parents, trace.starts, trace.ends
    covered = [0.0] * n
    masks = [0] * n
    for i in range(n):
        p = parents[i]
        if p >= 0:
            masks[i] = masks[p] | (1 << names[p])
            covered[p] += ends[i] - starts[i]
    return [ends[i] - starts[i] - covered[i] for i in range(n)], masks


@dataclass
class LayerTotal:
    """One span name summed over a run's traces.  ``total_s`` and
    ``calls`` count only outermost spans, so a recursive layer is not
    counted twice; ``self_s`` sums every span's own time."""

    self_s: float = 0.0
    total_s: float = 0.0
    calls: int = 0


def layer_totals(traces: Sequence[Trace]) -> Dict[str, LayerTotal]:
    out = {name: LayerTotal() for name in NAMES}
    for trace in traces:
        selfs, masks = trace.tree()
        starts, ends = trace.starts, trace.ends
        for i, ident in enumerate(trace.names):
            row = out[NAMES[ident]]
            row.self_s += selfs[i]
            if not (masks[i] >> ident) & 1:
                row.total_s += ends[i] - starts[i]
                row.calls += 1
    return out


def time_within(traces: Sequence[Trace], name: str, ancestor: str) -> float:
    """Summed duration of outermost ``name`` spans below an ``ancestor``."""
    ident, anc = NAME_ID[name], NAME_ID[ancestor]
    total = 0.0
    for trace in traces:
        _, masks = trace.tree()
        for i, span_name in enumerate(trace.names):
            if span_name == ident and (masks[i] >> anc) & 1 and not (masks[i] >> ident) & 1:
                total += trace.ends[i] - trace.starts[i]
    return total


def roots(trace: Trace) -> List[int]:
    return [i for i, p in enumerate(trace.parents) if p < 0]


# ----------------------------------------------------------------------
# Installing the wrappers
# ----------------------------------------------------------------------


def _rebind(original: Callable, replacement: Callable) -> None:
    """Point every binding of ``original`` in the loaded ``repro``
    modules at ``replacement`` — modules that imported the function by
    name hold their own reference."""
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _patch_function(rec: SpanRecorder, name: str, module, attr: str,
                    counted: Optional[Callable] = None) -> None:
    original = getattr(module, attr)
    _rebind(original, rec.wrap(name, counted or original))


def _patch_methods(rec: SpanRecorder, name: str, cls: type, attr: str) -> None:
    """Wrap ``attr`` on ``cls`` and on every subclass that defines it."""
    pending = [cls]
    while pending:
        klass = pending.pop()
        pending.extend(klass.__subclasses__())
        if attr in vars(klass):
            setattr(klass, attr, rec.wrap(name, vars(klass)[attr]))


def install(rec: SpanRecorder) -> None:
    """Wrap each layer's public functions with ``rec``'s spans."""
    import importlib
    import multiprocessing.process
    import pkgutil

    import repro.axiomatic.equivalence as equivalence
    import repro.axiomatic.validity as validity
    import repro.casestudies
    import repro.engine.checkpoint as checkpoint
    import repro.engine.core as core
    import repro.engine.parallel as parallel
    import repro.engine.por as por
    import repro.engine.shard as shard
    import repro.fuzz.generator as generator
    import repro.fuzz.runner  # noqa: F401 - binds generate_case by name
    import repro.interp.compiled as compiled
    import repro.interp.interpreter as interpreter
    import repro.interp.pe_model  # noqa: F401 - load every model class
    import repro.interp.ra_model  # noqa: F401
    import repro.interp.sc  # noqa: F401
    import repro.interp.sra_model  # noqa: F401
    from repro.interp.memory_model import MemoryModel
    from repro.lang.program import Program
    from repro.verify.registry import ProofCaseStudy

    maybe_lower = compiled.maybe_lower
    write_checkpoint = checkpoint.write_checkpoint

    def lower_counted(program):
        lowered = maybe_lower(program)
        if type(program) is Program:
            rec.count("lang.programs")
            if lowered is program:
                rec.count("lang.refused")
        return lowered

    def ckpt_counted(path, fingerprint, payload):
        write_checkpoint(path, fingerprint, payload)
        rec.count("ckpt.bytes", os.path.getsize(path))

    _patch_function(rec, "core", core, "explore")
    _patch_function(rec, "interp.expand", interpreter, "successor_list")
    _patch_function(rec, "interp.expand", interpreter, "thread_successor_list")
    _patch_methods(rec, "model.transitions", MemoryModel, "transitions_list")
    _patch_methods(rec, "keys", MemoryModel, "canonical_state_key")
    for info in pkgutil.iter_modules(repro.casestudies.__path__):
        module = importlib.import_module(f"repro.casestudies.{info.name}")
        for attr in [a for a in vars(module) if a.endswith("_violations")]:
            if getattr(module, attr).__module__ == module.__name__:
                _patch_function(rec, "checks", module, attr)
    _patch_function(rec, "por", por, "explore_reduced")
    _patch_function(rec, "shard", shard, "explore_sharded")
    _patch_function(rec, "shard.worker", shard, "_shard_worker")
    _patch_function(rec, "ckpt", checkpoint, "write_checkpoint", ckpt_counted)
    _patch_methods(rec, "parallel", parallel.ParallelRunner, "run")
    _patch_function(rec, "job", parallel, "run_suite_job")
    _patch_methods(rec, "spawn", multiprocessing.process.BaseProcess, "start")
    _patch_function(rec, "axiomatic.compare", equivalence, "compare_axiomatisations")
    _patch_function(rec, "axiomatic.validity", validity, "check_validity")
    _patch_function(rec, "lang.lower", compiled, "maybe_lower", lower_counted)
    _patch_function(rec, "fuzz.generate", generator, "generate_case")
    _patch_methods(rec, "verify.check", ProofCaseStudy, "check")
    os.register_at_fork(after_in_child=rec.after_fork_in_child)
