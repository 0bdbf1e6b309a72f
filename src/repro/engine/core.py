"""The exploration engine: bounded exhaustive search over ``(P, σ)``.

This is the model-checking core of the reproduction (DESIGN.md §5): an
exhaustive enumeration of every configuration reachable under a memory
model, deduplicated by canonical keys (program syntax × state up to tag
renaming), with a pluggable search strategy
(:mod:`repro.engine.frontier`), memoized canonical keys
(:mod:`repro.engine.keys`), per-run statistics
(:mod:`repro.engine.stats`) and optional partial-order reduction
(:mod:`repro.engine.por`, selected by ``explore(reduction=...)``).

Busy-wait loops make weak-memory state spaces infinite (every loop
iteration appends fresh read events), so exploration is *bounded* by the
number of program events per state (``max_events``); hitting the bound
is recorded (``truncated``) so results honestly distinguish "verified up
to bound" from "verified".  τ-cycles (e.g. ``while true do skip``) are
harmless: revisited configurations are not re-expanded.

Hooks:

* ``check_config(config)`` — return a list of violation messages for a
  configuration (safety properties, e.g. mutual exclusion);
* ``check_step(step)`` — likewise for transitions (used by the
  verification-calculus soundness experiments, which are per-transition
  statements).

The parent map records ``child key → (parent key, tid)`` only — never
the transition, whose source and target configurations would keep
every visited state alive and travel across every process and snapshot
boundary.  Counterexample traces are rebuilt by replaying those hops
from the initial configuration (:meth:`ExplorationResult.trace_to`); a
step-level violation's trace ends with the violating step itself.

A search creates no cyclic garbage, so CPython's cyclic collector would
only re-scan the search's own growing heap: :func:`explore` runs with
automatic collection paused (:func:`gc_paused`, DESIGN.md §5).

The public entry points :func:`explore` and :func:`reachable_states`
are re-exported by :mod:`repro.interp.explore`, the historical home of
this code — import from there unless you need engine internals.
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Generic,
    Hashable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
    TypeVar,
)

from repro.engine.frontier import frontier_class
from repro.engine.keys import KEY_CACHE
from repro.engine.stats import EngineStats
from repro.lang.actions import Value, Var
from repro.lang.program import Program, Tid

if TYPE_CHECKING:  # runtime imports are deferred to break the
    # repro.interp -> memory models -> repro.engine import cycle
    from repro.interp.config import Configuration
    from repro.interp.interpreter import InterpretedStep
    from repro.interp.memory_model import MemoryModel

S = TypeVar("S")

ConfigKey = Tuple[Program, Hashable]


@dataclass
class Violation(Generic[S]):
    """One failed check, with the configuration it failed at."""

    message: str
    config: Configuration[S]
    step: Optional[InterpretedStep[S]] = None

    def __str__(self) -> str:
        return self.message


@dataclass
class ExplorationResult(Generic[S]):
    """Everything a bounded exploration learned."""

    initial: Configuration[S]
    configs: int = 0
    transitions: int = 0
    terminal: List[Configuration[S]] = field(default_factory=list)
    violations: List[Violation[S]] = field(default_factory=list)
    truncated: bool = False
    #: whether truncation was caused by the max_configs cap (as opposed
    #: to the max_events bound) — deepening cannot recover from a cap
    capped: bool = False
    #: canonical key -> representative configuration
    representatives: Dict[ConfigKey, Configuration[S]] = field(default_factory=dict)
    #: child key -> (parent key, tid of the thread that reached it); the
    #: initial key maps to (None, None).  Steps are replayed on demand.
    parents: Dict[ConfigKey, Tuple[Optional[ConfigKey], Optional[Tid]]] = field(
        default_factory=dict
    )
    #: what the run cost (strategy, frontier, key cache, phase timings)
    stats: EngineStats = field(default_factory=EngineStats)

    @property
    def ok(self) -> bool:
        """No violation found (within the explored bound)."""
        return not self.violations

    def trace_to(self, key: ConfigKey) -> List[InterpretedStep[S]]:
        """The step sequence from the initial configuration to ``key``.

        The parent map holds one ``(parent key, tid)`` hop per key, so
        the steps are replayed: from ``initial``, each hop takes the
        first successor of the recorded thread whose key — under this
        run's canonicalisation and equivalence — is the recorded child
        key.  The search recorded the hop from a configuration with the
        parent key, and configurations with equal keys have successors
        with equal keys, so every hop replays.
        """
        from repro.interp.interpreter import thread_successor_list

        hops: List[Tuple[Tid, ConfigKey]] = []
        cursor = key
        parent, tid = self.parents[cursor]
        while parent is not None:
            hops.append((tid, cursor))
            cursor = parent
            parent, tid = self.parents[cursor]
        model = self._model
        steps: List[InterpretedStep[S]] = []
        config = self.initial
        for tid, child_key in reversed(hops):
            pending = config.program.pending_steps()[tid]
            for step in thread_successor_list(config, model, tid, pending):
                if _key_of(
                    step.target, model, self._canonicalize, self._equivalence
                ) == child_key:
                    break
            else:
                raise RuntimeError(
                    f"trace replay lost the path: no step of thread {tid} "
                    "reaches the configuration the search recorded"
                )
            steps.append(step)
            config = step.target
        return steps

    def counterexample(self) -> Optional[List[InterpretedStep[S]]]:
        """A trace to the first violation, if any.

        For a configuration-level violation this is the step sequence
        reaching the violating configuration.  For a step-level
        violation, ``Violation.config`` is the *source* of the violating
        transition, so the violating step is appended — the returned
        trace actually exhibits the violation.
        """
        if not self.violations:
            return None
        v = self.violations[0]
        key = _key_of(v.config, self._model, self._canonicalize, self._equivalence)
        steps = self.trace_to(key)
        if v.step is not None:
            steps.append(v.step)
        return steps

    # Attached by `explore` so traces can be rebuilt.
    _model: Optional[MemoryModel[S]] = None
    _canonicalize: bool = True
    #: the state equivalence the parent map was keyed under — trace
    #: reconstruction must rekey violations with the same function
    _equivalence: str = "shasha-snir"


def _state_size(state) -> int:
    """Number of program events in an event-based state (0 otherwise)."""
    compact = getattr(state, "_compact", None)
    if compact is not None:
        return len(compact.events_seq) - len(compact.inits)
    events = getattr(state, "events", None)
    if events is None:
        return 0
    return sum(1 for e in events if not e.is_init)


def bound_cut(
    config: Configuration[S], model: MemoryModel[S], max_events: Optional[int]
) -> Tuple[Tid, ...]:
    """The one bound rule (DESIGN.md §5): the threads whose pending step
    the event bound cuts at ``config`` (empty when it is not at the bound).

    A configuration is at the bound when its state holds ``max_events``
    program events.  There every non-silent pending step is cut — each
    would add an event — and only τ steps are expanded; a search that
    cuts a step records ``truncated``.  The rule is decided before the
    model runs, so a cut step costs no memory transitions.  A model that
    records no events (``records_events`` false: SC) is never at the
    bound.  Every explorer asks this one function.
    """
    if (
        max_events is None
        or not model.records_events
        or _state_size(config.state) < max_events
    ):
        return ()
    return tuple(
        tid for tid, step in config.program.pending_steps().items()
        if not step.is_silent
    )


class MemoLifetime:
    """Scopes a memory model's per-state memo to the search (DESIGN.md §12).

    The RA model memoizes each state's transition lists on the state
    object, and those lists hold the successor states with their own
    memos, so an unscoped memo keeps every state the search ever built
    alive.  Every explorer reports here when a configuration joins its
    frontier or stack (:meth:`enter`, naming the state whose memo
    produced it) and when it has been expanded or dropped
    (:meth:`leave`); per state *object* the queued configurations are
    counted.

    *Frontier rule:* when a state's count reaches zero its memo is
    dropped (``model.drop_memo``).  Breadth-first order queues a state's
    τ siblings (which share its state object) beside it, so this rule
    alone keeps every memo hit there.  *Stack rule* (``depth_first``):
    a depth-first search may finish a state's whole subtree before its
    producer's τ sibling asks the producer's memo for that same state
    object again.  So while the producer is still queued, the state's
    memo is kept on the producer's list of deferred states, and dropped
    when the producer leaves.  A memo then lives while its state, or
    the state that produced it, is queued.
    """

    __slots__ = ("_drop", "_live", "_depth_first")

    def __init__(self, model: MemoryModel, depth_first: bool) -> None:
        self._drop = model.drop_memo
        self._depth_first = depth_first
        #: id(state) -> [queued count, producing state, deferred states]
        self._live: Dict[int, list] = {}

    def enter(self, state, producer=None) -> None:
        entry = self._live.get(id(state))
        if entry is None:
            self._live[id(state)] = [
                1, producer if self._depth_first else None, None,
            ]
        else:
            entry[0] += 1

    def leave(self, state) -> None:
        live = self._live
        entry = live[id(state)]
        entry[0] -= 1
        if entry[0]:
            return
        del live[id(state)]
        _count, producer, deferred = entry
        if deferred is not None:
            for kid in deferred:
                if id(kid) not in live:
                    self._drop(kid)
        if producer is not None:
            held = live.get(id(producer))
            if held is not None:
                if held[2] is None:
                    held[2] = [state]
                else:
                    held[2].append(state)
                return
        self._drop(state)


def _key_of(
    config: Configuration[S],
    model: MemoryModel[S],
    canonicalize: bool = True,
    equivalence: str = "shasha-snir",
) -> ConfigKey:
    if not canonicalize:
        return (config.program, config.state)
    if equivalence == "reads-from":
        live = config.program.pending_steps().keys()
        return (config.program, model.reads_from_state_key(config.state, live))
    return (config.program, model.canonical_state_key(config.state))


@contextmanager
def gc_paused() -> Iterator[None]:
    """Pause CPython's automatic cyclic garbage collection (DESIGN.md §5).

    A search allocates millions of long-lived objects, and every
    allocation burst would trigger a collection that re-scans them and
    frees nothing: reference counting already frees whatever a search
    discards.  The caller's setting is restored on every exit path; a
    nested pause finds the collector off and leaves it off.  Also usable
    as a decorator (``@gc_paused()``).
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@gc_paused()
def explore(
    program: Program,
    init_values: Mapping[Var, Value],
    model: MemoryModel[S],
    max_events: Optional[int] = None,
    max_configs: Optional[int] = None,
    check_config: Optional[Callable[[Configuration[S]], List[str]]] = None,
    check_step: Optional[Callable[[InterpretedStep[S]], List[str]]] = None,
    stop_on_violation: bool = False,
    keep_representatives: bool = False,
    canonicalize: bool = True,
    strategy: str = "bfs",
    reduction: str = "none",
    equivalence: str = "shasha-snir",
    shards: int = 1,
    shard_processes: Optional[bool] = None,
    spill_dir: Optional[str] = None,
    spill_max_entries: Optional[int] = None,
    spill_max_bytes: Optional[int] = None,
    checkpoint: Optional[str] = None,
    checkpoint_every: Optional[int] = None,
    resume: Optional[str] = None,
) -> ExplorationResult[S]:
    """Bounded exhaustive exploration from ``(P, σ_0)``.

    ``max_events`` bounds the number of program events per state — the
    loop-unrolling bound; ``max_configs`` is a hard safety net on the
    total number of distinct configurations.  ``canonicalize=False``
    disables tag-renaming deduplication (states then only merge when
    their tags coincide) — exists for the E10 ablation, which quantifies
    what canonicalisation buys.

    ``strategy`` selects the search order: ``"bfs"`` (default, shortest
    counterexamples), ``"dfs"`` (smallest frontier) or ``"iddfs"``
    (depth-first rounds under ``max_events`` bounds growing 1, 2, …,
    ``max_events``; requires a bound, else it is plain DFS).  On runs
    that explore to exhaustion, all strategies visit the same
    configurations and report identical counts — exploration is a graph
    search with canonical dedup, so the visit *order* cannot change the
    visited *set*.  With ``max_configs`` or ``stop_on_violation`` the
    run ends early and *which* subset was explored does depend on the
    order; such results are strategy-dependent (and flagged
    ``truncated`` in the capped case).

    ``reduction`` selects a partial-order reduction (DESIGN.md §9):
    ``"none"`` (this loop), ``"sleep"`` (sleep-set transition pruning —
    visits the same configurations, hook-safe for any ``check_config``
    property) or ``"dpor"`` (source-set DPOR — prunes configurations
    while preserving terminal outcome sets, control-observable
    violation verdicts and truncation flags; only ``configs`` may
    shrink).  Reduced runs perform their own traversal: ``"dpor"`` is
    inherently depth-first and ``"sleep"`` skips the deepening loop.
    ``check_step`` hooks quantify over transitions.  Under ``"sleep"``
    they fire only on the transitions the reduction keeps, but because
    sleep sets visit every configuration the full search visits, an
    *inductive* step property (one whose per-transition failures imply a
    failure on some kept transition along an explored path — proof
    outlines, DESIGN.md §10) reaches the same verdict; the hook is
    therefore allowed.  ``"dpor"``/``"optimal"`` prune configurations
    themselves, so combining them with ``check_step`` raises
    ``ValueError``.

    ``equivalence`` selects the state abstraction the reducing
    explorers key their prune store by (DESIGN.md §13):
    ``"shasha-snir"`` (default, the canonical key) or ``"reads-from"``
    (the observation quotient — states differing only in the ``mo`` of
    dead writes merge).  Only ``"dpor"`` and ``"optimal"`` consult it;
    the unreduced and sleep searches enumerate configurations
    themselves, so a coarser key would change *what* they visit, and a
    non-default equivalence raises ``ValueError`` there.

    ``shards > 1`` runs the hash-partitioned sharded search
    (:mod:`repro.engine.shard`, DESIGN.md §15): breadth-first only,
    reductions ``"none"``/``"sleep"``, canonical keys.  The parity
    contract guarantees identical configuration/transition counts and
    outcome sets for every shard count on exhaustive runs.
    ``shard_processes`` forces (True) or forbids (False) real worker
    processes; the default auto-selects.

    ``spill_dir`` plus ``spill_max_entries``/``spill_max_bytes`` bound
    the in-memory visited set: past the budget, keys overflow to an
    on-disk store under ``spill_dir``
    (:class:`~repro.engine.visited.SpillableVisitedSet`) that is
    removed when the run finishes.  Spilling requires canonical keys
    and is supported by the unreduced, sleep and sharded searches.

    ``checkpoint`` names a ``repro-ckpt/2`` file
    (:mod:`repro.engine.checkpoint`, DESIGN.md §16) rewritten
    atomically every ``checkpoint_every`` configurations (default
    1000); ``resume`` loads such a file — after verifying it belongs
    to this exact run — and continues the search to a byte-identical
    final result.  Both require canonical keys, the ``"none"``/
    ``"sleep"`` reductions, and a ``"bfs"``/``"dfs"`` strategy
    (``iddfs`` restarts its frontier per round; the backtracking
    reductions keep per-key state the snapshot format does not cover).
    """
    from repro.engine.por import EQUIVALENCES, REDUCTIONS, explore_reduced
    from repro.interp.compiled import maybe_lower

    spilling = spill_max_entries is not None or spill_max_bytes is not None
    if spilling and spill_dir is None:
        raise ValueError("a visited-set spill budget needs spill_dir")
    if spill_dir is not None and not canonicalize:
        raise ValueError(
            "visited-set spilling encodes canonical keys; "
            "canonicalize=False has no encodable key"
        )
    if spill_dir is not None and reduction not in ("none", "sleep"):
        raise ValueError(
            f"visited-set spilling supports the 'none' and 'sleep' "
            f"searches; reduction={reduction!r} keeps per-key backtrack "
            "state that cannot overflow"
        )
    if checkpoint is not None or resume is not None:
        if not canonicalize:
            raise ValueError(
                "checkpoint/resume snapshots canonical keys; "
                "canonicalize=False has no snapshottable key"
            )
        if reduction not in ("none", "sleep"):
            raise ValueError(
                f"checkpoint/resume supports the 'none' and 'sleep' "
                f"searches; reduction={reduction!r} keeps per-key "
                "backtrack state the snapshot format does not cover"
            )
        if strategy not in ("bfs", "dfs"):
            raise ValueError(
                f"checkpoint/resume supports the 'bfs' and 'dfs' "
                f"strategies, not {strategy!r}"
            )
    if checkpoint_every is not None and checkpoint_every < 1:
        raise ValueError("checkpoint_every must be >= 1")
    if shards < 1:
        raise ValueError("shards must be >= 1")
    if shards > 1:
        from repro.engine.shard import explore_sharded

        return explore_sharded(
            program,
            init_values,
            model,
            shards,
            max_events=max_events,
            max_configs=max_configs,
            check_config=check_config,
            check_step=check_step,
            stop_on_violation=stop_on_violation,
            keep_representatives=keep_representatives,
            canonicalize=canonicalize,
            strategy=strategy,
            reduction=reduction,
            equivalence=equivalence,
            processes=shard_processes,
            spill_dir=spill_dir,
            spill_max_entries=spill_max_entries,
            spill_max_bytes=spill_max_bytes,
            checkpoint=checkpoint,
            checkpoint_every=checkpoint_every,
            resume=resume,
        )

    # Compile once per run, so the deepening loop, the reduced traversals
    # and the plain search all step the same lowered program
    # (DESIGN.md §12).
    program = maybe_lower(program)

    if reduction not in REDUCTIONS:
        raise ValueError(
            f"unknown reduction {reduction!r}; choose from {REDUCTIONS}"
        )
    if equivalence not in EQUIVALENCES:
        raise ValueError(
            f"unknown equivalence {equivalence!r}; choose from {EQUIVALENCES}"
        )
    if equivalence != "shasha-snir" and reduction not in ("dpor", "optimal"):
        raise ValueError(
            f"equivalence {equivalence!r} only applies to the 'dpor' and "
            f"'optimal' reductions; reduction={reduction!r} enumerates "
            "configurations itself and must key them exactly"
        )
    fingerprint = None
    resume_payload = None
    if checkpoint is not None or resume is not None:
        from repro.engine.checkpoint import run_fingerprint, read_checkpoint

        fingerprint = run_fingerprint(
            program, init_values, model,
            max_events=max_events, max_configs=max_configs,
            strategy=strategy, reduction=reduction,
            equivalence=equivalence, canonicalize=canonicalize, shards=1,
        )
        if resume is not None:
            _, resume_payload = read_checkpoint(resume, expect=fingerprint)

    if reduction != "none":
        if check_step is not None and reduction != "sleep":
            raise ValueError(
                "check_step hooks quantify over transitions, and the "
                f"{reduction!r} reduction prunes configurations outright; "
                "use reduction='sleep' (configuration-identical) or 'none'"
            )
        kwargs_step = {}
        if check_step is not None:
            kwargs_step["check_step"] = check_step
        if reduction in ("dpor", "optimal"):
            kwargs_step["equivalence"] = equivalence
        if spill_dir is not None and reduction == "sleep":
            kwargs_step["spill_dir"] = spill_dir
            kwargs_step["spill_max_entries"] = spill_max_entries
            kwargs_step["spill_max_bytes"] = spill_max_bytes
        if reduction == "sleep" and (
            checkpoint is not None or resume_payload is not None
        ):
            kwargs_step["checkpoint"] = checkpoint
            kwargs_step["checkpoint_every"] = checkpoint_every
            kwargs_step["resume_payload"] = resume_payload
            kwargs_step["fingerprint"] = fingerprint
        return explore_reduced(
            program,
            init_values,
            model,
            reduction,
            max_events=max_events,
            max_configs=max_configs,
            check_config=check_config,
            stop_on_violation=stop_on_violation,
            keep_representatives=keep_representatives,
            canonicalize=canonicalize,
            strategy=strategy,
            **kwargs_step,
        )
    if strategy == "iddfs" and max_events is not None and max_events >= 1:
        return _explore_deepening(
            program,
            init_values,
            model,
            max_events=max_events,
            max_configs=max_configs,
            check_config=check_config,
            check_step=check_step,
            stop_on_violation=stop_on_violation,
            keep_representatives=keep_representatives,
            canonicalize=canonicalize,
            spill_dir=spill_dir,
            spill_max_entries=spill_max_entries,
            spill_max_bytes=spill_max_bytes,
        )
    return _explore_once(
        program,
        init_values,
        model,
        max_events=max_events,
        max_configs=max_configs,
        check_config=check_config,
        check_step=check_step,
        stop_on_violation=stop_on_violation,
        keep_representatives=keep_representatives,
        canonicalize=canonicalize,
        strategy=strategy,
        spill_dir=spill_dir,
        spill_max_entries=spill_max_entries,
        spill_max_bytes=spill_max_bytes,
        checkpoint=checkpoint,
        checkpoint_every=checkpoint_every,
        resume_payload=resume_payload,
        fingerprint=fingerprint,
    )


def _explore_deepening(
    program: Program,
    init_values: Mapping[Var, Value],
    model: MemoryModel[S],
    max_events: int,
    **kwargs,
) -> ExplorationResult[S]:
    """Iterative deepening over the event bound.

    Each round is a depth-first search truncated at a growing bound; a
    round that never hits its bound has exhausted the state space, so
    deeper rounds would revisit it verbatim and the loop stops early.
    The final round's result is returned (it is exactly what a single
    run at its bound computes); stats accumulate across rounds.
    """
    cumulative = EngineStats(strategy="iddfs")
    rounds = 0
    result: Optional[ExplorationResult[S]] = None
    for bound in range(1, max_events + 1):
        result = _explore_once(
            program,
            init_values,
            model,
            max_events=bound,
            strategy="iddfs",
            **kwargs,
        )
        rounds += 1
        cumulative.merge_round(result.stats)
        if kwargs.get("stop_on_violation") and result.violations:
            break
        if not result.truncated:
            break
        if result.capped:
            # The config cap, not the event bound, cut the round short:
            # deeper rounds would re-run the identical capped search.
            break
    assert result is not None  # max_events >= 1 guaranteed by range start
    cumulative.iterations = rounds
    result.stats = cumulative
    return result


def _explore_once(
    program: Program,
    init_values: Mapping[Var, Value],
    model: MemoryModel[S],
    max_events: Optional[int] = None,
    max_configs: Optional[int] = None,
    check_config: Optional[Callable[[Configuration[S]], List[str]]] = None,
    check_step: Optional[Callable[[InterpretedStep[S]], List[str]]] = None,
    stop_on_violation: bool = False,
    keep_representatives: bool = False,
    canonicalize: bool = True,
    strategy: str = "bfs",
    spill_dir: Optional[str] = None,
    spill_max_entries: Optional[int] = None,
    spill_max_bytes: Optional[int] = None,
    checkpoint: Optional[str] = None,
    checkpoint_every: Optional[int] = None,
    resume_payload: Optional[dict] = None,
    fingerprint: Optional[dict] = None,
) -> ExplorationResult[S]:
    """One search run with a fixed frontier discipline and bounds."""
    from repro.c11.compact import ORDER_TIMER
    from repro.interp.memory_model import MODEL_TIMER
    from repro.interp.config import Configuration
    from repro.interp.interpreter import successor_list
    from repro.obs.trace import tracer

    initial = Configuration(program, model.initial(init_values))
    result: ExplorationResult[S] = ExplorationResult(initial)
    result._model = model
    result._canonicalize = canonicalize
    stats = result.stats
    stats.strategy = strategy

    tr = tracer()
    run = (
        tr.run_start(
            program, getattr(model, "name", type(model).__name__),
            strategy, "none", max_events,
        )
        if tr is not None
        else None
    )

    clock = time.perf_counter
    t_run = clock()
    hits0, misses0, _ = KEY_CACHE.snapshot()
    orders0 = ORDER_TIMER.snapshot()
    model0 = MODEL_TIMER.snapshot()

    spill_store = None
    if spill_max_entries is not None or spill_max_bytes is not None:
        from repro.engine.visited import SpillableVisitedSet, encode_config_key

        spill_store = SpillableVisitedSet(
            spill_dir=spill_dir,
            max_entries=spill_max_entries,
            max_bytes=spill_max_bytes,
            encode=encode_config_key,
        )

    from repro.faults import FaultInterrupt, active_plan

    plan = active_plan()
    last_ckpt: Optional[str] = None

    try:
        t0 = clock()
        init_key = _key_of(initial, model, canonicalize)
        stats.time_keys += clock() - t0

        frontier = frontier_class(strategy)()
        # Once the max_configs cap is hit, nothing new can ever be
        # enqueued, so canonical keying of successors becomes pure dead
        # work and is skipped.  Remaining frontier entries are still
        # popped, counted and checked exactly as before the cap — with
        # one shortcut: when there is no step hook, generating their
        # successors can observe nothing, so expansion is skipped too
        # (which only makes `transitions` a count over *expanded*
        # configurations on such capped runs).
        capped = False
        lifetime = MemoLifetime(model, depth_first=strategy != "bfs")
        if resume_payload is not None:
            from repro.engine.checkpoint import restore_seen

            loop = resume_payload
            seen = restore_seen(loop["seen"], spill_store)
            frontier.restore(loop["frontier"])
            for queued, _key in frontier.snapshot():
                lifetime.enter(queued.state)
            result.parents = loop["parents"]
            if spill_store is None:
                seen = result.parents
            result.terminal = loop["terminal"]
            result.violations = loop["violations"]
            result.representatives = loop["representatives"]
            result.configs = loop["configs"]
            result.transitions = loop["transitions"]
            result.truncated = loop["truncated"]
            result.capped = capped = loop["capped"]
            result.stats = stats = loop["stats"]
            stats.resumed = 1
        else:
            # Without a spill budget the parent map is the visited set:
            # it holds exactly the keys a separate set would.
            seen = result.parents
            if spill_store is not None:
                seen = spill_store
                seen.add(init_key)
            result.parents[init_key] = (None, None)
            frontier.push((initial, init_key))
            lifetime.enter(initial.state)
            stats.peak_frontier = 1

        def write_ckpt() -> None:
            import dataclasses

            from repro.engine.checkpoint import snapshot_seen, write_checkpoint

            # the snapshot's stats must look like the run ended here:
            # fold in this segment's process-wide counter deltas
            snap_stats = dataclasses.replace(stats)
            snap_stats.checkpoints += 1
            h1, m1, _ = KEY_CACHE.snapshot()
            snap_stats.key_hits += h1 - hits0
            snap_stats.key_misses += m1 - misses0
            snap_stats.time_total += clock() - t_run
            snap_stats.time_orders += ORDER_TIMER.snapshot() - orders0
            snap_stats.time_model += MODEL_TIMER.snapshot() - model0
            write_checkpoint(checkpoint, fingerprint, {
                "algo": "plain",
                "frontier": frontier.snapshot(),
                "seen": snapshot_seen(seen),
                "parents": result.parents,
                "terminal": result.terminal,
                "violations": result.violations,
                "representatives": result.representatives,
                "configs": result.configs,
                "transitions": result.transitions,
                "truncated": result.truncated,
                "capped": result.capped,
                "stats": snap_stats,
            })
            stats.checkpoints += 1
            if tr is not None:
                tr.emit(
                    "ckpt", run=run, path=checkpoint,
                    configs=result.configs, action="write",
                )

        next_ckpt = None
        if checkpoint is not None:
            every = checkpoint_every or 1000
            next_ckpt = result.configs + every

        while frontier:
            if next_ckpt is not None and result.configs >= next_ckpt:
                write_ckpt()
                last_ckpt = checkpoint
                next_ckpt = result.configs + every
            if plan is not None and plan.interrupt_due(result.configs):
                if tr is not None:
                    tr.emit(
                        "fault", run=run, kind="interrupt",
                        detail=f"configs={result.configs}",
                    )
                raise FaultInterrupt(
                    f"injected interrupt at {result.configs} configurations",
                    checkpoint=last_ckpt,
                )
            config, key = frontier.pop()
            result.configs += 1
            if tr is not None and tr.tick():
                hits_now, misses_now, _ = KEY_CACHE.snapshot()
                tr.emit(
                    "node", run=run, n=result.configs,
                    pcs=[config.program.pc(t) for t in config.program.tids],
                    keys=[hits_now - hits0, misses_now - misses0],
                )
            if keep_representatives:
                result.representatives[key] = config

            if check_config is not None:
                t0 = clock()
                messages = check_config(config)
                stats.time_checks += clock() - t0
                for message in messages:
                    result.violations.append(Violation(message, config))
                    if stop_on_violation:
                        return result

            if config.is_terminated():
                result.terminal.append(config)
                lifetime.leave(config.state)
                continue

            if capped and check_step is None:
                result.truncated = True
                lifetime.leave(config.state)
                continue

            cut = bound_cut(config, model, max_events)
            if cut:
                result.truncated = True

            t0 = clock()
            steps = successor_list(config, model, silent_only=bool(cut))
            stats.time_expand += clock() - t0

            for step in steps:
                result.transitions += 1

                if check_step is not None:
                    t0 = clock()
                    messages = check_step(step)
                    stats.time_checks += clock() - t0
                    for message in messages:
                        result.violations.append(Violation(message, config, step))
                        if stop_on_violation:
                            return result

                if capped:
                    continue
                t0 = clock()
                child_key = _key_of(step.target, model, canonicalize)
                stats.time_keys += clock() - t0
                if child_key in seen:
                    continue
                if max_configs is not None and len(seen) >= max_configs:
                    result.truncated = True
                    result.capped = True
                    capped = True
                    continue
                if spill_store is not None:
                    seen.add(child_key)
                result.parents[child_key] = (key, step.tid)
                frontier.push((step.target, child_key))
                lifetime.enter(step.target.state, config.state)
                if len(frontier) > stats.peak_frontier:
                    stats.peak_frontier = len(frontier)
            lifetime.leave(config.state)
    finally:
        if spill_store is not None:
            stats.spills += spill_store.spills
            stats.spilled_keys += spill_store.spilled_keys
            stats.spill_failures += spill_store.spill_failures
            spill_store.close()
        stats.time_total += clock() - t_run
        hits1, misses1, _ = KEY_CACHE.snapshot()
        stats.key_hits += hits1 - hits0
        stats.key_misses += misses1 - misses0
        stats.time_orders += ORDER_TIMER.snapshot() - orders0
        stats.time_model += MODEL_TIMER.snapshot() - model0
        if tr is not None:
            tr.run_end(
                run, stats, result.configs, result.transitions,
                result.truncated,
            )

    return result


def reachable_states(
    program: Program,
    init_values: Mapping[Var, Value],
    model: MemoryModel[S],
    max_events: Optional[int] = None,
    max_configs: Optional[int] = None,
    strategy: str = "bfs",
    reduction: str = "none",
) -> Tuple[List[S], ExplorationResult[S]]:
    """All distinct memory states reachable (deduplicated by the model's
    canonical key), plus the exploration result.

    The ``record`` hook keys every state a second time; thanks to the
    memoization layer that second keying is a cache hit, not a repeat of
    the ``O(n log n)`` canonicalisation (DESIGN.md §4).

    ``reduction="sleep"`` still enumerates every reachable state (sleep
    sets prune transitions, not configurations); ``"dpor"`` prunes
    configurations and thus returns a *subset* of the reachable states —
    fine for reaching terminal states fast, wrong for per-state
    universal checks, which is why the soundness/completeness checkers
    keep the default.
    """
    states: Dict[Hashable, S] = {}

    def record(config: Configuration[S]) -> List[str]:
        states.setdefault(model.canonical_state_key(config.state), config.state)
        return []

    result = explore(
        program,
        init_values,
        model,
        max_events=max_events,
        max_configs=max_configs,
        check_config=record,
        strategy=strategy,
        reduction=reduction,
    )
    return list(states.values()), result
