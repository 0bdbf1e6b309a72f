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
from repro.engine.plan import SearchPlan
from repro.engine.stats import EngineStats, ProcessCounters
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
    terminal: List[Configuration[S]] = field(default_factory=list)
    violations: List[Violation[S]] = field(default_factory=list)
    truncated: bool = False
    #: whether truncation was caused by the max_configs cap (as opposed
    #: to the max_events bound)
    capped: bool = False
    #: child key -> (parent key, tid of the thread that reached it); the
    #: initial key maps to (None, None).  Steps are replayed on demand.
    parents: Dict[ConfigKey, Tuple[Optional[ConfigKey], Optional[Tid]]] = field(
        default_factory=dict
    )
    #: what the run did and cost (counts, strategy, frontier, key cache,
    #: phase timings)
    stats: EngineStats = field(default_factory=EngineStats)

    @property
    def configs(self) -> int:
        """Distinct configurations explored (``stats.configs``)."""
        return self.stats.configs

    @property
    def transitions(self) -> int:
        """Transitions enumerated (``stats.transitions``)."""
        return self.stats.transitions

    @property
    def ok(self) -> bool:
        """No violation found (within the explored bound)."""
        return not self.violations

    def trace_to(self, key: ConfigKey) -> List[InterpretedStep[S]]:
        """The step sequence from the initial configuration to ``key``.

        The parent map holds one ``(parent key, tid)`` hop per key, so
        the steps are replayed: from ``initial``, each hop takes the
        first successor of the recorded thread whose key — under this
        run's canonicalisation — is the recorded child key.  The search
        recorded the hop from a configuration with the parent key, and
        configurations with equal keys have successors with equal keys,
        so every hop replays.
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
                if _key_of(step.target, model, self._canonicalize) == child_key:
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
        key = _key_of(v.config, self._model, self._canonicalize)
        steps = self.trace_to(key)
        if v.step is not None:
            steps.append(v.step)
        return steps

    # Attached by `explore` so traces can be rebuilt.
    _model: Optional[MemoryModel[S]] = None
    _canonicalize: bool = True


def _state_size(state) -> int:
    """Number of program events in an event-based state (0 otherwise):
    the ``program_events`` count C11 and pre-execution states keep."""
    return getattr(state, "program_events", 0)


def bound_cut(
    config: Configuration[S], model: MemoryModel[S], max_events: Optional[int]
) -> Tuple[Tid, ...]:
    """The one bound rule (DESIGN.md §5): the threads whose pending step
    the event bound cuts at ``config`` (empty when it is not at the bound).

    A configuration is at the bound when its state holds ``max_events``
    program events, which the state counts as it grows
    (``program_events``, set at birth even on a successor whose compact
    form is not built yet, DESIGN.md §11), so the test is O(1) and
    builds nothing.  There every non-silent
    pending step is cut — each would add an event — and only τ steps
    are expanded; the cut threads are a function of the machine state,
    which the lowered program keeps (``event_tids``).  A search that
    cuts a step records ``truncated``.  The
    rule is decided before the model runs, so a cut step costs no
    memory transitions.  A model that
    records no events (``records_events`` false: SC) is never at the
    bound.  Every explorer asks this one function.
    """
    if (
        max_events is None
        or not model.records_events
        or config.state.program_events < max_events
    ):
        return ()
    return config.program.event_tids()


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
) -> ConfigKey:
    if not canonicalize:
        return (config.program, config.state)
    return (config.program, model.canonical_state_key(config.state))


#: Young objects above which an ending pause promotes them instead of
#: leaving them to the next young collection (:func:`gc_paused`): ring4
#: b12 leaves 244k, whose scan took 0.15 s; ring4 b8 leaves 36k, and
#: the registry's litmus tests a few hundred.
_PROMOTE_YOUNG = 100_000


@contextmanager
def gc_paused() -> Iterator[None]:
    """Pause CPython's automatic cyclic garbage collection (DESIGN.md §5).

    A search allocates millions of long-lived objects, and every
    allocation burst would trigger a collection that re-scans them and
    frees nothing: reference counting already frees whatever a search
    discards.  The caller's setting is restored on every exit path; a
    nested pause finds the collector off and leaves it off.  Also usable
    as a decorator (``@gc_paused()``).

    Everything allocated during the pause is still in the youngest
    generation when it ends, so the first allocation after re-enabling
    would scan all of it — the search's whole surviving heap — once.
    When that is more than :data:`_PROMOTE_YOUNG` objects, ``freeze``
    then ``unfreeze`` moves the tracked objects to the oldest generation
    instead (two list splices): they stay collectable, by the full
    collections that would have reached them anyway.  A smaller young
    generation is left to the young collection, which is cheap then and
    also frees the caller's young cyclic garbage — promoted, that would
    wait for a full collection, and a fuzz campaign's thousands of small
    searches would pile it up.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            if gc.get_count()[0] > _PROMOTE_YOUNG:
                gc.freeze()
                gc.unfreeze()
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
    canonicalize: bool = True,
    strategy: str = "bfs",
    reduction: str = "none",
    shards: int = 1,
    shard_processes: Optional[bool] = None,
    checkpoint: Optional[str] = None,
    checkpoint_every: Optional[int] = None,
    resume: Optional[str] = None,
) -> ExplorationResult[S]:
    """Bounded exhaustive exploration from ``(P, σ_0)``.

    The options form one :class:`~repro.engine.plan.SearchPlan`, which
    checks how they combine before any search path is chosen (an
    invalid combination raises ``ValueError``); a caller holding a plan
    passes ``**plan.options()``.

    ``max_events`` bounds the number of program events per state — the
    loop-unrolling bound; ``max_configs`` is a hard safety net on the
    total number of distinct configurations.  ``canonicalize=False``
    disables tag-renaming deduplication (states then only merge when
    their tags coincide) — exists for the E10 ablation, which quantifies
    what canonicalisation buys.

    ``strategy`` selects the search order: ``"bfs"`` (default, shortest
    counterexamples) or ``"dfs"`` (smallest frontier).  On runs that
    explore to exhaustion, both visit the same configurations and
    report identical counts — exploration is a graph search with
    canonical dedup, so the visit *order* cannot change the visited
    *set*.  With ``max_configs`` or ``stop_on_violation`` the run ends
    early and *which* subset was explored does depend on the order;
    such results are strategy-dependent (and flagged ``truncated`` in
    the capped case).

    ``reduction`` selects a partial-order reduction (DESIGN.md §9):
    ``"none"`` (this loop) or ``"optimal"`` (parsimonious DPOR — prunes
    configurations while preserving terminal outcome sets,
    control-observable violation verdicts and truncation flags; only
    ``configs`` may shrink).  The reduced run performs its own
    depth-first traversal.  ``check_step`` hooks quantify over
    transitions, which ``"optimal"`` prunes along with configurations,
    so combining the two raises ``ValueError``.

    ``shards > 1`` runs the hash-partitioned sharded search
    (:mod:`repro.engine.shard`, DESIGN.md §15): breadth-first only,
    unreduced only, canonical keys.  The parity contract guarantees
    identical configuration/transition counts and outcome sets for
    every shard count on exhaustive runs.  ``shard_processes`` forces
    (True) or forbids (False) real worker processes; the default
    auto-selects.

    ``checkpoint`` names a ``repro-ckpt/6`` file
    (:mod:`repro.engine.checkpoint`, DESIGN.md §16) rewritten
    atomically every ``checkpoint_every`` configurations (default
    1000); ``resume`` loads such a file — after verifying it belongs
    to this exact run — and continues the search to a byte-identical
    final result.  Both require canonical keys and the unreduced search
    (``"optimal"`` keeps per-key state the snapshot format does not
    cover).
    """
    from repro.engine.por import explore_reduced
    from repro.interp.compiled import maybe_lower

    plan = SearchPlan(
        max_events=max_events,
        max_configs=max_configs,
        strategy=strategy,
        reduction=reduction,
        canonicalize=canonicalize,
        stop_on_violation=stop_on_violation,
        shards=shards,
        shard_processes=shard_processes,
        checkpoint=checkpoint,
        checkpoint_every=checkpoint_every,
        resume=resume,
    )
    if check_step is not None and plan.reduction != "none":
        raise ValueError(
            "check_step hooks quantify over transitions, and the "
            f"{plan.reduction!r} reduction prunes configurations outright; "
            "use reduction='none'"
        )
    if plan.shards > 1:
        from repro.engine.shard import explore_sharded

        return explore_sharded(
            program, init_values, model, plan,
            check_config=check_config, check_step=check_step,
        )

    # Compile once per run, so the reduced traversal and the plain
    # search step the same lowered program (DESIGN.md §12).
    program = maybe_lower(program)

    if plan.reduction != "none":
        return explore_reduced(
            program, init_values, model, plan, check_config=check_config,
        )
    fingerprint, resume_payload = plan.open_checkpoint(
        program, init_values, model, "plain"
    )
    return _explore_once(
        program,
        init_values,
        model,
        plan,
        check_config=check_config,
        check_step=check_step,
        resume_payload=resume_payload,
        fingerprint=fingerprint,
    )


def _explore_once(
    program: Program,
    init_values: Mapping[Var, Value],
    model: MemoryModel[S],
    plan: SearchPlan,
    check_config: Optional[Callable[[Configuration[S]], List[str]]] = None,
    check_step: Optional[Callable[[InterpretedStep[S]], List[str]]] = None,
    resume_payload: Optional[dict] = None,
    fingerprint: Optional[dict] = None,
) -> ExplorationResult[S]:
    """The unreduced search under ``plan``'s frontier discipline and bounds."""
    from repro.interp.config import Configuration
    from repro.interp.interpreter import successor_list
    from repro.obs.trace import tracer

    max_events = plan.max_events
    max_configs = plan.max_configs
    stop_on_violation = plan.stop_on_violation
    canonicalize = plan.canonicalize
    strategy = plan.strategy
    checkpoint = plan.checkpoint

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
    counters = ProcessCounters()

    from repro.faults import FaultInterrupt, active_plan

    faults = active_plan()
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
            loop = resume_payload
            frontier.restore(loop["frontier"])
            for queued, _key in frontier.snapshot():
                lifetime.enter(queued.state)
            result.parents = loop["parents"]
            result.terminal = loop["terminal"]
            result.violations = loop["violations"]
            result.truncated = loop["truncated"]
            result.capped = capped = loop["capped"]
            result.stats = stats = loop["stats"]
            stats.resumed = 1
        else:
            result.parents[init_key] = (None, None)
            frontier.push((initial, init_key))
            lifetime.enter(initial.state)
            stats.peak_frontier = 1
        # The parent map is the visited set: it holds every key reached.
        parents = result.parents

        def write_ckpt() -> None:
            import dataclasses

            from repro.engine.checkpoint import write_checkpoint

            # the snapshot's stats must look like the run ended here:
            # fold in this segment's process-wide counter deltas
            snap_stats = dataclasses.replace(stats)
            snap_stats.checkpoints += 1
            snap_stats.time_total += clock() - t_run
            counters.fold_into(snap_stats)
            write_checkpoint(checkpoint, fingerprint, {
                "algo": "plain",
                "frontier": frontier.snapshot(),
                "parents": result.parents,
                "terminal": result.terminal,
                "violations": result.violations,
                "truncated": result.truncated,
                "capped": result.capped,
                "stats": snap_stats,
            })
            stats.checkpoints += 1
            if tr is not None:
                tr.emit(
                    "ckpt", run=run, path=checkpoint,
                    configs=stats.configs, action="write",
                )

        next_ckpt = None
        if checkpoint is not None:
            every = plan.checkpoint_every or 1000
            next_ckpt = stats.configs + every

        # The loop's own calls, bound once: one expansion reads the clock
        # once per phase (check, expand, keys, store) rather than once
        # per transition (DESIGN.md §5).
        pop, push = frontier.pop, frontier.push
        enter, leave = lifetime.enter, lifetime.leave
        canonical = model.canonical_state_key if canonicalize else None
        terminal, violations = result.terminal, result.violations
        while frontier:
            if next_ckpt is not None and stats.configs >= next_ckpt:
                write_ckpt()
                last_ckpt = checkpoint
                next_ckpt = stats.configs + every
            if faults is not None and faults.interrupt_due(stats.configs):
                if tr is not None:
                    tr.emit(
                        "fault", run=run, kind="interrupt",
                        detail=f"configs={stats.configs}",
                    )
                raise FaultInterrupt(
                    f"injected interrupt at {stats.configs} configurations",
                    checkpoint=last_ckpt,
                )
            config, key = pop()
            stats.configs += 1
            if tr is not None and tr.tick():
                so_far = counters.fold_into(EngineStats())
                tr.emit(
                    "node", run=run, n=stats.configs,
                    pcs=list(config.program.labels),
                    keys=[so_far.key_hits, so_far.key_misses],
                )

            if check_config is not None:
                t0 = clock()
                messages = check_config(config)
                stats.time_checks += clock() - t0
                for message in messages:
                    violations.append(Violation(message, config))
                    if stop_on_violation:
                        return result

            state = config.state
            if config.program.is_terminated():
                terminal.append(config)
                leave(state)
                continue

            if capped and check_step is None:
                result.truncated = True
                leave(state)
                continue

            cut = bound_cut(config, model, max_events)
            if cut:
                result.truncated = True

            t0 = clock()
            steps = successor_list(config, model, silent_only=bool(cut))
            t1 = clock()
            stats.time_expand += t1 - t0

            if check_step is not None:
                for done, step in enumerate(steps, 1):
                    for message in check_step(step):
                        violations.append(Violation(message, config, step))
                        if stop_on_violation:
                            stats.transitions += done
                            stats.time_checks += clock() - t1
                            return result
                t0, t1 = t1, clock()
                stats.time_checks += t1 - t0
            stats.transitions += len(steps)
            if capped:
                leave(state)
                continue

            # Key every child in one pass, then store the new ones in a
            # second, in successor order.
            if canonical is not None:
                keys = [
                    (step.target_program, canonical(step.target_state))
                    for step in steps
                ]
            else:
                keys = [(step.target_program, step.target_state) for step in steps]
            t2 = clock()
            stats.time_keys += t2 - t1

            for step, child_key in zip(steps, keys):
                if child_key in parents:
                    continue
                if max_configs is not None and len(parents) >= max_configs:
                    result.truncated = True
                    result.capped = True
                    capped = True
                    break
                parents[child_key] = (key, step.tid)
                child = step.target_state
                push((Configuration(step.target_program, child), child_key))
                enter(child, state)
            queued = len(frontier)
            if queued > stats.peak_frontier:
                stats.peak_frontier = queued
            leave(state)
            stats.time_store += clock() - t2
    finally:
        stats.time_total += clock() - t_run
        counters.fold_into(stats)
        if tr is not None:
            tr.run_end(run, stats, result.truncated)

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

    ``reduction="optimal"`` prunes configurations and thus returns a
    *subset* of the reachable states — fine for reaching terminal states
    fast, wrong for per-state universal checks, which is why the
    soundness/completeness checkers keep the default.
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
