"""Sleep-set pruning over the graph search (reduction ``"sleep"``).

Sleep sets (Godefroid) prune *transitions*, not *states*: after thread
``p`` has been fully explored from a configuration, later sibling
branches carry ``p`` in their sleep set and skip re-exploring it until
some executed step conflicts with ``p``'s footprint — at which point
``p`` wakes.  Every configuration reachable by the full search is still
reached (the classic result that sleep sets alone do not shrink the
state count), which makes this the *hook-safe* reduction tier: any
``check_config`` property, including memory-reading invariants, sees
exactly the states the unreduced search sees.  Only the transition
count (and hence successor-expansion work) shrinks.

Because the engine deduplicates by canonical key, a configuration can
be reached with *different* sleep sets along different paths.  Plain
seen-set dedup would be unsound (the first arrival's sleep set may have
pruned a thread the second arrival needs), so dedup here follows the
sleep-set *inclusion* discipline from the state-space-caching
literature: each expansion of a key records its sleep set, and a new
arrival is pruned only when its sleep set is a superset of a recorded
one (its exploration would be a subset of work already done).
Incomparable arrivals re-expand the configuration — counted in
``EngineStats.revisits``; the per-key records form an antichain over a
finite lattice, so re-expansion terminates.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, FrozenSet, Hashable, List, Mapping, Optional

from repro.engine.core import (
    ExplorationResult,
    MemoLifetime,
    Violation,
    _key_of,
    bound_cut,
)
from repro.engine.frontier import frontier_class
from repro.engine.keys import KEY_CACHE
from repro.engine.por.deps import StepFootprint, conflicts, step_footprint


def explore_sleep(
    program,
    init_values: Mapping,
    model,
    max_events: Optional[int] = None,
    max_configs: Optional[int] = None,
    check_config: Optional[Callable] = None,
    check_step: Optional[Callable] = None,
    stop_on_violation: bool = False,
    keep_representatives: bool = False,
    canonicalize: bool = True,
    strategy: str = "bfs",
    checkpoint: Optional[str] = None,
    checkpoint_every: Optional[int] = None,
    resume_payload: Optional[dict] = None,
    fingerprint: Optional[dict] = None,
) -> ExplorationResult:
    """Graph search with sleep-set transition pruning.

    Honours ``strategy`` through the ordinary frontier abstraction
    (``iddfs`` degrades to a single depth-first run — the deepening
    loop lives above the reduction dispatch and is skipped).

    ``check_step`` fires on every transition the reduction *keeps* —
    pruned (commutation-redundant) transitions are not checked, and a
    configuration re-expanded under an incomparable sleep set re-checks
    its outgoing transitions.  Because sleep sets visit every
    configuration of the full search, an inductive step property (the
    proof-outline obligations of DESIGN.md §10: initialisation plus
    preservation along explored paths) reaches the same proved/failed
    verdict as the unreduced search; only the obligation *counts* and
    the particular failing transitions reported may differ.

    As in the unreduced loop, the parent map is the visited set: a key
    is reached once it has a parent entry (DESIGN.md §5).
    """
    from repro.c11.compact import ORDER_TIMER
    from repro.interp.memory_model import MODEL_TIMER
    from repro.interp.interpreter import initial_configuration, thread_successor_list
    from repro.obs.trace import tracer

    initial = initial_configuration(program, init_values, model)
    result: ExplorationResult = ExplorationResult(initial)
    result._model = model
    result._canonicalize = canonicalize
    stats = result.stats
    stats.strategy = strategy
    stats.reduction = "sleep"
    track_control = check_config is not None

    tr = tracer()
    run = (
        tr.run_start(
            program, getattr(model, "name", type(model).__name__),
            strategy, "sleep", max_events,
        )
        if tr is not None
        else None
    )

    clock = time.perf_counter
    t_run = clock()
    hits0, misses0, _ = KEY_CACHE.snapshot()
    orders0 = ORDER_TIMER.snapshot()
    model0 = MODEL_TIMER.snapshot()

    #: key -> antichain of sleep-tid sets this key was expanded with
    expanded: Dict[Hashable, List[FrozenSet[int]]] = {}

    from repro.faults import FaultInterrupt, active_plan

    plan = active_plan()
    last_ckpt: Optional[str] = None

    try:
        t0 = clock()
        init_key = _key_of(initial, model, canonicalize)
        stats.time_keys += clock() - t0

        frontier = frontier_class(strategy)()
        capped = False
        lifetime = MemoLifetime(model, depth_first=strategy != "bfs")
        if resume_payload is not None:
            loop = resume_payload
            frontier.restore(loop["frontier"])
            for queued, _key, _sleep in frontier.snapshot():
                lifetime.enter(queued.state)
            expanded = loop["expanded"]
            result.parents = loop["parents"]
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
            result.parents[init_key] = (None, None)
            frontier.push((initial, init_key, {}))
            lifetime.enter(initial.state)
            stats.peak_frontier = 1
        parents = result.parents

        def write_ckpt() -> None:
            import dataclasses

            from repro.engine.checkpoint import write_checkpoint

            snap_stats = dataclasses.replace(stats)
            snap_stats.checkpoints += 1
            h1, m1, _ = KEY_CACHE.snapshot()
            snap_stats.key_hits += h1 - hits0
            snap_stats.key_misses += m1 - misses0
            snap_stats.time_total += clock() - t_run
            snap_stats.time_orders += ORDER_TIMER.snapshot() - orders0
            snap_stats.time_model += MODEL_TIMER.snapshot() - model0
            write_checkpoint(checkpoint, fingerprint, {
                "algo": "sleep",
                "frontier": frontier.snapshot(),
                "expanded": expanded,
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
            config, key, sleep = frontier.pop()
            sleeping = frozenset(sleep)
            records = expanded.get(key)
            if records is not None:
                if any(rec <= sleeping for rec in records):
                    lifetime.leave(config.state)
                    continue  # covered arrival: strictly less awake
                stats.revisits += 1
            expanded.setdefault(key, []).append(sleeping)

            if records is None:  # first visit: hooks fire exactly once per key
                result.configs += 1
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

            if config.is_terminated():
                lifetime.leave(config.state)
                continue

            steps = config.program.pending_steps()
            cut = bound_cut(config, model, max_events)
            awake_sleep = dict(sleep)
            for tid in sorted(steps):
                step = steps[tid]
                if tid in sleep:
                    stats.sleep_hits += 1
                    stats.pruned += 1
                    if tr is not None and tr.tick():
                        tr.prune(run, "sleep", config.program)
                    if tid in cut:
                        result.truncated = True
                    continue
                if tid in cut:
                    # Bound-blocked, exactly as the unreduced loop: the
                    # eventful step is skipped and recorded, and the
                    # thread does not join the sleep set (it was never
                    # explored here).
                    result.truncated = True
                    continue
                fp = step_footprint(
                    model, config.state, tid, step, track_control,
                )
                stats.expanded += 1
                t0 = clock()
                successors = thread_successor_list(config, model, tid, step)
                stats.time_expand += clock() - t0
                child_sleep = {
                    q: fq for q, fq in awake_sleep.items()
                    if q != tid and not conflicts(fq, fp)
                }
                for child in successors:
                    result.transitions += 1
                    if check_step is not None:
                        t0 = clock()
                        messages = check_step(child)
                        stats.time_checks += clock() - t0
                        for message in messages:
                            result.violations.append(
                                Violation(message, config, child)
                            )
                            if stop_on_violation:
                                return result
                    if capped:
                        continue
                    t0 = clock()
                    child_key = _key_of(child.target, model, canonicalize)
                    stats.time_keys += clock() - t0
                    if child_key not in parents:
                        if max_configs is not None and len(parents) >= max_configs:
                            result.truncated = True
                            result.capped = True
                            capped = True
                            continue
                        parents[child_key] = (key, tid)
                    recs = expanded.get(child_key)
                    if recs is not None and any(
                        rec <= frozenset(child_sleep) for rec in recs
                    ):
                        continue  # already expanded at least this awake
                    frontier.push((child.target, child_key, child_sleep))
                    lifetime.enter(child.target.state, config.state)
                    if len(frontier) > stats.peak_frontier:
                        stats.peak_frontier = len(frontier)
                awake_sleep[tid] = fp  # sleeps for the remaining siblings
            lifetime.leave(config.state)
    finally:
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


__all__ = ["explore_sleep"]
