"""Source-set-style dynamic partial-order reduction (``"dpor"``).

A depth-first exploration in the Flanagan–Godefroid / Abdulla et al.
mould, thread-granular (each thread has exactly one pending step, so
choosing a thread chooses its step and only the memory model branches
below it):

* **Race detection** — every executed step carries a vector clock (the
  join of its thread's history with the clocks of the conflicting
  accesses it extends).  On *entering* a configuration, the pending
  step of **every** thread — picked for exploration or not — is
  compared against the *last* conflicting accesses on the current path
  (last write per location read, last write plus per-thread last reads
  per location written, last visible step when control visibility is
  on); any such access not already happens-before the thread is a race.
* **Backtrack-point insertion** — for each race with an earlier step
  ``e``, the *source-set* rule (Abdulla et al.) schedules the reversal
  at the configuration ``e`` was executed from: unless an initial of
  the reversing witness is already in that backtrack set, one initial
  is inserted, preferring an awake one.  (Inserting the racing thread
  itself — the plain Flanagan–Godefroid rule — is incomplete under
  sleep sets: it can be asleep at the ancestor while another initial
  of the same witness is awake.)
* **Sleep sets** — a fully explored thread sleeps for its later
  siblings and wakes on the first conflicting step, so no Mazurkiewicz
  trace is explored twice.

Unlike classical stateless DPOR this search is *stateful*: a
configuration re-reached with a sleep set that includes a recorded one
is pruned (the same inclusion discipline as :mod:`.sleep`).  Pruning
against a previously explored subtree can hide races between that
subtree's steps and the *current* path, so every such hit triggers a
conservative fallback: all nodes on the current spine are fully
expanded (backtrack := enabled, sleep cleared).  Under the RA/SRA
event semantics states embed their whole history, so inequivalent
interleavings rarely collapse to one canonical key and the fallback
stays rare; under SC it fires often and DPOR degrades toward the full
search — sound, just not profitable there.

What the reduction preserves (and tests/fuzzing enforce): terminal
configurations and their outcome sets, violation verdicts of
``check_config`` hooks over control observables (visibility makes
pc-changing steps pairwise dependent), the truncation flags, and
``configs`` can only shrink.  Memory-reading per-state hooks need the
``"sleep"`` tier or no reduction (DESIGN.md §9).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from repro.engine.core import (
    ExplorationResult,
    MemoLifetime,
    Violation,
    _key_of,
    bound_cut,
)
from repro.engine.keys import KEY_CACHE
from repro.engine.por.deps import StepFootprint, conflicts, step_footprint

Clock = Dict[int, int]  # tid -> highest path index happens-before


class _Abort(Exception):
    """Internal: stop the whole search (violation stop or config cap)."""


@dataclass
class _Node:
    """One configuration on the DFS spine, with its DPOR bookkeeping."""

    config: object
    key: Hashable
    steps: Dict[int, object]  # tid -> PendingStep
    fps: Dict[int, StepFootprint]
    enabled: Tuple[int, ...]
    backtrack: Set[int]
    done: Set[int] = field(default_factory=set)
    #: tid -> footprint it went to sleep with (inherited + done siblings)
    sleep: Dict[int, StepFootprint] = field(default_factory=dict)
    #: tid -> vector clock of that thread's last executed step on the path
    thread_clock: Dict[int, Clock] = field(default_factory=dict)
    last_write: Dict[str, Tuple[int, int]] = field(default_factory=dict)  # var -> (idx, tid)
    last_reads: Dict[str, Dict[int, int]] = field(default_factory=dict)  # var -> tid -> idx
    last_visible: Optional[Tuple[int, int]] = None
    # iteration state of the thread currently being expanded
    active_tid: Optional[int] = None
    active_fp: Optional[StepFootprint] = None
    active_steps: List = field(default_factory=list)
    active_idx: int = 0
    active_ctx: Optional[tuple] = None  # (thread_clock', last_write', last_reads', last_visible')
    #: tid -> last conflicting path accesses of its pending step,
    #: computed once at node entry (the tables are node-fixed)
    cands: Dict[int, Set[Tuple[int, int]]] = field(default_factory=dict)
    #: access summary of the subtree explored below this node (folded
    #: up at pop time, recorded per key for the visited-prune fallback)
    sub_reads: Set[str] = field(default_factory=set)
    sub_writes: Set[str] = field(default_factory=set)
    sub_visible: bool = False
    #: summary invalid (a cycle was cut inside this subtree): prunes
    #: against this key must fall back to whole-spine expansion
    sub_universal: bool = False


def _candidates(
    last_write: Dict[str, Tuple[int, int]],
    last_reads: Dict[str, Dict[int, int]],
    last_visible: Optional[Tuple[int, int]],
    tid: int,
    fp: StepFootprint,
) -> Set[Tuple[int, int]]:
    """Last conflicting accesses on the path, as ``(index, tid)`` pairs."""
    out: Set[Tuple[int, int]] = set()
    for var in fp.reads | fp.writes:
        last = last_write.get(var)
        if last is not None and last[1] != tid:
            out.add(last)
    for var in fp.writes:
        for reader, idx in last_reads.get(var, {}).items():
            if reader != tid:
                out.add((idx, reader))
    if fp.visible and last_visible is not None and last_visible[1] != tid:
        out.add(last_visible)
    return out


def explore_dpor(
    program,
    init_values: Mapping,
    model,
    max_events: Optional[int] = None,
    max_configs: Optional[int] = None,
    check_config: Optional[Callable] = None,
    stop_on_violation: bool = False,
    keep_representatives: bool = False,
    canonicalize: bool = True,
    strategy: str = "bfs",
    equivalence: str = "shasha-snir",
) -> ExplorationResult:
    """Stateful source-set DPOR from ``(P, σ_0)``.

    The traversal is inherently depth-first (race detection needs the
    current path); ``strategy`` is recorded in the stats but does not
    choose a frontier.  ``configs`` counts *distinct* configurations
    visited, so it is directly comparable with — and never exceeds —
    the unreduced count.

    ``equivalence`` selects the key the visited store deduplicates by:
    ``"shasha-snir"`` (canonical, exact) or ``"reads-from"`` (the
    observation quotient of DESIGN.md §13 — configurations differing
    only in the ``mo`` of dead writes merge, so ``configs`` may shrink
    further; the per-model key hooks keep it verdict-preserving).
    """
    from repro.c11.compact import ORDER_TIMER
    from repro.interp.memory_model import MODEL_TIMER
    from repro.interp.interpreter import initial_configuration, thread_successor_list
    from repro.obs.trace import tracer

    initial = initial_configuration(program, init_values, model)
    result: ExplorationResult = ExplorationResult(initial)
    result._model = model
    result._canonicalize = canonicalize
    result._equivalence = equivalence
    stats = result.stats
    stats.strategy = strategy
    stats.reduction = "dpor"
    stats.equivalence = equivalence
    track_control = check_config is not None

    tr = tracer()
    run = (
        tr.run_start(
            program, getattr(model, "name", type(model).__name__),
            strategy, "dpor", max_events,
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
    first_seen: Set[Hashable] = set()
    stack: List[_Node] = []
    #: edges[i] = (tid, footprint, clock) of the step stack[i] -> stack[i+1]
    edges: List[Tuple[int, StepFootprint, Clock]] = []
    #: key -> [reads, writes, visible, universal] — merged access summary
    #: of every completed exploration from that configuration
    summaries: Dict[Hashable, list] = {}
    #: key -> number of expansions of it currently on the spine
    on_stack: Dict[Hashable, int] = {}
    lifetime = MemoLifetime(model, depth_first=True)

    def visit(config, key) -> None:
        """First-visit bookkeeping (hooks, terminal set, config cap)."""
        if key in first_seen:
            stats.revisits += 1
            return
        if max_configs is not None and len(first_seen) >= max_configs:
            result.truncated = True
            result.capped = True
            raise _Abort
        first_seen.add(key)
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
                    raise _Abort
        if config.is_terminated():
            result.terminal.append(config)

    def _insert_backtrack(idx: int, tid: int, fp: StepFootprint, own: Clock) -> None:
        """Schedule the reversal of a race at ``stack[idx]`` — the
        source-set insertion rule (Abdulla et al.).

        The witness of the reversed race is ``v`` — the path steps after
        ``idx`` that do not happen-after the raced step, followed by
        ``tid``'s pending step.  Any *initial* of ``v`` (a thread whose
        first step in ``v`` has no happens-before predecessor inside it)
        starts an equivalent suffix, so if one is already scheduled at
        the ancestor nothing needs inserting; otherwise one initial is
        added — an awake one when possible.  Inserting only ``tid``
        (the Flanagan–Godefroid rule) is incomplete under sleep sets:
        ``tid`` may be sleeping at the ancestor, covered there only by
        traces that cannot realise this reversal, while another initial
        is wide awake.
        """
        target = stack[idx]
        raced_tid = edges[idx][0]
        v = [
            j for j in range(idx + 1, len(edges))
            if edges[j][2].get(raced_tid, -1) < idx  # not happens-after the race
        ]
        initials: Set[int] = set()
        for pos, j in enumerate(v):
            if all(
                edges[j][2].get(edges[k][0], -1) < k for k in v[:pos]
            ):
                initials.add(edges[j][0])
        if all(
            edges[k][0] != tid
            and own.get(edges[k][0], -1) < k
            and not conflicts(fp, edges[k][1])
            for k in v
        ):
            initials.add(tid)
        if not initials:  # defensive: tid is initial whenever v is empty
            initials.add(tid)
        if target.backtrack & initials:
            return  # an equivalent reversal is already scheduled
        enabled_inits = sorted(q for q in initials if q in target.enabled)
        if not enabled_inits:  # bound-blocked at the ancestor: defensive
            target.backtrack.update(target.enabled)
            return
        awake = [q for q in enabled_inits if q not in target.sleep]
        target.backtrack.add(awake[0] if awake else enabled_inits[0])

    def make_node(config, key, sleep, thread_clock, last_write, last_reads,
                  last_visible) -> Optional[_Node]:
        """Book a configuration in; return its node, or ``None`` for leaves."""
        visit(config, key)
        expanded.setdefault(key, []).append(frozenset(sleep))
        if config.is_terminated():
            return None
        steps = config.program.pending_steps()
        cut = bound_cut(config, model, max_events)
        fps: Dict[int, StepFootprint] = {}
        enabled: List[int] = []
        cands: Dict[int, Set[Tuple[int, int]]] = {}
        for tid in sorted(steps):
            step = steps[tid]
            fps[tid] = step_footprint(
                model, config.state, tid, step, track_control,
            )
            if tid in cut:
                result.truncated = True
            else:
                enabled.append(tid)
        # Race analysis at node entry, for *every* pending step — picked
        # or not: a thread this branch never runs must still get its
        # reversals scheduled at the ancestors.  Bound-blocked steps are
        # analysed too; they are enabled at every ancestor (event counts
        # only grow along a path).
        for tid in sorted(steps):
            fp = fps[tid]
            cand = _candidates(last_write, last_reads, last_visible, tid, fp)
            cands[tid] = cand
            own = thread_clock.get(tid, {})
            for idx, other in cand:
                if idx > own.get(other, -1):  # concurrent conflict: a race
                    stats.races += 1
                    if tr is not None:
                        tr.race(run, tid, fp, config.program)
                    _insert_backtrack(idx, tid, fp, own)
        if not enabled:
            return None
        first_awake = next((t for t in enabled if t not in sleep), None)
        backtrack = set() if first_awake is None else {first_awake}
        return _Node(
            config=config, key=key, steps=steps, fps=fps,
            enabled=tuple(enabled), backtrack=backtrack, sleep=dict(sleep),
            thread_clock=thread_clock, last_write=last_write,
            last_reads=last_reads, last_visible=last_visible, cands=cands,
        )

    try:
        t0 = clock()
        init_key = _key_of(initial, model, canonicalize, equivalence)
        stats.time_keys += clock() - t0
        result.parents[init_key] = (None, None)

        root = make_node(initial, init_key, {}, {}, {}, {}, None)
        if root is not None:
            stack.append(root)
            lifetime.enter(initial.state)
            on_stack[init_key] = 1
            stats.peak_frontier = 1

        while stack:
            node = stack[-1]
            depth = len(stack) - 1

            if node.active_tid is None:
                pick = next(
                    (t for t in node.enabled
                     if t in node.backtrack and t not in node.done
                     and t not in node.sleep),
                    None,
                )
                if pick is None:
                    blocked = sum(
                        1 for t in node.enabled
                        if t in node.backtrack and t not in node.done
                    )
                    stats.sleep_hits += blocked
                    stats.pruned += sum(
                        1 for t in node.enabled if t not in node.done
                    )
                    stack.pop()
                    lifetime.leave(node.config.state)
                    on_stack[node.key] -= 1
                    entry = summaries.setdefault(
                        node.key, [set(), set(), False, False]
                    )
                    entry[0] |= node.sub_reads
                    entry[1] |= node.sub_writes
                    entry[2] = entry[2] or node.sub_visible
                    entry[3] = entry[3] or node.sub_universal
                    if edges:
                        _etid, efp, _eclock = edges.pop()
                        parent = stack[-1]
                        parent.sub_reads |= node.sub_reads | efp.reads
                        parent.sub_writes |= node.sub_writes | efp.writes
                        parent.sub_visible = (
                            parent.sub_visible or node.sub_visible or efp.visible
                        )
                        parent.sub_universal = (
                            parent.sub_universal or node.sub_universal
                        )
                    continue

                fp = node.fps[pick]
                # Races were already detected (and backtrack points
                # inserted) at node entry.  The step's clock: program
                # order joined with every conflicting access it extends
                # (racing or not — once executed here it is ordered
                # after all of them).
                step_clock: Clock = dict(node.thread_clock.get(pick, {}))
                step_clock[pick] = depth
                for idx, _other in node.cands[pick]:
                    for t, i in edges[idx][2].items():
                        if i > step_clock.get(t, -1):
                            step_clock[t] = i
                thread_clock = dict(node.thread_clock)
                thread_clock[pick] = step_clock
                last_write = node.last_write
                if fp.writes:
                    last_write = dict(last_write)
                    for var in fp.writes:
                        last_write[var] = (depth, pick)
                last_reads = node.last_reads
                if fp.reads:
                    last_reads = dict(last_reads)
                    for var in fp.reads:
                        last_reads[var] = {**last_reads.get(var, {}), pick: depth}
                last_visible = (depth, pick) if fp.visible else node.last_visible

                node.active_tid = pick
                node.active_fp = fp
                node.active_ctx = (step_clock, thread_clock, last_write,
                                   last_reads, last_visible)
                t0 = clock()
                node.active_steps = thread_successor_list(
                    node.config, model, pick, node.steps[pick]
                )
                stats.time_expand += clock() - t0
                stats.expanded += 1
                node.active_idx = 0
                continue

            if node.active_idx >= len(node.active_steps):
                # This thread's subtree is complete: it sleeps for the
                # siblings explored after it.
                node.sleep[node.active_tid] = node.active_fp
                node.done.add(node.active_tid)
                node.active_tid = None
                node.active_fp = None
                node.active_steps = []
                node.active_ctx = None
                continue

            step = node.active_steps[node.active_idx]
            node.active_idx += 1
            tid, fp = node.active_tid, node.active_fp
            step_clock, thread_clock, last_write, last_reads, last_visible = (
                node.active_ctx
            )
            result.transitions += 1
            t0 = clock()
            child_key = _key_of(step.target, model, canonicalize, equivalence)
            stats.time_keys += clock() - t0
            result.parents.setdefault(child_key, (node.key, tid))
            child_sleep = {
                q: fq for q, fq in node.sleep.items()
                if q != tid and not conflicts(fq, fp)
            }
            records = expanded.get(child_key)
            if records is not None and any(
                rec <= frozenset(child_sleep) for rec in records
            ):
                stats.revisits += 1
                if tr is not None and tr.tick():
                    tr.prune(run, "visited", step.target.program)
                # Pruning against an explored subtree can hide races
                # between *its* steps and the current path.  Compensate
                # with the subtree's recorded access summary: every
                # spine node whose outgoing edge conflicts with it is
                # fully expanded.  A terminal child has no subtree,
                # hence no hidden races — no compensation at all.
                node.sub_reads |= fp.reads
                node.sub_writes |= fp.writes
                node.sub_visible = node.sub_visible or fp.visible
                summary = summaries.get(child_key)
                if not step.target.is_terminated():
                    if on_stack.get(child_key) or summary is None or summary[3]:
                        # A cycle (or a summary poisoned by one): the
                        # pruned subtree is still being explored and its
                        # summary is incomplete — expand the whole spine
                        # and poison everything inside the cycle.
                        cut = max(
                            i for i, m in enumerate(stack) if m.key == child_key
                        ) if on_stack.get(child_key) else -1
                        for i, spine in enumerate(stack):
                            spine.backtrack.update(spine.enabled)
                            spine.sleep.clear()
                            if i > cut >= 0:
                                spine.sub_universal = True
                        node.sub_universal = True
                    else:
                        sub_r, sub_w, sub_vis, _universal = summary
                        node.sub_reads |= sub_r
                        node.sub_writes |= sub_w
                        node.sub_visible = node.sub_visible or sub_vis
                        _c_clock, _c_tclock, lw, lr, lv = node.active_ctx
                        hits = set()
                        for var in sub_w:
                            last = lw.get(var)
                            if last is not None:
                                hits.add(last[0])
                            for _reader, i in lr.get(var, {}).items():
                                hits.add(i)
                        for var in sub_r:
                            last = lw.get(var)
                            if last is not None:
                                hits.add(last[0])
                        if sub_vis and lv is not None:
                            hits.add(lv[0])
                        for i in hits:
                            spine = stack[i]
                            spine.backtrack.update(spine.enabled)
                            spine.sleep.clear()
                continue
            edges.append((tid, fp, step_clock))
            child = make_node(
                step.target, child_key, child_sleep, thread_clock,
                last_write, last_reads, last_visible,
            )
            if child is None:
                edges.pop()
                summaries.setdefault(child_key, [set(), set(), False, False])
                node.sub_reads |= fp.reads
                node.sub_writes |= fp.writes
                node.sub_visible = node.sub_visible or fp.visible
            else:
                stack.append(child)
                lifetime.enter(step.target.state, node.config.state)
                on_stack[child_key] = on_stack.get(child_key, 0) + 1
                if len(stack) > stats.peak_frontier:
                    stats.peak_frontier = len(stack)
    except _Abort:
        pass
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


__all__ = ["explore_dpor"]
