"""Parsimonious race-reversal DPOR (``"optimal"``, DESIGN.md §13).

A depth-first, thread-granular dynamic partial-order reduction: each
thread has exactly one pending step, so choosing a thread chooses its
step and only the memory model branches below it.  It follows
"Parsimonious Optimal Dynamic Partial Order Reduction" (Jonsson et al.,
arXiv 2405.11128): a race is scheduled as its full minimal reversing
sequence — a *view* — and the re-exploration *descends the view*,
executing exactly the witness steps in order until the reversal is
realised.  Intermediate nodes explore only the guided direction (plus
whatever later races insert at them), so the detour between reversal
and rejoining the visited state space is as short as the witness
itself — the effect wakeup trees buy in classical optimal DPOR, without
maintaining trees.

* **Race detection** — every executed step carries a vector clock (the
  join of its thread's history with the clocks of the conflicting
  accesses it extends).  On *entering* a configuration, the pending
  step of **every** thread — picked for exploration or not — is
  compared against the *last* conflicting accesses on the current path
  (last write per location read, last write plus per-thread last reads
  per location written, last visible step when control visibility is
  on); any such access not already happens-before the thread is a race.
* **Views, not wakeup trees** — a view is an ordinary tuple of thread
  ids (:class:`~repro.engine.por.deps.RaceWitness`), dead after one
  descent.  Wakeup trees exist to *persist* minimal sequences across
  sleep-set blocking inside a stateless search; here the stateful
  visited store (canonical keys × sleep-set antichains) already
  remembers every explored subtree, so a blocked view can simply be
  dropped — its trace is covered — and nothing needs grafting
  (DESIGN.md §13).
* **At most one scheduled view per head** — a view is only inserted
  when no initial of its witness is already among the node's done,
  active or scheduled heads (the source-set skip rule of Abdulla et
  al.), so ``pending`` holds at most one view per thread and cannot
  grow beyond the thread count.
* **Sleep sets** — a fully explored thread sleeps for its later
  siblings and wakes on the first conflicting step, so no Mazurkiewicz
  trace is explored twice.

Unlike classical stateless DPOR this search is *stateful*: a
configuration re-reached with a sleep set that includes a recorded one
is pruned: that arrival has no more threads awake than the recorded
expansion had, so it can reach nothing that expansion did not.  Pruning
against a previously explored subtree can hide races between that
subtree's steps and the *current* path, so every such hit is
compensated with the subtree's recorded access summary: each spine node
whose step may race with the subtree is fully expanded (every enabled
thread scheduled, sleep set cleared).  When the pruned subtree is still
on the spine (a cycle) its summary is incomplete, and the whole spine
is expanded instead.

What the reduction preserves (and tests/fuzzing enforce): terminal
configurations and their outcome sets, violation verdicts of
``check_config`` hooks over control observables (visibility makes
pc-changing steps pairwise dependent), the truncation flags; only
``configs`` may shrink.  Memory-reading per-state hooks need the
unreduced search (DESIGN.md §9).
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
from repro.engine.stats import ProcessCounters
from repro.engine.por.deps import StepFootprint, conflicts, step_footprint

Clock = Dict[int, int]  # tid -> highest path index happens-before

View = Tuple[int, ...]


class _Abort(Exception):
    """Internal: stop the whole search (violation stop or config cap)."""


@dataclass
class _Node:
    """One configuration on the DFS spine, with its view bookkeeping."""

    config: object
    key: Hashable
    steps: Dict[int, object]  # tid -> PendingStep
    fps: Dict[int, StepFootprint]
    enabled: Tuple[int, ...]
    #: scheduled reversing sequences, at most one per head thread;
    #: sleep-blocked views are retained (a compensation pass may clear
    #: the sleep set while the node is still on the spine)
    pending: List[View]
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
    active_ctx: Optional[tuple] = None  # (step_clock, thread_clock', lw', lr', lv')
    #: the rest of the view being descended: children seed their
    #: pending with it, so the reversal replays without wandering
    active_guide: View = ()
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

    def scheduled_heads(self) -> Set[int]:
        """Threads whose exploration from here is done, running or booked."""
        heads = set(self.done)
        if self.active_tid is not None:
            heads.add(self.active_tid)
        heads.update(w[0] for w in self.pending)
        return heads

    def expand_fully(self) -> None:
        """Conservative fallback: schedule every enabled thread and wake
        the sleepers (``backtrack := enabled; sleep := ∅``)."""
        self.sleep.clear()
        heads = self.scheduled_heads()
        for t in self.enabled:
            if t not in heads:
                self.pending.append((t,))


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


def explore_optimal(
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
) -> ExplorationResult:
    """Parsimonious view-guided DPOR from ``(P, σ_0)``.

    The traversal is inherently depth-first; ``strategy`` is recorded
    in the stats but does not choose a frontier.  ``configs`` counts
    distinct configuration keys.
    """
    from repro.interp.interpreter import initial_configuration, thread_successor_list
    from repro.obs.trace import tracer

    initial = initial_configuration(program, init_values, model)
    result: ExplorationResult = ExplorationResult(initial)
    result._model = model
    result._canonicalize = canonicalize
    stats = result.stats
    stats.strategy = strategy
    stats.reduction = "optimal"
    track_control = check_config is not None

    tr = tracer()
    run = (
        tr.run_start(
            program, getattr(model, "name", type(model).__name__),
            strategy, "optimal", max_events,
        )
        if tr is not None
        else None
    )

    clock = time.perf_counter
    t_run = clock()
    counters = ProcessCounters()

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

    def _insert_view(idx: int, tid: int, fp: StepFootprint, own: Clock) -> None:
        """Schedule the *minimal reversing sequence* of a race at
        ``stack[idx]`` — the parsimonious insertion rule.

        The witness ``v`` is the path suffix that does not happen-after
        the raced step, and the view is its thread sequence followed by
        ``tid`` — replaying it from the ancestor executes the race the
        other way around with no detour.  ``v`` is program-order closed
        per thread (a step happens-after everything its own thread did),
        so the view's head is the pending step of ``v``'s first thread
        *at the ancestor* and the whole sequence replays thread-granularly.

        The source-set skip rule carries over verbatim: when an initial
        of the witness is already done, active or scheduled at the
        ancestor, that subtree realises an equivalent reversal (or
        re-detects the residual race deeper) and nothing is inserted —
        this is what bounds ``pending`` to one view per head.  When the
        view's head is asleep, guidance is abandoned for a plain awake
        initial of the witness.
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
        if target.scheduled_heads() & initials:
            return  # an equivalent reversal is already booked
        enabled_inits = sorted(q for q in initials if q in target.enabled)
        if not enabled_inits:  # bound-blocked at the ancestor: defensive
            target.expand_fully()
            return
        view: View = tuple(edges[j][0] for j in v) + (tid,)
        head = view[0]
        if head in target.enabled and head not in target.sleep:
            if tr is not None:
                tr.view(run, view, target.config.program)
            target.pending.append(view)
            return
        awake = [q for q in enabled_inits if q not in target.sleep]
        target.pending.append((awake[0],) if awake else (enabled_inits[0],))

    def make_node(config, key, sleep, thread_clock, last_write, last_reads,
                  last_visible, guide: View) -> Optional[_Node]:
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
                    _insert_view(idx, tid, fp, own)
        if not enabled:
            return None
        # Seed the node's schedule.  Mid-descent the guide continues the
        # reversing view; a guide blocked by the bound falls back to
        # full expansion (every enabled thread), a guide blocked by
        # sleep is covered and degrades to the plain one-awake-thread
        # seed.  Fresh unguided nodes seed one awake thread.
        pending: List[View] = []
        if guide:
            head = guide[0]
            if head in enabled and head not in sleep:
                pending.append(guide)
            elif head in steps and head not in enabled:
                pending.extend((t,) for t in enabled)
        if not pending:
            first_awake = next((t for t in enabled if t not in sleep), None)
            if first_awake is not None:
                pending.append((first_awake,))
        return _Node(
            config=config, key=key, steps=steps, fps=fps,
            enabled=tuple(enabled), pending=pending, sleep=dict(sleep),
            thread_clock=thread_clock, last_write=last_write,
            last_reads=last_reads, last_visible=last_visible, cands=cands,
        )

    try:
        t0 = clock()
        init_key = _key_of(initial, model, canonicalize)
        stats.time_keys += clock() - t0
        result.parents[init_key] = (None, None)

        root = make_node(initial, init_key, {}, {}, {}, {}, None, ())
        if root is not None:
            stack.append(root)
            lifetime.enter(initial.state)
            on_stack[init_key] = 1
            stats.peak_frontier = 1

        while stack:
            node = stack[-1]
            depth = len(stack) - 1

            if node.active_tid is None:
                # Pick the next runnable view: done-headed views are
                # spent (their head's subtree covers the reversal),
                # sleep-blocked views are retained for a possible wake.
                pick_view: Optional[View] = None
                i = 0
                while i < len(node.pending):
                    head = node.pending[i][0]
                    if head in node.done or head not in node.steps:
                        node.pending.pop(i)
                        continue
                    if head not in node.enabled or head in node.sleep:
                        i += 1  # blocked; keep for a compensation wake
                        continue
                    pick_view = node.pending.pop(i)
                    break
                if pick_view is None:
                    stats.sleep_hits += len(node.pending)
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

                pick = pick_view[0]
                fp = node.fps[pick]
                # Races were already detected (and views inserted) at
                # node entry.  The step's clock: program order joined
                # with every conflicting access it extends.
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
                node.active_guide = pick_view[1:]
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
                node.active_guide = ()
                continue

            step = node.active_steps[node.active_idx]
            node.active_idx += 1
            tid, fp = node.active_tid, node.active_fp
            step_clock, thread_clock, last_write, last_reads, last_visible = (
                node.active_ctx
            )
            result.transitions += 1
            t0 = clock()
            child_key = _key_of(step.target, model, canonicalize)
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
                # with the subtree's recorded access summary.  A
                # terminal child has no subtree, hence no hidden races.
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
                            spine.expand_fully()
                            if i > cut >= 0:
                                spine.sub_universal = True
                        node.sub_universal = True
                    else:
                        sub_r, sub_w, sub_vis, _universal = summary
                        node.sub_reads |= sub_r
                        node.sub_writes |= sub_w
                        node.sub_visible = node.sub_visible or sub_vis
                        _c_clock, c_tclock, lw, lr, lv = node.active_ctx
                        # Candidate path accesses that touch a summary
                        # variable, as (path index, acting tid) pairs.
                        pairs = set()
                        for var in sub_w:
                            last = lw.get(var)
                            if last is not None:
                                pairs.add(last)
                            for reader, i in lr.get(var, {}).items():
                                pairs.add((i, reader))
                        for var in sub_r:
                            last = lw.get(var)
                            if last is not None:
                                pairs.add(last)
                        if sub_vis and lv is not None:
                            pairs.add(lv)
                        # Parsimonious filter: every step of the pruned
                        # subtree is performed by a thread live at the
                        # pruned child and happens-after that thread's
                        # vector clock there, so a path access whose
                        # index is inside *every* live thread's clock is
                        # happens-before the whole subtree and cannot
                        # race with it — its node needs no compensation.
                        clocks = [
                            c_tclock.get(t, {})
                            for t in step.target.program.pending_steps()
                        ]
                        for idx, atid in pairs:
                            if any(c.get(atid, -1) < idx for c in clocks):
                                stack[idx].expand_fully()
                continue
            edges.append((tid, fp, step_clock))
            child = make_node(
                step.target, child_key, child_sleep, thread_clock,
                last_write, last_reads, last_visible, node.active_guide,
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
        counters.fold_into(stats)
        if tr is not None:
            tr.run_end(
                run, stats, result.configs, result.transitions,
                result.truncated,
            )

    return result


__all__ = ["explore_optimal"]
