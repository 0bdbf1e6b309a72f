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
  ids: the witness's threads in trace order, then the racing thread;
  it is dead after one descent.  Wakeup trees exist to *persist*
  minimal sequences across sleep-set blocking inside a stateless
  search; here the stateful visited store (canonical keys × sleep-set
  antichains) already remembers every explored subtree, so a blocked
  view can simply be dropped — its trace is covered — and nothing
  needs grafting (DESIGN.md §13).
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

Bookkeeping is kept per key and per machine state, as int bit masks:
each search numbers the locations and thread ids it meets
(:class:`~repro.engine.por.deps.FootprintBits`).  Everything the search
remembers about a configuration key lives in one :class:`_Record`
(sleep antichain as thread masks, access summary as two location
masks, spine count), held by the key's nodes, so a transition does one
lookup and push and pop none.  Everything a node needs of its pending
steps (sorted threads, footprints and their masks, the locations each
step's race check reads) is a function of the interned machine state
alone — footprints depend on the step only
(``MemoryModel.step_footprint``) — and is built once per search per
machine state as a :class:`_Template`.  Masks are decoded back to
locations only on the compensation path, whose last-access tables are
keyed by location.

What the reduction preserves (and tests/fuzzing enforce): terminal
configurations and their outcome sets, violation verdicts of
``check_config`` hooks over control observables (visibility makes
pc-changing steps pairwise dependent), the truncation flags; only
``configs`` may shrink.  Memory-reading per-state hooks need the
unreduced search (DESIGN.md §9).
"""

from __future__ import annotations

import time
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
from repro.engine.plan import SearchPlan
from repro.engine.stats import ProcessCounters
from repro.engine.por.deps import (
    CONTROL_BIT,
    FootprintBits,
    StepFootprint,
    StepMasks,
    masks_conflict,
    step_footprint,
)

Clock = Dict[int, int]  # tid -> highest path index happens-before

View = Tuple[int, ...]

_NO_CLOCK: Clock = {}
#: a touched-location summary standing for every location: a cycle was
#: cut inside the subtree, so its summary is incomplete and a prune
#: against it expands the whole spine.  All bits set, so ``|=`` keeps it.
_UNIVERSAL = -1
#: candidate set of a step that touches nothing and is invisible
_NO_CANDS: FrozenSet[Tuple[int, int]] = frozenset()


class _Abort(Exception):
    """Internal: stop the whole search (violation stop or config cap)."""


class _Record:
    """Everything the search remembers about one configuration key."""

    __slots__ = ("sleeps", "touched", "written", "live")

    def __init__(self) -> None:
        #: antichain of the sleep sets this key was expanded with, as
        #: thread masks
        self.sleeps: Tuple[int, ...] = ()
        #: merged access summary of every completed exploration from
        #: this key, as location masks (``touched`` may be
        #: :data:`_UNIVERSAL`); consulted only while no expansion of the
        #: key is on the spine, so every exploration so far has completed
        self.touched = 0
        self.written = 0
        #: number of expansions of this key currently on the spine
        self.live = 0


class _Template:
    """A node's view of its machine state: a function of the interned
    program alone (footprints depend on the step only), so it is built
    once per search per program state."""

    __slots__ = ("steps", "tids", "fps", "masks", "access")

    def __init__(self, config, model, track_control: bool,
                 bits: FootprintBits) -> None:
        steps = config.program.pending_steps()
        self.steps = steps
        self.tids: Tuple[int, ...] = tuple(sorted(steps))
        self.fps: Dict[int, StepFootprint] = {}
        self.masks: Dict[int, StepMasks] = {}
        #: per thread in tid order: ``(tid, footprint, masks, locations
        #: touched, locations written, visible)`` — what its race check reads
        access = []
        for tid in self.tids:
            fp = step_footprint(model, config.state, tid, steps[tid], track_control)
            masks = bits.masks(fp)
            self.fps[tid] = fp
            self.masks[tid] = masks
            access.append((
                tid, fp, masks, tuple(fp.reads | fp.writes), tuple(fp.writes),
                fp.visible,
            ))
        self.access = tuple(access)


class _Node:
    """One configuration on the DFS spine, with its view bookkeeping."""

    __slots__ = (
        "config", "key", "rec", "steps", "fps", "masks", "enabled",
        "pending", "done", "sleep", "full", "thread_clock", "last_write",
        "last_reads", "last_visible", "active_tid", "active_masks",
        "active_steps", "active_idx", "active_ctx", "active_guide",
        "cands", "sub_touched", "sub_written",
    )

    def __init__(self, config, key, rec, tmpl, enabled, pending, sleep,
                 thread_clock, last_write, last_reads, last_visible,
                 cands) -> None:
        self.config = config
        self.key = key
        self.rec: _Record = rec
        self.steps: Dict[int, object] = tmpl.steps  # tid -> PendingStep
        self.fps: Dict[int, StepFootprint] = tmpl.fps
        self.masks: Dict[int, StepMasks] = tmpl.masks
        self.enabled: Tuple[int, ...] = enabled
        #: scheduled reversing sequences, at most one per head thread;
        #: sleep-blocked views are retained (a compensation pass may clear
        #: the sleep set while the node is still on the spine)
        self.pending: List[View] = pending
        self.done: Set[int] = set()
        #: tid -> masks it went to sleep with (inherited + done siblings)
        self.sleep: Dict[int, StepMasks] = sleep
        #: every enabled thread is a head (set by :meth:`expand_fully`);
        #: it stays so, since a head leaves ``pending`` only to run
        self.full = False
        #: tid -> vector clock of that thread's last executed step on the path
        self.thread_clock: Dict[int, Clock] = thread_clock
        self.last_write: Dict[str, Tuple[int, int]] = last_write  # var -> (idx, tid)
        self.last_reads: Dict[str, Dict[int, int]] = last_reads  # var -> tid -> idx
        self.last_visible: Optional[Tuple[int, int]] = last_visible
        # iteration state of the thread currently being expanded
        self.active_tid: Optional[int] = None
        self.active_masks: Optional[StepMasks] = None
        self.active_steps: List = []
        self.active_idx = 0
        self.active_ctx: Optional[tuple] = None  # (step_clock, thread_clock', lw', lr', lv')
        #: the rest of the view being descended: children seed their
        #: pending with it, so the reversal replays without wandering
        self.active_guide: View = ()
        #: tid -> last conflicting path accesses of its pending step,
        #: computed once at node entry (the tables are node-fixed)
        self.cands: Dict[int, FrozenSet[Tuple[int, int]]] = cands
        #: access summary of the subtree explored below this node, as
        #: location masks (folded up at pop time, recorded per key for
        #: the visited-prune fallback); ``sub_touched`` is
        #: :data:`_UNIVERSAL` once a cycle was cut inside the subtree
        self.sub_touched = 0
        self.sub_written = 0

    def is_head(self, tid: int) -> bool:
        """Whether ``tid``'s exploration from here is done, running or booked."""
        if tid in self.done or tid == self.active_tid:
            return True
        for view in self.pending:
            if view[0] == tid:
                return True
        return False

    def expand_fully(self) -> None:
        """Conservative fallback: schedule every enabled thread and wake
        the sleepers (``backtrack := enabled; sleep := ∅``)."""
        if self.sleep:
            self.sleep.clear()
        if self.full:
            return
        for t in self.enabled:
            if not self.is_head(t):
                self.pending.append((t,))
        self.full = True


def _covered(sleeps: Tuple[int, ...], asleep: int) -> bool:
    """Whether an arrival sleeping on the thread mask ``asleep`` is
    covered by one of a key's recorded expansions (it had no more
    threads asleep)."""
    for recorded in sleeps:
        if not recorded & ~asleep:
            return True
    return False


def explore_optimal(
    program,
    init_values: Mapping,
    model,
    plan: SearchPlan,
    check_config: Optional[Callable] = None,
) -> ExplorationResult:
    """Parsimonious view-guided DPOR from ``(P, σ_0)`` under ``plan``.

    The traversal is inherently depth-first; the plan's ``strategy`` is
    recorded in the stats but does not choose a frontier.  ``configs``
    counts distinct configuration keys.
    """
    from repro.interp.interpreter import initial_configuration, thread_successor_list
    from repro.obs.trace import tracer

    max_events = plan.max_events
    max_configs = plan.max_configs
    stop_on_violation = plan.stop_on_violation
    canonicalize = plan.canonicalize
    strategy = plan.strategy

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

    #: key -> its record; a key is visited iff it has one
    records: Dict[Hashable, _Record] = {}
    #: program -> its node template
    templates: Dict[object, _Template] = {}
    stack: List[_Node] = []
    #: edges[i] = (tid, masks, clock) of the step stack[i] -> stack[i+1]
    edges: List[Tuple[int, StepMasks, Clock]] = []
    parents = result.parents
    lifetime = MemoLifetime(model, depth_first=True)
    bits = FootprintBits()
    thread_bit = bits.thread
    locations = bits.locations

    def _insert_view(idx: int, tid: int, masks: StepMasks, own: Clock) -> None:
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
        # One pass builds the witness ``v`` and its initials.  A witness
        # step is an initial when no earlier witness step happens-before
        # it.  Its own thread's earlier steps always do, and for another
        # thread it suffices to test that thread's first witness step
        # (clocks are maxima); ``v[0]`` is always an initial.
        v: List[int] = []
        initials: List[int] = []
        first: Dict[int, int] = {}  # tid -> its first witness index
        for j in range(idx + 1, len(edges)):
            tj, _fj, cj = edges[j]
            if cj.get(raced_tid, -1) >= idx:
                continue  # happens-after the race
            v.append(j)
            if tj in first:
                continue
            if all(cj.get(t, -1) < k for t, k in first.items()):
                if target.is_head(tj):
                    return  # an equivalent reversal is already booked
                initials.append(tj)
            first[tj] = j
        if all(
            edges[k][0] != tid
            and own.get(edges[k][0], -1) < k
            and not masks_conflict(masks, edges[k][1])
            for k in v
        ):  # always so when ``v`` is empty
            if target.is_head(tid):
                return
            initials.append(tid)
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

    def make_node(config, key, rec, sleep, asleep, thread_clock, last_write,
                  last_reads, last_visible, guide: View) -> Optional[_Node]:
        """Book a configuration in (``rec`` is its key's record, ``None``
        on a first visit); return its node, or ``None`` for leaves."""
        if rec is not None:
            stats.revisits += 1
        else:
            if max_configs is not None and len(records) >= max_configs:
                result.truncated = True
                result.capped = True
                raise _Abort
            rec = records[key] = _Record()
            stats.configs += 1
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
        rec.sleeps += (asleep,)
        if config.is_terminated():
            return None
        tmpl = templates.get(config.program)
        if tmpl is None:
            tmpl = templates[config.program] = _Template(
                config, model, track_control, bits
            )
        enabled = tmpl.tids
        cut = bound_cut(config, model, max_events)
        if cut:
            result.truncated = True
            enabled = tuple(t for t in enabled if t not in cut)
        # Race analysis at node entry, for *every* pending step — picked
        # or not: a thread this branch never runs must still get its
        # reversals scheduled at the ancestors.  Bound-blocked steps are
        # analysed too; they are enabled at every ancestor (event counts
        # only grow along a path).  A step's candidates are the last
        # conflicting accesses on the path, as ``(index, tid)`` pairs.
        cands: Dict[int, FrozenSet[Tuple[int, int]]] = {}
        for tid, fp, masks, touched, written, visible in tmpl.access:
            if not (touched or visible):
                cands[tid] = _NO_CANDS
                continue
            cand = set()
            for var in touched:
                last = last_write.get(var)
                if last is not None and last[1] != tid:
                    cand.add(last)
            for var in written:
                readers = last_reads.get(var)
                if readers:
                    for reader, idx in readers.items():
                        if reader != tid:
                            cand.add((idx, reader))
            if visible and last_visible is not None and last_visible[1] != tid:
                cand.add(last_visible)
            cands[tid] = cand
            if cand:
                own = thread_clock.get(tid, _NO_CLOCK)
                for idx, other in cand:
                    if idx > own.get(other, -1):  # concurrent conflict: a race
                        stats.races += 1
                        if tr is not None:
                            tr.race(run, tid, fp, config.program)
                        _insert_view(idx, tid, masks, own)
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
            elif head in tmpl.steps and head not in enabled:
                pending.extend((t,) for t in enabled)
        if not pending:
            for t in enabled:
                if t not in sleep:
                    pending.append((t,))
                    break
        return _Node(
            config, key, rec, tmpl, enabled, pending, sleep, thread_clock,
            last_write, last_reads, last_visible, cands,
        )

    try:
        t0 = clock()
        init_key = _key_of(initial, model, canonicalize)
        stats.time_keys += clock() - t0
        parents[init_key] = (None, None)

        root = make_node(initial, init_key, None, {}, 0, {}, {}, {}, None, ())
        if root is not None:
            stack.append(root)
            lifetime.enter(initial.state)
            root.rec.live = 1
            stats.peak_frontier = 1

        while stack:
            node = stack[-1]
            depth = len(stack) - 1

            if node.active_tid is None:
                # Pick the next runnable view: done-headed views are
                # spent (their head's subtree covers the reversal),
                # sleep-blocked views are retained for a possible wake.
                pending = node.pending
                pick_view: Optional[View] = None
                i = 0
                while i < len(pending):
                    head = pending[i][0]
                    if head in node.done or head not in node.steps:
                        pending.pop(i)
                        continue
                    if head not in node.enabled or head in node.sleep:
                        i += 1  # blocked; keep for a compensation wake
                        continue
                    pick_view = pending.pop(i)
                    break
                if pick_view is None:
                    stats.sleep_hits += len(pending)
                    # every done thread was picked among the enabled ones
                    stats.pruned += len(node.enabled) - len(node.done)
                    stack.pop()
                    lifetime.leave(node.config.state)
                    # the node is gone: its summary joins the key's
                    rec = node.rec
                    rec.live -= 1
                    rec.touched |= node.sub_touched
                    rec.written |= node.sub_written
                    if edges:
                        edge_touched, edge_written = edges.pop()[1]
                        parent = stack[-1]
                        parent.sub_touched |= node.sub_touched | edge_touched
                        parent.sub_written |= node.sub_written | edge_written
                    continue

                pick = pick_view[0]
                fp = node.fps[pick]
                # Races were already detected (and views inserted) at
                # node entry.  The step's clock: program order joined
                # with every conflicting access it extends.
                step_clock: Clock = dict(node.thread_clock.get(pick, _NO_CLOCK))
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
                node.active_masks = node.masks[pick]
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

            # Run the active thread's transitions until one pushes a
            # child; the loop resumes here when that child pops.
            tid, masks = node.active_tid, node.active_masks
            successors = node.active_steps
            while node.active_idx < len(successors):
                step = successors[node.active_idx]
                node.active_idx += 1
                stats.transitions += 1
                target = step.target
                t0 = clock()
                child_key = _key_of(target, model, canonicalize)
                stats.time_keys += clock() - t0
                child_sleep = {}
                asleep = 0
                for q, sleeper in node.sleep.items():
                    if q != tid and not masks_conflict(sleeper, masks):
                        child_sleep[q] = sleeper
                        asleep |= thread_bit(q)
                rec = records.get(child_key)
                if rec is None:  # a key has a record iff it has a parent
                    parents[child_key] = (node.key, tid)
                elif _covered(rec.sleeps, asleep):
                    stats.revisits += 1
                    if tr is not None and tr.tick():
                        tr.prune(run, "visited", target.program)
                    # Pruning against an explored subtree can hide races
                    # between *its* steps and the current path.  Compensate
                    # with the subtree's recorded access summary.  A
                    # terminal child has no subtree, hence no hidden races.
                    node.sub_touched |= masks[0]
                    node.sub_written |= masks[1]
                    if not target.is_terminated():
                        if rec.live or rec.touched == _UNIVERSAL:
                            # A cycle (or a summary poisoned by one): the
                            # pruned subtree is still being explored and its
                            # summary is incomplete — expand the whole spine
                            # and poison everything inside the cycle.
                            cut = max(
                                i for i, m in enumerate(stack) if m.rec is rec
                            ) if rec.live else -1
                            for i, spine in enumerate(stack):
                                spine.expand_fully()
                                if i > cut >= 0:
                                    spine.sub_touched = _UNIVERSAL
                            node.sub_touched = _UNIVERSAL
                        else:
                            sub_touched, sub_written = rec.touched, rec.written
                            node.sub_touched |= sub_touched
                            node.sub_written |= sub_written
                            _c_clock, c_tclock, lw, lr, lv = node.active_ctx
                            # Candidate path accesses that touch a summary
                            # location, as (path index, acting tid) pairs:
                            # its last write, and its last reads if the
                            # subtree writes it.
                            pairs = set()
                            for var in locations(sub_touched):
                                last = lw.get(var)
                                if last is not None:
                                    pairs.add(last)
                            for var in locations(sub_written):
                                readers = lr.get(var)
                                if readers:
                                    for reader, i in readers.items():
                                        pairs.add((i, reader))
                            if sub_written & CONTROL_BIT and lv is not None:
                                pairs.add(lv)
                            if pairs:
                                # Parsimonious filter: every step of the
                                # pruned subtree is performed by a thread
                                # live at the pruned child and happens-after
                                # that thread's vector clock there, so a path
                                # access whose index is inside *every* live
                                # thread's clock is happens-before the whole
                                # subtree and cannot race with it — its node
                                # needs no compensation.
                                clocks = [
                                    c_tclock.get(t, _NO_CLOCK)
                                    for t in target.program.pending_steps()
                                ]
                                for idx, atid in pairs:
                                    for c in clocks:
                                        if c.get(atid, -1) < idx:
                                            stack[idx].expand_fully()
                                            break
                    continue
                edges.append((tid, masks, node.active_ctx[0]))
                _s, thread_clock, last_write, last_reads, last_visible = (
                    node.active_ctx
                )
                child = make_node(
                    target, child_key, rec, child_sleep, asleep, thread_clock,
                    last_write, last_reads, last_visible, node.active_guide,
                )
                if child is None:
                    edges.pop()
                    node.sub_touched |= masks[0]
                    node.sub_written |= masks[1]
                else:
                    stack.append(child)
                    lifetime.enter(target.state, node.config.state)
                    child.rec.live += 1
                    if len(stack) > stats.peak_frontier:
                        stats.peak_frontier = len(stack)
                    break
            else:
                # This thread's subtree is complete: it sleeps for the
                # siblings explored after it.
                node.sleep[tid] = masks
                node.done.add(tid)
                node.active_tid = None
                node.active_masks = None
                node.active_steps = []
                node.active_ctx = None
                node.active_guide = ()
    except _Abort:
        pass
    finally:
        stats.time_total += clock() - t_run
        counters.fold_into(stats)
        if tr is not None:
            tr.run_end(run, stats, result.truncated)

    return result


__all__ = ["explore_optimal"]
