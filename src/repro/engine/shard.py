"""Sharded single-run exploration (DESIGN.md §15).

One exploration, hash-partitioned across ``N`` shards: shard ``i`` owns
exactly the configurations whose canonical-key digest satisfies
``shard_of(digest, N) == i`` (:func:`~repro.engine.keys.shard_of` over
the stable blake2b digest — never ``hash()``, which is salted per
process).  Each shard keeps the parent-map slice (which is its
visited-set slice, DESIGN.md §5) and frontier slice for its own keys;
successors discovered by one shard but owned by another are routed to
the owner in batches.

The search is bulk-synchronous breadth-first: one *superstep* per BFS
level.  In phase A every shard expands its level-``r`` frontier in
**path-signature order** — each frontier item carries the tuple of
emission ordinals along its discovery path, whose lexicographic order
is exactly the single-process FIFO order — and emits one message per
surviving transition.  At the level barrier, phase B has every shard
sort its inbox by signature and replay the single-process push sequence
for its own keys: dedup (first arrival in signature order wins the
parent slot) and the config cap.  Phase A never reads another shard's
state and phase B replays a per-key operation sequence identical to
the single-process interleaving, which is the induction
behind the parity contract: exhaustive sharded runs report the same
configuration and transition counts, byte-identical terminal/outcome
sets, the same per-key parent choices and the same violation verdicts
as the single-process search, for every ``N``.

Termination is decided by counting, one round per superstep: each shard
reports how many messages it sent and received and how many items its
next level holds; the coordinator checks global ``sent == recv`` (no
message in flight — Mattern-style counting; with one exchange per
barrier a termination token degenerates to exactly this sum) and stops
when every next frontier is empty.

Two execution modes share the same :class:`_ShardCore` superstep code:

* **process mode** — one worker process per shard (fork start method:
  programs, models and check hooks reach workers through fork'd memory;
  only queue messages are pickled).  A message names the discovering
  thread and carries the child configuration, never the transition:
  parents are ``(parent key, tid)`` and traces are replayed (DESIGN.md
  §5).  Messages and final results pack every configuration as
  ``(pcs, state)`` and every ``ConfigKey`` as ``(pcs, state key)``
  against the run's one lowered table: descriptors, not products, so
  no message ships the source program, and every unpacked program is
  the table's interned machine state (``LoweredTable.program``).
* **in-process mode** — the same supersteps run sequentially over all
  shards in one process.  This is the reference the parity matrix
  compares process mode against, and the only mode available inside
  daemonic pool workers (the fuzz ``shard-parity`` oracle), which may
  not fork children.

Every routed message carries the sender-computed key digest; the
receiving shard re-derives ownership and raises on a mis-routed
configuration — the canary the parity test matrix deliberately trips by
patching :func:`_dest_for`.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.engine.core import (
    ExplorationResult,
    Violation,
    _key_of,
    bound_cut,
    gc_paused,
)
from repro.engine.frontier import LevelFrontier
from repro.engine.keys import key_digest, shard_of, stable_encode
from repro.engine.plan import SearchPlan
from repro.engine.stats import EngineStats, ProcessCounters

#: supervision policy: how many times a round of worker deaths is
#: retried (respawning the fleet, resuming from the last checkpoint)
#: before the run degrades to the in-process supersteps
MAX_ATTEMPTS = 3
_BACKOFF_BASE = 0.25  # seconds; doubled per retry, capped below
_BACKOFF_CAP = 2.0


def program_token(program):
    """A process-stable, equality-faithful token for a program.

    Lowered programs are dense integer pc tuples over a table that is
    constant across one exploration, so ``pcs`` alone distinguishes
    them.
    """
    return ("L", program.pcs)


class WorkerDied(RuntimeError):
    """A shard worker exited without reporting (kill, OOM, crash-loop).

    Raised by the coordinator's collect loop when a queue timeout finds
    dead workers; the supervisor in :func:`_run_sharded_supervised`
    catches it and retries the attempt instead of deadlocking the round.
    """

    def __init__(self, pids: List[int]) -> None:
        super().__init__(f"shard worker(s) {pids} died without reporting")
        self.pids = pids


def key_digest_for(key) -> bytes:
    """Stable digest of a full ``ConfigKey = (program, state_key)``.

    The state key's hash-consed nodes encode by their content
    (:func:`~repro.engine.keys.stable_encode`), so every process routes
    an equal key to the same shard.
    """
    program, state_key = key
    return hashlib.blake2b(
        stable_encode(program_token(program)) + key_digest(state_key),
        digest_size=16,
    ).digest()


def _dest_for(digest: bytes, shards: int) -> int:
    """The shard a successor is routed to.

    A separate seam from :func:`~repro.engine.keys.shard_of` (which the
    *receiver* uses to verify ownership) so the broken-partition canary
    test can mis-route sends without also disarming the check.
    """
    return shard_of(digest, shards)


@dataclass
class _ShardSpec:
    """Everything one shard worker needs (shared via fork, not pickle)."""

    program: Any
    init_values: Mapping
    model: Any
    plan: SearchPlan
    check_config: Optional[Callable] = None
    check_step: Optional[Callable] = None
    #: trace run id of the enclosing run (None = tracing off)
    run_id: Optional[str] = None
    #: the fingerprint checkpoint files are stamped with (DESIGN.md §16)
    fingerprint: Optional[dict] = None
    #: fault-injection spec for the *workers* — passed explicitly (never
    #: read from the environment in a worker) so the supervisor can hand
    #: respawned workers a disarmed plan and recovery cannot loop
    fault_spec: Optional[str] = None

    @property
    def shards(self) -> int:
        return self.plan.shards

    @property
    def shard_cap(self) -> Optional[int]:
        """Per-shard slice of the plan's config cap (None = uncapped)."""
        cap = self.plan.max_configs
        return None if cap is None else max(1, -(-cap // self.plan.shards))


class _ShardCore:
    """One shard's state plus the phase A / phase B superstep logic.

    Frontier items and routed messages are
    ``(sig, tid, config, key, parent_key, digest)`` — the path
    signature, the thread whose step discovered the configuration
    (``None`` only for the seeded initial configuration), the
    configuration and its canonical key, the *sender's* key for the
    parent (receivers never re-canonicalize) and the key digest the
    sender routed by.
    """

    def __init__(self, spec: _ShardSpec, index: int) -> None:
        self.spec = spec
        self.index = index
        self.stats = EngineStats(strategy="bfs")
        self.frontier: LevelFrontier = LevelFrontier()
        self.parents: Dict[Any, Tuple[Any, Any]] = {}
        #: (stamp, Configuration) — stamped for deterministic merge
        self.terminal: List[Tuple[tuple, Any]] = []
        #: (stamp, Violation)
        self.violations: List[Tuple[tuple, Violation]] = []
        self.truncated = False
        self.capped = False
        self.level = 0

    def seed(self, initial, init_key) -> None:
        """Install the initial configuration (owner shard only)."""
        self.parents[init_key] = (None, None)
        self.frontier.push(((), None, initial, init_key, None, None))
        self.stats.peak_frontier = 1

    # -- phase A: expand the current level -----------------------------

    def expand_level(self) -> List[List[tuple]]:
        """Expand every current-level item in signature order.

        Returns the per-destination outgoing message lists (index
        ``self.index`` holds the local deliveries).
        """
        spec = self.spec
        clock = time.perf_counter
        t_phase = clock()
        outgoing: List[List[tuple]] = [[] for _ in range(spec.shards)]
        level_items = sorted(self.frontier.take_level(), key=lambda it: it[0])
        for sig, _tid, config, key, _parent, _digest in level_items:
            self._expand((self.level, sig), config, key, outgoing)
            if spec.plan.stop_on_violation and self.violations:
                break
        self.stats.time_total += clock() - t_phase
        return outgoing

    def _check_config(self, stamp, config) -> None:
        spec = self.spec
        if spec.check_config is None:
            return
        clock = time.perf_counter
        t0 = clock()
        messages = spec.check_config(config)
        self.stats.time_checks += clock() - t0
        for message in messages:
            self.violations.append((stamp, Violation(message, config)))

    def _check_step(self, stamp, config, step) -> None:
        spec = self.spec
        if spec.check_step is None:
            return
        clock = time.perf_counter
        t0 = clock()
        messages = spec.check_step(step)
        self.stats.time_checks += clock() - t0
        for message in messages:
            self.violations.append((stamp, Violation(message, config, step)))

    def _emit(self, outgoing, sig, step, key, child_key) -> None:
        digest = key_digest_for(child_key)
        dest = _dest_for(digest, self.spec.shards)
        outgoing[dest].append(
            (sig, step.tid, step.target, child_key, key, digest)
        )

    def _expand(self, stamp, config, key, outgoing) -> None:
        from repro.interp.interpreter import successor_list

        spec = self.spec
        clock = time.perf_counter
        self.stats.configs += 1
        self._check_config(stamp, config)
        if config.is_terminated():
            self.terminal.append((stamp, config))
            return
        if self.capped and spec.check_step is None:
            self.truncated = True
            return
        cut = bound_cut(config, spec.model, spec.plan.max_events)
        if cut:
            self.truncated = True
        t0 = clock()
        steps = successor_list(config, spec.model, silent_only=bool(cut))
        self.stats.time_expand += clock() - t0
        seq = 0
        for step in steps:
            self.stats.transitions += 1
            self._check_step(stamp, config, step)
            if self.capped:
                continue
            t0 = clock()
            child_key = _key_of(step.target, spec.model)
            self.stats.time_keys += clock() - t0
            self._emit(outgoing, stamp[1] + (seq,), step, key, child_key)
            seq += 1

    # -- phase B: integrate routed arrivals ----------------------------

    def integrate(self, arrivals: List[tuple]) -> None:
        """Replay the push sequence for this shard's keys, in global
        signature order — the barrier half of the superstep."""
        spec = self.spec
        cap = spec.shard_cap
        arrivals.sort(key=lambda message: message[0])
        for message in arrivals:
            _sig, tid, _config, child_key, parent_key, digest = message
            if shard_of(digest, spec.shards) != self.index:
                raise RuntimeError(
                    f"mis-routed configuration: digest owner is shard "
                    f"{shard_of(digest, spec.shards)}, delivered to shard "
                    f"{self.index} — partition function broken"
                )
            if child_key in self.parents or self.capped:
                continue
            if cap is not None and len(self.parents) >= cap:
                self.truncated = self.capped = True
                continue
            self.parents[child_key] = (parent_key, tid)
            self.frontier.push(message)
        self.level += 1
        self.frontier.advance()
        if len(self.frontier) > self.stats.peak_frontier:
            self.stats.peak_frontier = len(self.frontier)

    # -- results --------------------------------------------------------

    def snapshot(self) -> dict:
        """Checkpoint image of this shard's dynamic state (DESIGN.md §16).

        Taken at a superstep barrier (post-integration), where every
        shard's state is a pure function of the supersteps so far — the
        per-shard analogue of the single-process loop snapshot.
        """
        import dataclasses

        return {
            "level": self.level,
            "frontier": self.frontier.snapshot(),
            "parents": dict(self.parents),
            "terminal": list(self.terminal),
            "violations": list(self.violations),
            "truncated": self.truncated,
            "capped": self.capped,
            "stats": dataclasses.replace(self.stats),
        }

    def restore(self, snap: dict) -> None:
        """Rebuild this (freshly constructed) core from a snapshot."""
        self.level = snap["level"]
        self.frontier.restore(snap["frontier"])
        self.parents = snap["parents"]
        self.terminal = snap["terminal"]
        self.violations = snap["violations"]
        self.truncated = snap["truncated"]
        self.capped = snap["capped"]
        self.stats = snap["stats"]
        self.stats.resumed = 1

    def finish(self) -> dict:
        """Package this shard's outcome."""
        return {
            "truncated": self.truncated,
            "capped": self.capped,
            "terminal": self.terminal,
            "violations": self.violations,
            "parents": self.parents,
            "stats": self.stats,
        }


def _merge_results(
    spec: _ShardSpec, initial, payloads: List[dict], wall: float
) -> ExplorationResult:
    """Fold per-shard payloads into one ExplorationResult."""
    result = ExplorationResult(initial)
    result._model = spec.model
    result._canonicalize = True
    merged = result.stats
    merged.strategy = "bfs"
    terminal: List[Tuple[tuple, Any]] = []
    violations: List[Tuple[tuple, Violation]] = []
    for payload in payloads:
        result.truncated = result.truncated or payload["truncated"]
        result.capped = result.capped or payload["capped"]
        terminal.extend(payload["terminal"])
        violations.extend(payload["violations"])
        result.parents.update(payload["parents"])
        merged.merge(payload["stats"])
    # (level, signature) order is the single-process BFS pop order, so
    # the merged lists read exactly as the unsharded run's would
    terminal.sort(key=lambda pair: pair[0])
    violations.sort(key=lambda pair: pair[0])
    result.terminal = [config for _, config in terminal]
    result.violations = [violation for _, violation in violations]
    merged.shards = spec.shards
    # per-shard phase timings sum across workers; the run's total is the
    # coordinator's wall clock (under process mode the sum exceeds it —
    # that surplus is exactly what parallel hardware buys back)
    merged.time_total = wall
    return result


def _emit_shard_spans(tr, run_id, payloads: List[dict]) -> None:
    """One ``span`` per shard: where each worker's expand time went."""
    if tr is None or run_id is None:
        return
    for index, payload in enumerate(payloads):
        tr.emit(
            "span", run=run_id, name=f"shard{index}",
            dur=payload["stats"].time_total,
        )


# ======================================================================
# In-process mode
# ======================================================================


def _explore_sharded_inprocess(
    spec: _ShardSpec, initial, init_key, resume_payload: Optional[dict] = None
) -> ExplorationResult:
    from repro.engine.checkpoint import write_checkpoint
    from repro.faults import FaultInterrupt, active_plan
    from repro.obs.trace import tracer

    tr = tracer()
    plan = active_plan()  # kill-worker has no target in-process; ignored
    clock = time.perf_counter
    t_run = clock()
    counters = ProcessCounters()
    cores = [_ShardCore(spec, i) for i in range(spec.shards)]
    rounds = 0
    ckpt_count = 0
    last_ckpt: Optional[str] = None
    if resume_payload is not None:
        for core, blob in zip(cores, resume_payload["cores"]):
            core.restore(pickle.loads(blob))
        rounds = cores[0].level
        ckpt_count = resume_payload.get("checkpoints", 0)
        if ckpt_count:
            last_ckpt = spec.plan.checkpoint
    else:
        cores[_dest_for(key_digest_for(init_key), spec.shards)].seed(
            initial, init_key
        )
    every = spec.plan.checkpoint_every or 1000
    next_ckpt = (
        sum(core.stats.configs for core in cores) + every
        if spec.plan.checkpoint is not None
        else None
    )
    while True:
        outgoing_all = [core.expand_level() for core in cores]
        stop = False
        for i, core in enumerate(cores):
            inbox = [
                message
                for j in range(spec.shards)
                for message in outgoing_all[j][i]
            ]
            sent = sum(
                len(batch)
                for k, batch in enumerate(outgoing_all[i]) if k != i
            )
            recv = sum(
                len(outgoing_all[j][i])
                for j in range(spec.shards) if j != i
            )
            core.stats.shard_sent += sent
            core.stats.shard_recv += recv
            core.integrate(inbox)
            if tr is not None and spec.run_id is not None:
                tr.emit(
                    "shard", run=spec.run_id, shard=i, round=rounds,
                    sent=sent, recv=recv, frontier=len(core.frontier),
                )
            if spec.plan.stop_on_violation and core.violations:
                stop = True
        rounds += 1
        for core in cores:
            core.stats.shard_rounds = rounds
        if stop or all(len(core.frontier) == 0 for core in cores):
            break
        total = sum(core.stats.configs for core in cores)
        if next_ckpt is not None and total >= next_ckpt:
            ckpt_count += 1
            write_checkpoint(spec.plan.checkpoint, spec.fingerprint, {
                "algo": "shard",
                "cores": [pickle.dumps(core.snapshot()) for core in cores],
                "checkpoints": ckpt_count,
            })
            last_ckpt = spec.plan.checkpoint
            next_ckpt = total + every
            if tr is not None and spec.run_id is not None:
                tr.emit(
                    "ckpt", run=spec.run_id, path=spec.plan.checkpoint,
                    configs=total, action="write",
                )
        if plan is not None and plan.interrupt_due(total):
            if tr is not None and spec.run_id is not None:
                tr.emit(
                    "fault", run=spec.run_id, kind="interrupt",
                    detail=f"configs={total}",
                )
            raise FaultInterrupt(
                f"injected interrupt at {total} configurations",
                checkpoint=last_ckpt,
            )
    payloads = [core.finish() for core in cores]
    wall = clock() - t_run
    result = _merge_results(spec, initial, payloads, wall)
    result.stats.checkpoints += ckpt_count
    counters.fold_into(result.stats)
    _emit_shard_spans(tr, spec.run_id, payloads)
    return result


# ======================================================================
# Process mode
# ======================================================================


def _pack_config(config):
    """Configuration → wire form: its pcs against the run's one table."""
    return (config.program.pcs, config.state)


def _unpack_config(packed, table):
    from repro.interp.config import Configuration

    pcs, state = packed
    return Configuration(table.program(pcs), state)


def _pack_key(key):
    """``ConfigKey`` → wire form, like :func:`_pack_config` (``None``
    stays ``None``: the initial configuration has no parent)."""
    if key is None:
        return None
    program, state_key = key
    return (program.pcs, state_key)


def _unpack_key(packed, table):
    if packed is None:
        return None
    pcs, state_key = packed
    return (table.program(pcs), state_key)


def _pack_step(step):
    if step is None:
        return None
    return (
        _pack_config(step.source),
        step.tid,
        _pack_config(step.target),
        step.event,
        step.observed,
        step.read_value,
    )


def _unpack_step(packed, table):
    from repro.interp.interpreter import InterpretedStep

    if packed is None:
        return None
    source, tid, target, event, observed, read_value = packed
    return InterpretedStep(
        _unpack_config(source, table), tid, event=event, observed=observed,
        read_value=read_value, target=_unpack_config(target, table),
    )


def _pack_message(message):
    # the child key's program is the child configuration's, so one pcs
    # tuple carries both
    sig, tid, child_config, child_key, parent_key, digest = message
    return (
        sig, tid, child_config.program.pcs, child_config.state, child_key[1],
        _pack_key(parent_key), digest,
    )


def _unpack_message(packed, table):
    from repro.interp.config import Configuration

    sig, tid, pcs, state, state_key, parent, digest = packed
    program = table.program(pcs)
    return (
        sig, tid, Configuration(program, state), (program, state_key),
        _unpack_key(parent, table), digest,
    )


def _pack_payload(payload: dict) -> dict:
    payload["terminal"] = [
        (stamp, _pack_config(config)) for stamp, config in payload["terminal"]
    ]
    payload["violations"] = [
        (stamp, (v.message, _pack_config(v.config), _pack_step(v.step)))
        for stamp, v in payload["violations"]
    ]
    payload["parents"] = [
        (_pack_key(key), _pack_key(parent), tid)
        for key, (parent, tid) in payload["parents"].items()
    ]
    return payload


def _unpack_payload(payload: dict, table) -> dict:
    payload["terminal"] = [
        (stamp, _unpack_config(config, table))
        for stamp, config in payload["terminal"]
    ]
    payload["violations"] = [
        (
            stamp,
            Violation(
                message, _unpack_config(config, table),
                _unpack_step(step, table),
            ),
        )
        for stamp, (message, config, step) in payload["violations"]
    ]
    payload["parents"] = {
        _unpack_key(key, table): (_unpack_key(parent, table), tid)
        for key, parent, tid in payload["parents"]
    }
    return payload


@gc_paused()
def _shard_worker(
    spec, index, inboxes, coord_queue, ctrl_queue, resume_blob=None
) -> None:
    """One shard's worker process (fork entry point).

    Fault injection is driven *only* by ``spec.fault_spec`` — never the
    environment — so the supervisor controls exactly which attempt is
    faulty; ``resume_blob`` is this shard's pickled core snapshot from a
    checkpoint (None = fresh start).  The worker pauses the cyclic
    collector itself (DESIGN.md §5) rather than relying on a fork from
    a paused coordinator.
    """
    import signal

    from repro.faults import FaultPlan
    from repro.interp.config import Configuration
    from repro.obs.trace import tracer

    # the coordinator's SIGTERM-to-exception handler travels across
    # fork; in a worker `terminate()` should just kill, not raise
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    plan = FaultPlan(spec.fault_spec) if spec.fault_spec else None
    core = _ShardCore(spec, index)
    table = spec.program.table
    tr = tracer()
    counters = ProcessCounters()
    initial = Configuration(spec.program, spec.model.initial(spec.init_values))
    init_key = _key_of(initial, spec.model)
    rounds = 0
    if resume_blob is not None:
        core.restore(pickle.loads(resume_blob))
        rounds = core.level  # snapshots are taken at superstep barriers
    elif _dest_for(key_digest_for(init_key), spec.shards) == index:
        core.seed(initial, init_key)
    try:
        while True:
            if plan is not None and plan.kill_worker_now(index, rounds):
                os._exit(1)  # simulated hard death: no cleanup, no report
            outgoing = core.expand_level()
            sent = 0
            for dest in range(spec.shards):
                if dest == index:
                    continue
                batch = [_pack_message(m) for m in outgoing[dest]]
                sent += len(batch)
                if plan is not None:
                    plan.delay_send(index)
                # Pickle here, in the worker's main thread: Queue.put
                # defers pickling to a feeder thread, where an
                # unpicklable payload would kill the feeder silently and
                # deadlock the round.  Raising here lands in the crash
                # report instead.
                inboxes[dest].put(("batch", rounds, index, pickle.dumps(batch)))
            inbox = list(outgoing[index])
            recv = 0
            for _ in range(spec.shards - 1):
                tag, r, _sender, blob = inboxes[index].get()
                assert tag == "batch" and r == rounds, (tag, r, rounds)
                batch = pickle.loads(blob)
                recv += len(batch)
                inbox.extend(_unpack_message(m, table) for m in batch)
            core.stats.shard_sent += sent
            core.stats.shard_recv += recv
            core.integrate(inbox)
            if tr is not None and spec.run_id is not None:
                tr.emit(
                    "shard", run=spec.run_id, shard=index, round=rounds,
                    sent=sent, recv=recv, frontier=len(core.frontier),
                )
            rounds += 1
            core.stats.shard_rounds = rounds
            coord_queue.put((
                "round", index, rounds - 1, len(core.frontier), sent, recv,
                bool(core.violations), core.stats.configs,
            ))
            command = ctrl_queue.get()
            if command[0] == "stop":
                break
            if len(command) > 1 and command[1]:
                # checkpoint request: snapshot the barrier state, pickled
                # in the main thread like every other payload
                coord_queue.put(("ckpt", index, pickle.dumps(core.snapshot())))
        counters.fold_into(core.stats)
        # pickled in the main thread for the same reason as batches
        coord_queue.put(
            ("result", index, pickle.dumps(_pack_payload(core.finish())))
        )
    except BaseException:  # noqa: BLE001 — report, then let it propagate
        import traceback

        coord_queue.put(("crash", index, traceback.format_exc()))
        raise


def _explore_sharded_processes(
    spec: _ShardSpec, initial, init_key, resume_payload: Optional[dict] = None
) -> ExplorationResult:
    import multiprocessing
    import queue as queue_mod

    from repro.engine.checkpoint import write_checkpoint
    from repro.faults import FaultInterrupt, active_plan
    from repro.obs.trace import tracer

    tr = tracer()
    plan = active_plan()  # coordinator-side probes (interrupt) only
    clock = time.perf_counter
    t_run = clock()
    ctx = multiprocessing.get_context()
    inboxes = [ctx.Queue() for _ in range(spec.shards)]
    coord_queue = ctx.Queue()
    ctrls = [ctx.Queue() for _ in range(spec.shards)]
    blobs = (
        resume_payload["cores"] if resume_payload is not None
        else [None] * spec.shards
    )
    ckpt_count = (
        resume_payload.get("checkpoints", 0) if resume_payload is not None else 0
    )
    workers = [
        ctx.Process(
            target=_shard_worker,
            args=(spec, i, inboxes, coord_queue, ctrls[i], blobs[i]),
            daemon=True,
        )
        for i in range(spec.shards)
    ]
    for worker in workers:
        worker.start()

    stash: List[tuple] = []

    def collect(expected_tag: str, count: int) -> List[tuple]:
        got: List[tuple] = []
        kept: List[tuple] = []
        for message in stash:
            if message[0] == expected_tag and len(got) < count:
                got.append(message)
            else:
                kept.append(message)
        stash[:] = kept
        while len(got) < count:
            try:
                message = coord_queue.get(timeout=1.0)
            except queue_mod.Empty:
                dead = [w for w in workers if not w.is_alive()]
                if dead:
                    raise WorkerDied([w.pid for w in dead])
                continue
            if message[0] == "crash":
                raise RuntimeError(f"shard {message[1]} crashed:\n{message[2]}")
            if message[0] != expected_tag:
                # a fast worker's next-round report can land while this
                # barrier's checkpoint blobs are still being collected
                stash.append(message)
                continue
            got.append(message)
        return got

    every = spec.plan.checkpoint_every or 1000
    next_ckpt: Optional[int] = None
    last_ckpt: Optional[str] = spec.plan.checkpoint if ckpt_count else None
    payloads: Optional[List[dict]] = None
    failed = True
    try:
        while True:
            reports = collect("round", spec.shards)
            sent = sum(report[4] for report in reports)
            recv = sum(report[5] for report in reports)
            if sent != recv:  # the count-based termination invariant
                raise RuntimeError(
                    f"sharded termination count mismatch: {sent} routed "
                    f"out, {recv} delivered"
                )
            frontier_total = sum(report[3] for report in reports)
            violated = any(report[6] for report in reports)
            total_configs = sum(report[7] for report in reports)
            done = frontier_total == 0 or (
                spec.plan.stop_on_violation and violated
            )
            do_ckpt = False
            if spec.plan.checkpoint is not None and not done:
                if next_ckpt is None:
                    next_ckpt = (
                        total_configs + every if resume_payload is not None
                        else every
                    )
                do_ckpt = total_configs >= next_ckpt
            if plan is not None and not done and plan.interrupt_due(total_configs):
                for ctrl in ctrls:
                    ctrl.put(("stop",))
                if tr is not None and spec.run_id is not None:
                    tr.emit(
                        "fault", run=spec.run_id, kind="interrupt",
                        detail=f"configs={total_configs}",
                    )
                raise FaultInterrupt(
                    f"injected interrupt at {total_configs} configurations",
                    checkpoint=last_ckpt,
                )
            for ctrl in ctrls:
                ctrl.put(("stop",) if done else ("continue", do_ckpt))
            if done:
                break
            if do_ckpt:
                snaps = collect("ckpt", spec.shards)
                ckpt_count += 1
                write_checkpoint(spec.plan.checkpoint, spec.fingerprint, {
                    "algo": "shard",
                    "cores": [
                        blob
                        for _, _, blob in sorted(snaps, key=lambda s: s[1])
                    ],
                    "checkpoints": ckpt_count,
                })
                last_ckpt = spec.plan.checkpoint
                next_ckpt = total_configs + every
                if tr is not None and spec.run_id is not None:
                    tr.emit(
                        "ckpt", run=spec.run_id, path=spec.plan.checkpoint,
                        configs=total_configs, action="write",
                    )
        results = collect("result", spec.shards)
        table = spec.program.table
        payloads = [
            _unpack_payload(pickle.loads(blob), table)
            for _, _, blob in sorted(results, key=lambda r: r[1])
        ]
        failed = False
    finally:
        for worker in workers:
            # on failure the surviving workers are blocked mid-exchange;
            # a graceful join would only burn the timeout per worker
            worker.join(timeout=0.2 if failed else 5.0)
            if worker.is_alive():
                worker.terminate()
                worker.join(timeout=5.0)
        for q in [coord_queue, *inboxes, *ctrls]:
            q.close()
            q.cancel_join_thread()
    wall = clock() - t_run
    result = _merge_results(spec, initial, payloads, wall)
    result.stats.checkpoints += ckpt_count
    _emit_shard_spans(tracer(), spec.run_id, payloads)
    return result


def _run_sharded_supervised(
    spec: _ShardSpec, initial, init_key, resume_payload: Optional[dict]
) -> ExplorationResult:
    """Attempt-level supervision around the process-mode search.

    Each attempt runs the whole worker fleet; when :class:`WorkerDied`
    reports silent deaths, the fleet is torn down and respawned after a
    capped exponential backoff, resuming from the latest checkpoint on
    disk (or the original resume point, or scratch).  After
    :data:`MAX_ATTEMPTS` the run degrades to the in-process supersteps,
    whose parity contract guarantees identical results.  Fault specs are
    armed on the first attempt only, so injected kills cannot loop.
    """
    from repro.engine.checkpoint import CheckpointError, read_checkpoint
    from repro.faults import active_plan
    from repro.obs.trace import tracer

    tr = tracer()

    def emit_fault(kind: str, detail: str) -> None:
        if tr is not None and spec.run_id is not None:
            tr.emit("fault", run=spec.run_id, kind=kind, detail=detail)

    plan = active_plan()
    spec.fault_spec = plan.spec if plan is not None else None
    faults = retries = respawns = 0
    attempt = 0
    while True:
        payload = resume_payload
        if attempt > 0:
            spec.fault_spec = None  # disarm worker-side faults on retries
            path = spec.plan.checkpoint
            if path is not None and os.path.exists(path):
                try:
                    _, ckpt = read_checkpoint(path, expect=spec.fingerprint)
                    if ckpt.get("algo") == "shard":
                        payload = ckpt
                except CheckpointError:
                    pass  # torn/foreign file: restart from the original point
        try:
            result = _explore_sharded_processes(spec, initial, init_key, payload)
            break
        except WorkerDied as death:
            faults += len(death.pids)
            emit_fault("worker-death", str(death))
            attempt += 1
            if attempt >= MAX_ATTEMPTS:
                emit_fault(
                    "degrade",
                    f"in-process fallback after {attempt} failed attempts",
                )
                result = _explore_sharded_inprocess(
                    spec, initial, init_key, payload
                )
                break
            retries += 1
            respawns += spec.shards
            emit_fault("respawn", f"attempt {attempt + 1}/{MAX_ATTEMPTS}")
            time.sleep(min(_BACKOFF_CAP, _BACKOFF_BASE * (2 ** (attempt - 1))))
    result.stats.faults += faults
    result.stats.retries += retries
    result.stats.respawns += respawns
    return result


# ======================================================================
# Entry point
# ======================================================================


def explore_sharded(
    program,
    init_values: Mapping,
    model,
    plan: SearchPlan,
    check_config: Optional[Callable] = None,
    check_step: Optional[Callable] = None,
) -> ExplorationResult:
    """Hash-partitioned exploration across ``plan.shards`` workers.

    The plan guarantees what the sharded search needs to honour its
    parity contract: breadth-first order (the superstep structure *is*
    BFS), the unreduced search, and canonical keys (the digest
    partition function is defined on them).

    ``plan.shard_processes=None`` auto-selects: real worker processes
    when the current process may fork children, the in-process
    supersteps otherwise (daemonic pool workers — the fuzz oracle's
    home — may not fork).  One shard always runs in-process: one worker
    has nothing to overlap.

    Semantic deltas against the single-process loop, both flag-visible:
    ``stop_on_violation`` stops at the end of the superstep that found
    the violation (same verdict and same first violation, possibly more
    configs counted), and ``max_configs`` caps each shard at
    ``ceil(max_configs / shards)`` (capped runs are order-dependent in
    the single-process engine already; ``truncated``/``capped``
    propagate whenever any shard hits its slice).

    The plan's checkpoint surface works as in the single-process search
    (DESIGN.md §16): snapshots are taken at superstep barriers —
    per-shard core images assembled by the coordinator into ONE atomic
    ``repro-ckpt/6`` file with algorithm tag ``"shard"`` — and resume
    requires the identical shard count (it is part of the fingerprint).
    Process mode runs under attempt-level supervision: silently dying
    workers are detected, the fleet respawned from the latest
    checkpoint with capped backoff, and after :data:`MAX_ATTEMPTS`
    failed attempts the run degrades to the in-process supersteps
    instead of failing.
    """
    from repro.interp.compiled import maybe_lower
    from repro.interp.config import Configuration
    from repro.obs.trace import tracer

    processes = plan.shard_processes
    if processes is None:
        import multiprocessing

        processes = not multiprocessing.current_process().daemon

    program = maybe_lower(program)
    fingerprint, resume_payload = plan.open_checkpoint(
        program, init_values, model, "shard"
    )
    spec = _ShardSpec(
        program=program,
        init_values=init_values,
        model=model,
        plan=plan,
        check_config=check_config,
        check_step=check_step,
        fingerprint=fingerprint,
    )

    tr = tracer()
    run = (
        tr.run_start(
            program, getattr(model, "name", type(model).__name__),
            "bfs", "none", plan.max_events,
        )
        if tr is not None
        else None
    )
    spec.run_id = run

    initial = Configuration(program, model.initial(init_values))
    init_key = _key_of(initial, model)
    if processes and plan.shards > 1:
        import signal
        import threading

        # SIGTERM must run the teardown path (terminate workers, close
        # queue feeders) rather than killing the coordinator mid-round
        # and orphaning the fleet; signal handlers only install from the
        # main thread, elsewhere the default disposition already applies
        # to the whole process group.
        previous_handler = None
        installed = False
        if threading.current_thread() is threading.main_thread():
            def _on_sigterm(signum, frame):
                raise KeyboardInterrupt("SIGTERM")

            previous_handler = signal.signal(signal.SIGTERM, _on_sigterm)
            installed = True
        try:
            result = _run_sharded_supervised(
                spec, initial, init_key, resume_payload
            )
        finally:
            if installed:
                signal.signal(signal.SIGTERM, previous_handler)
    else:
        result = _explore_sharded_inprocess(
            spec, initial, init_key, resume_payload
        )
    if tr is not None:
        tr.run_end(run, result.stats, result.truncated)
    return result


__all__ = [
    "MAX_ATTEMPTS",
    "WorkerDied",
    "explore_sharded",
    "key_digest_for",
]
