"""Engine statistics: what one exploration run did and cost, and where.

Every :class:`~repro.engine.core.ExplorationResult` carries an
:class:`EngineStats` describing the run that produced it: how many
configurations and transitions it explored, which search strategy and
reduction ran, how large the frontier grew, how the canonical-key cache
behaved, how wall time split across the engine's phases (successor
expansion, canonical keying, the visited store, check hooks), how much
memory the process had peaked at when it ended, and — under
partial-order reduction (DESIGN.md §9) — how much the reduction pruned.
It is the one record a run's counts and cost travel in: shards, jobs,
fuzz cases and campaigns fold theirs with :meth:`EngineStats.merge`,
and every footer, the metrics export and the run ledger read the result
(DESIGN.md §5).  :class:`ProcessCounters` charges a search with its share
of the process-wide :data:`repro.counters.COUNTERS`.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields
from typing import Dict, Iterable, Union

from repro.counters import COUNTERS, Counters

try:
    import resource
except ImportError:  # not on every platform (Windows)
    resource = None


@dataclass
class EngineStats:
    """Counts, counters and phase timings of one exploration run."""

    strategy: str = "bfs"
    #: Which partial-order reduction ran ("none" | "optimal").
    reduction: str = "none"
    #: Distinct configurations popped and checked, and transitions
    #: enumerated from them.
    configs: int = 0
    transitions: int = 0
    #: Largest number of configurations ever waiting in the frontier
    #: (for the DPOR depth-first traversal: the peak spine depth).
    peak_frontier: int = 0
    #: Canonical-key cache behaviour during this run.  These two,
    #: ``states_built``, ``time_orders`` and ``time_model`` are the
    #: run's deltas of the same-named process-wide
    #: :data:`repro.counters.COUNTERS`.
    key_hits: int = 0
    key_misses: int = 0
    #: Compact state forms built during this run.  A successor is
    #: built only when something reads it (DESIGN.md §11), so this is
    #: below the number of successors enumerated.
    states_built: int = 0
    #: Wall time of the whole run and of its phases, in seconds.  The
    #: phases overlap nothing but do not cover what the loop does
    #: between them, so their sum is below ``time_total`` by
    #: :attr:`time_loop`.  The unreduced loop reads the clock once per
    #: phase per expansion (DESIGN.md §5): ``time_keys`` keys one
    #: expansion's children in one pass and ``time_store`` stores them
    #: in a second — the parent map, the frontier and the memo lifetime
    #: (:class:`~repro.engine.core.MemoLifetime`).
    time_total: float = 0.0
    time_expand: float = 0.0
    time_keys: float = 0.0
    time_store: float = 0.0
    time_checks: float = 0.0
    #: Wall time spent deriving orders (hb/eco bitset sweeps, SRA
    #: acyclicity, and any fallback Relation closures).  A *subset* of
    #: ``time_expand``/``time_checks`` (derivations happen inside
    #: expansion and check hooks), reported separately so footers can
    #: attribute time to closure work (DESIGN.md §11).
    time_orders: float = 0.0
    #: Wall time spent inside memory-model ``transitions_list`` calls,
    #: so ``time_orders ⊆ time_model ⊆ time_expand``;
    #: ``time_expand - time_model`` is the program-side stepping cost of
    #: the lowered step tables (DESIGN.md §12).
    time_model: float = 0.0
    #: Thread-expansions performed / skipped by the reduction.  One
    #: "expansion" is one thread's pending step resolved against the
    #: memory model; ``pruned`` counts enabled threads a reduction chose
    #: not to expand at some configuration (0 when reduction is "none").
    expanded: int = 0
    pruned: int = 0
    #: How often a sleeping thread was skipped (subset of ``pruned``).
    sleep_hits: int = 0
    #: Races detected by DPOR (backtrack-point insertions attempted).
    races: int = 0
    #: Arrivals at an already-expanded configuration: covered prunes
    #: plus re-expansions under an incomparable sleep set.
    revisits: int = 0
    #: How many hash-partitioned shards ran this exploration (1 = the
    #: ordinary single-owner search; DESIGN.md §15).
    shards: int = 1
    #: Cross-shard successor messages routed out of / into this shard's
    #: worker (equal in total across a completed run — the count-based
    #: termination check).
    shard_sent: int = 0
    shard_recv: int = 0
    #: Superstep rounds the sharded search synchronised on (max-merged:
    #: every shard participates in every round).
    shard_rounds: int = 0
    #: Fault-tolerance block (DESIGN.md §16).  ``faults`` counts worker
    #: deaths (and injected faults) the run survived, ``retries`` the
    #: sharded attempts restarted after one, ``respawns`` the worker
    #: processes relaunched for those attempts.
    faults: int = 0
    retries: int = 0
    respawns: int = 0
    #: Checkpoint snapshots written during the run, and whether the run
    #: itself started from one (0 | 1).
    checkpoints: int = 0
    resumed: int = 0
    #: The process's peak resident set size, in KiB, when the run ended
    #: (``getrusage(RUSAGE_SELF).ru_maxrss``; 0 where the ``resource``
    #: module is missing).  A process-wide high-water mark, measured
    #: rather than estimated: it includes whatever the process held
    #: before the run, and a merge keeps the largest process's.
    peak_rss_kb: int = 0

    @property
    def key_rate(self) -> float:
        """Cache hit rate over this run (0.0 when nothing was keyed)."""
        keyed = self.key_hits + self.key_misses
        return self.key_hits / keyed if keyed else 0.0

    @property
    def reduction_ratio(self) -> float:
        """Fraction of enabled thread-expansions the reduction skipped
        (0.0 for unreduced runs)."""
        total = self.expanded + self.pruned
        return self.pruned / total if total else 0.0

    def merge(self, other: "EngineStats") -> "EngineStats":
        """Fold another record into this one and return this one.

        The one fold for every consumer: shards, jobs, oracle legs and
        campaigns.  Counters and timers sum; the
        high-water marks in :data:`PEAK_FIELDS` take the max; the
        descriptive :data:`LABEL_FIELDS` keep this record's values.
        """
        for name in COUNTER_FIELDS:
            mine, theirs = getattr(self, name), getattr(other, name)
            setattr(
                self, name,
                max(mine, theirs) if name in PEAK_FIELDS else mine + theirs,
            )
        return self

    def counters(self) -> Dict[str, Union[int, float]]:
        """Every counter, timer and high-water mark by field name (the
        labels left out) — what footers, the metrics export and the run
        ledger record."""
        return {name: getattr(self, name) for name in COUNTER_FIELDS}

    @property
    def time_loop(self) -> float:
        """The search loop's own time: ``time_total`` less the timed
        phases (popping, the bound rule and the clock reads themselves,
        and the reduction's bookkeeping under ``optimal``, which times
        no ``store`` phase)."""
        return (
            self.time_total - self.time_expand - self.time_keys
            - self.time_store - self.time_checks
        )

    def phase_split(self, unit: str = "ms", rate: bool = False) -> str:
        """Where the run's wall time went, in ``ms`` or ``s``.

        ``expand + keys + store + checks + loop`` is ``total``; ``model`` and
        ``step`` (the lowered step tables' share, DESIGN.md §12) split
        ``expand``, and ``orders`` (DESIGN.md §11) is time spent inside
        the other phases, so the split shows which layer a performance
        change moved.  With ``rate`` the line ends with the run's
        states/sec, also per million spin iterations
        (:mod:`repro.engine.calibrate`), which compares across machines;
        measuring the spin rate takes a tenth of a second, so
        ``summary()`` leaves it out.  This is the one renderer of the
        split: ``summary()``, ``run --profile`` and the batch footers all
        print it.
        """
        scale, digits = (1e3, 1) if unit == "ms" else (1.0, 2)

        def t(seconds: float) -> str:
            return f"{seconds * scale:.{digits}f}{unit}"

        line = (
            f"expand={t(self.time_expand)} (model={t(self.time_model)} "
            f"step={t(self.time_expand - self.time_model)}) "
            f"keys={t(self.time_keys)} store={t(self.time_store)} "
            f"orders={t(self.time_orders)} "
            f"checks={t(self.time_checks)} loop={t(self.time_loop)} "
            f"total={t(self.time_total)}"
        )
        if rate:
            from repro.engine.calibrate import per_mspin, spin_score

            per_s = self.configs / self.time_total if self.time_total else 0.0
            score = spin_score()
            line += (
                f"; {per_s:,.0f} states/sec = "
                f"{per_mspin(per_s, score):,.0f} states/Mspin "
                f"(spin {score / 1e6:.1f}M ops/s)"
            )
        return line

    def reduction_split(self) -> str:
        """What the reduction pruned, and its race bookkeeping."""
        return (
            f"pruned={self.pruned}/{self.expanded + self.pruned} "
            f"({100.0 * self.reduction_ratio:.0f}%) "
            f"sleep-hits={self.sleep_hits} races={self.races} "
            f"revisits={self.revisits}"
        )

    def summary(self) -> str:
        """One human-readable line, used by the CLI and benchmarks."""
        keyed = self.key_hits + self.key_misses
        rate = f"{100.0 * self.key_rate:.0f}%" if keyed else "n/a"
        line = (
            f"strategy={self.strategy} peak-frontier={self.peak_frontier} "
            f"key-cache={self.key_hits}/{keyed} ({rate}) "
            f"built={self.states_built} "
            f"peak-rss={self.peak_rss_kb / 1024:.1f}MB "
            f"{self.phase_split()}"
        )
        if self.reduction != "none":
            line += f" reduction={self.reduction} {self.reduction_split()}"
        if self.shards > 1:
            line += (
                f" shards={self.shards} rounds={self.shard_rounds} "
                f"routed={self.shard_sent}/{self.shard_recv}"
            )
        if self.faults or self.retries or self.respawns:
            line += (
                f" faults={self.faults} retries={self.retries} "
                f"respawns={self.respawns}"
            )
        if self.checkpoints or self.resumed:
            line += f" checkpoints={self.checkpoints}"
            if self.resumed:
                line += " resumed"
        return line

    @classmethod
    def folded(cls, records: Iterable["EngineStats"]) -> "EngineStats":
        """A fresh record with every one of ``records`` merged in."""
        total = cls()
        for record in records:
            total.merge(record)
        return total


#: Fields that say what ran rather than what it cost; :meth:`EngineStats.merge`
#: leaves them alone.
LABEL_FIELDS = ("strategy", "reduction", "shards")
#: High-water marks: merged by max, never summed (no moment held the sum;
#: every shard takes part in every round; a run resumed at most once;
#: each process has its own resident set).
PEAK_FIELDS = ("peak_frontier", "shard_rounds", "resumed", "peak_rss_kb")
#: Every field :meth:`EngineStats.merge` folds, in declaration order.
COUNTER_FIELDS = tuple(
    f.name for f in fields(EngineStats) if f.name not in LABEL_FIELDS
)


class ProcessCounters:
    """A reading of the process-wide :data:`repro.counters.COUNTERS`,
    taken when a search segment starts.

    :meth:`fold_into` adds what accrued since into a record, field by
    same-named field, and raises its ``peak_rss_kb`` to the process's
    peak so far.  Every search loop charges itself through this one
    class.
    """

    __slots__ = ("start",)

    def __init__(self) -> None:
        self.start = COUNTERS.reading()

    def fold_into(self, stats: EngineStats) -> EngineStats:
        """Add the counters accrued since this reading to ``stats``."""
        for name, before, now in zip(
            Counters.__slots__, self.start, COUNTERS.reading()
        ):
            setattr(stats, name, getattr(stats, name) + now - before)
        stats.peak_rss_kb = max(stats.peak_rss_kb, peak_rss_kb())
        return stats


def peak_rss_kb() -> int:
    """This process's peak resident set size so far, in KiB (0 where
    the ``resource`` module is missing)."""
    if resource is None:
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is in KiB on Linux and in bytes on macOS
    return peak // 1024 if sys.platform == "darwin" else peak
