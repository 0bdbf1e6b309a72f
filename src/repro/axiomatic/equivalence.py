"""Comparing the two axiomatisations over bounded candidate spaces.

Empirical Theorem C.5 / Appendix E: over every candidate execution in a
:class:`~repro.axiomatic.candidates.CandidateSpace`, the paper's
Coherence axiom and the weak-canonical consistency conditions must agree.
The paper reports *"No differences were found between c11_rar.cat and
c11_simp_2.cat for models up to size 7"*; the E1 benchmark regenerates
that table (smaller bound, same shape — see DESIGN.md).

NoThinAir is excluded on both sides, exactly as the appendix does:
*"validity without the NoThinAir axiom and a version of canonical
consistency are equivalent"* — the canonical model has no counterpart of
the acyclicity axiom, it defines the larger RC11 behaviours away by
other means.  We additionally report how NoThinAir splits the agreed
set, which quantifies what the RAR fragment gives up.

Both models are judged on the enumerator's bitmask rows
(:class:`~repro.axiomatic.candidates.Skeleton`), each formula a row
version of its ``Relation`` counterpart in :mod:`repro.axiomatic.validity`
and :mod:`repro.axiomatic.canonical` (which stay the parity oracle,
tests/test_equivalence.py).  Everything that does not depend on ``mo`` —
``rf``, ``sw``, ``hb``, ``rf⁻¹``, ``rf ; hb`` and NoThinAir — is settled
once per reads-from choice.  When ``hb`` is reflexive both models reject
every ``mo`` completion (Coherence needs ``irrefl(hb)``, Definition C.3
has the HB condition), so those are counted as agreed-inconsistent
without being evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.axiomatic.candidates import (
    CandidateSpace,
    Rows,
    Skeleton,
    closure_rows,
    compose_rows,
    inverse_rows,
    irreflexive_rows,
    irreflexive_seq_rows,
    skeletons,
)
from repro.c11.state import C11State


@dataclass
class EquivalenceResult:
    """Tally of one bounded comparison run."""

    space: CandidateSpace
    candidates: int = 0
    valid_paper: int = 0
    valid_canonical: int = 0
    agreed: int = 0
    mismatches: List[C11State] = field(default_factory=list)
    thin_air_only: int = 0  # consistent under both, yet sb ∪ rf cyclic

    @property
    def equivalent(self) -> bool:
        """Whether the models agreed on every candidate."""
        return not self.mismatches

    def row(self) -> str:
        """One table row for the E1 report."""
        return (
            f"n={self.space.n_events}  candidates={self.candidates:>8}  "
            f"consistent={self.valid_paper:>7}  mismatches={len(self.mismatches)}  "
            f"thin-air-only={self.thin_air_only}"
        )


# ----------------------------------------------------------------------
# Row formulas.  ``hb`` is irreflexive whenever these are called (the
# HB condition and Coherence's ``irrefl(hb)`` are settled by the prune).
# ----------------------------------------------------------------------


def _coherence(
    rf: Rows, mo: Rows, rf_inverse_mo: Rows, hb_inverse: Rows
) -> bool:
    """Coherence (Definition 4.2) given ``irrefl(hb)`` and ``rf⁻¹ ; mo``:
    ``irrefl(eco)`` and ``irrefl(hb ; eco)`` with the definitional
    ``eco = (fr ∪ mo ∪ rf)+`` and ``fr = (rf⁻¹ ; mo) \\ Id``."""
    eco = closure_rows([
        (f & ~(1 << a)) | m | r
        for a, (f, m, r) in enumerate(zip(rf_inverse_mo, mo, rf))
    ])
    return irreflexive_rows(eco) and irreflexive_seq_rows(eco, hb_inverse)


def _condition_rfi(rf: Rows) -> bool:
    """RFI: ``irrefl(rf)``."""
    return irreflexive_rows(rf)


def _condition_rf(rf: Rows, hb_inverse: Rows) -> bool:
    """RF: ``irrefl(rf ; hb)``."""
    return irreflexive_seq_rows(rf, hb_inverse)


def _condition_coh(
    mo: Rows, rf_inverse_mo: Rows, rf_opt_hb_inverse: Rows
) -> bool:
    """COH: ``irrefl((rf⁻¹)? ; mo ; rf? ; hb)``, given ``rf⁻¹ ; mo`` and
    ``(rf? ; hb)⁻¹``."""
    left = [m | f for m, f in zip(mo, rf_inverse_mo)]  # (rf⁻¹)? ; mo
    return irreflexive_seq_rows(left, rf_opt_hb_inverse)


def _condition_upd(rf: Rows, rf_inverse: Rows, mo: Rows, mo_mo: Rows) -> bool:
    """UPD: ``irrefl((mo ; mo ; rf⁻¹) ∪ (mo ; rf))``, given ``mo ; mo``,
    as the conjunction of both irreflexivities (``(rf⁻¹)⁻¹ = rf``)."""
    return irreflexive_seq_rows(mo_mo, rf) and irreflexive_seq_rows(mo, rf_inverse)


def _no_thin_air(sb: Rows, rf: Rows) -> bool:
    """NoThinAir (Definition 4.2): ``sb ∪ rf`` is acyclic."""
    return irreflexive_rows(closure_rows([s | r for s, r in zip(sb, rf)]))


#: One reads-from choice's verdicts: the skeleton, the rf choice,
#: NoThinAir, and ``(Coherence, Definition C.3)`` per ``mo`` order —
#: ``None`` when ``hb`` is reflexive (all three are false for every
#: order).
ReadsFromVerdicts = Tuple[
    Skeleton, Tuple[int, ...], bool, Optional[List[Tuple[bool, bool]]]
]


def _judge(space: CandidateSpace) -> Iterator[ReadsFromVerdicts]:
    """Both models' verdicts on every candidate of ``space``, one block
    per reads-from choice, in enumeration order."""
    for skeleton in skeletons(space):
        sb = skeleton.sb
        release, acquire = skeleton.release, skeleton.acquire
        mo_orders = skeleton.mo_orders
        for rf_pick in skeleton.reads_from_choices():
            rf, rf_inverse = skeleton.reads_from_rows(rf_pick)
            # sw = rf ∩ (WrR × RdA); hb = (sb ∪ sw)+
            sw = [
                row & acquire if release >> w & 1 else 0
                for w, row in enumerate(rf)
            ]
            if any(sw):
                hb = closure_rows([s | w for s, w in zip(sb, sw)])
                hb_inverse = inverse_rows(hb)
            else:  # sb is transitive
                hb, hb_inverse = sb, skeleton.sb_inverse
            if not irreflexive_rows(hb):
                # sw ⊆ rf, so an hb cycle is an sb ∪ rf cycle too.
                yield skeleton, rf_pick, False, None
                continue
            no_thin_air = _no_thin_air(sb, rf)
            rf_ok = _condition_rfi(rf) and _condition_rf(rf, hb_inverse)
            rf_hb = compose_rows(rf, hb)
            rf_opt_hb_inverse = inverse_rows([h | r for h, r in zip(hb, rf_hb)])
            verdicts = []
            for mo, mo_mo in mo_orders:
                rf_inverse_mo = compose_rows(rf_inverse, mo)
                verdicts.append((
                    _coherence(rf, mo, rf_inverse_mo, hb_inverse),
                    rf_ok
                    and _condition_coh(mo, rf_inverse_mo, rf_opt_hb_inverse)
                    and _condition_upd(rf, rf_inverse, mo, mo_mo),
                ))
            yield skeleton, rf_pick, no_thin_air, verdicts


def row_verdicts(space: CandidateSpace) -> Iterator[Tuple[bool, bool, bool]]:
    """``(Coherence, Definition C.3, NoThinAir)`` on the rows of every
    candidate, in :func:`~repro.axiomatic.candidates.enumerate_candidates`
    order (the parity oracle's view of :func:`_judge`)."""
    for skeleton, _rf_pick, no_thin_air, verdicts in _judge(space):
        if verdicts is None:
            for _ in skeleton.mo_orders:
                yield False, False, no_thin_air
        else:
            for paper, canonical in verdicts:
                yield paper, canonical, no_thin_air


def compare_axiomatisations(
    space: CandidateSpace, keep_mismatches: int = 10
) -> EquivalenceResult:
    """Evaluate both models on every candidate of ``space``.

    ``keep_mismatches`` bounds how many disagreeing states are retained
    for diagnosis (Memalloy would print them as counterexamples).
    """
    result = EquivalenceResult(space)
    for skeleton, rf_pick, no_thin_air, verdicts in _judge(space):
        if verdicts is None:
            pruned = len(skeleton.mo_orders)
            result.candidates += pruned
            result.agreed += pruned
            continue
        result.candidates += len(verdicts)
        for (paper, canonical), (mo, _) in zip(verdicts, skeleton.mo_orders):
            if paper:
                result.valid_paper += 1
            if canonical:
                result.valid_canonical += 1
            if paper == canonical:
                result.agreed += 1
                if paper and not no_thin_air:
                    result.thin_air_only += 1
            elif len(result.mismatches) < keep_mismatches:
                result.mismatches.append(skeleton.state(rf_pick, mo))
    return result


def sweep_sizes(
    sizes: Iterable[int],
    variables=("x", "y"),
    values=(1,),
    max_threads: int = 2,
) -> List[EquivalenceResult]:
    """Run the comparison for each event-count in ``sizes`` (the E1 table)."""
    results = []
    for n in sizes:
        space = CandidateSpace(
            n_events=n,
            variables=tuple(variables),
            values=tuple(values),
            max_threads=max_threads,
        )
        results.append(compare_axiomatisations(space))
    return results
