"""Shared helpers for the fuzzing tests (not a conftest: benchmarks/
conftest.py already owns that module name under pytest's prepend
import mode).

The deliberately broken model lives here so every test that plants it
breaks the SRA semantics the same way — and so renaming an action kind
means touching one class, not five copies.
"""

from repro.interp.sra_model import SRAMemoryModel
from repro.lang.actions import ActionKind


class BrokenSRA(SRAMemoryModel):
    """SRA with every relaxed-write transition pruned away.

    SC outcomes that need a relaxed store vanish from the SRA outcome
    set, so the fuzzer's ``sc ⊆ sra`` refinement oracle must fire.
    Monkeypatch it into ``repro.fuzz.oracles.ORACLE_MODELS["sra"]``
    (keep campaigns at ``jobs=1`` so the in-process patch applies).
    """

    def transitions_list(self, state, tid, step):
        return [
            mt for mt in super().transitions_list(state, tid, step)
            if mt.event is None or mt.event.action.kind is not ActionKind.WR
        ]
