"""The verification workbench end to end, on the test-and-set spinlock.

Walks the full `repro verify` flow in library form (DESIGN.md §10):

1. build the lock with the value-returning exchange
   ``r := lock.swap(1)^RA`` (the RMW extension that makes test-and-set
   expressible at all — the paper's bare ``swap`` discards the value);
2. state its proof outline — mutual exclusion, the winner's ticket
   (``r_t =_t 0``), the lock word held at 1 — and discharge every
   initialisation + preservation obligation over the bounded state
   space;
3. refute the non-atomic mutant (read-then-write instead of an
   exchange): the workbench localises the failure to the offending
   transition, pc vectors included;
4. check the same scenario through the registry, exactly as
   ``python -m repro verify spinlock-tas`` does.

Run:  python examples/spinlock_proof.py
"""

from repro.casestudies.spinlock import (
    SPINLOCK_INIT,
    spinlock_broken,
    spinlock_outline,
    spinlock_program,
)
from repro.engine.plan import SearchPlan
from repro.verify.registry import PROOFS

BOUND = 10


def show(report) -> None:
    for name, (ok, bad) in report.per_invariant.items():
        verdict = "OK" if bad == 0 else f"{bad} FAILED"
        print(f"  {name:<34} {ok + bad:>6} obligations  {verdict}")
    print(f"  {report.row()}")


def main() -> None:
    program = spinlock_program()
    print("test-and-set spinlock, thread 1:")
    print(" ", program.command(1), "\n")

    # -- the outline, discharged --------------------------------------
    outline = spinlock_outline()
    report = outline.check(
        program, SPINLOCK_INIT, plan=SearchPlan(max_events=BOUND)
    )
    print(f"proof outline over bound {BOUND}:")
    show(report)
    assert report.proved

    # -- the refutation canary ----------------------------------------
    print("\nmutant: exchange replaced by read-then-write (not atomic):")
    broken = spinlock_outline().check(
        spinlock_broken(), SPINLOCK_INIT, plan=SearchPlan(max_events=BOUND)
    )
    assert not broken.proved
    for failure in broken.failures[:3]:
        print(f"  !! {failure}")
    print("  -> the interleaving bug, caught and localised to a transition.")

    # -- and through the registry, as the CLI does it ------------------
    entry = PROOFS.get("spinlock-tas")
    registry_report = entry.check("ra")
    print(f"\nregistry entry '{entry.name}': {registry_report.row()}")
    assert registry_report.proved


if __name__ == "__main__":
    main()
