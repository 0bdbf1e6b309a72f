"""Run the whole litmus suite under both memory models and print the table.

Also demonstrates digging into a single test: which writes each thread
can observe at the decisive moment of IRIW.

Run:  python examples/litmus_explorer.py
"""

from repro.interp.ra_model import RAMemoryModel
from repro.interp.sc import SCMemoryModel
from repro.litmus.registry import run_litmus, run_suite
from repro.litmus.suite import ALL_TESTS, test_by_name


def main() -> None:
    print(f"{'test':<22} {'outcome':<34} {'RA':<10} {'SC':<10}")
    print("-" * 80)
    for test in ALL_TESTS:
        ra = run_litmus(test, RAMemoryModel())
        sc = run_litmus(test, SCMemoryModel())
        mark = "" if ra.verdict_matches and sc.verdict_matches else "  ** MISMATCH **"
        print(
            f"{test.name:<22} {test.outcome_text:<34} "
            f"{'allowed' if ra.reachable else 'forbidden':<10} "
            f"{'allowed' if sc.reachable else 'forbidden':<10}{mark}"
        )

    print("\nDetail: IRIW with acquire reads is allowed under RA —")
    print("release/acquire C11 is not multi-copy atomic.  The two readers")
    print("see the independent writes in opposite orders because each")
    print("reader's *encountered* set only grows along its own rf/hb")
    print("edges; nothing orders wr(x,1) and wr(y,1) globally.")
    iriw = test_by_name("IRIW+rel-acq")
    outcome = run_litmus(iriw, RAMemoryModel())
    print(
        f"\nIRIW explored: {outcome.result.configs} configurations, "
        f"{len(outcome.result.terminal)} terminal states, weak outcome "
        f"{'reachable' if outcome.reachable else 'unreachable'}."
    )


if __name__ == "__main__":
    main()
