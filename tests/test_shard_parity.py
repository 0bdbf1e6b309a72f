"""Sharded exploration parity: partitioned search ≡ single-process.

The sharding contract (DESIGN.md §15), checked wholesale: the entire
litmus registry under every model, explored unreduced and
hash-partitioned across 1/2/3/4 shards — and the sharded run must
report *byte-identical* results to the single-process search: the same
configuration and transition counts, the same truncation flags, the
same terminal outcome sets and the same per-key parent choices.  Unlike
the POR tiers (whose counts may only shrink), sharding partitions the
very same search, so every count is an equality.

Process mode (one worker per shard, queue-routed successors) is pinned
on a registry subset against the same single-process reference; the
in-process superstep schedule covers the full matrix.  The
broken-partition canary deliberately mis-routes successors by patching
the sender-side :func:`repro.engine.shard._dest_for` seam and asserts
the receiving shard refuses them — proving the matrix would fail on a
partitioning bug rather than silently accepting mis-placed states.

CI runs this file as the shard-parity job.
"""

import pytest

from repro.engine.core import _key_of
from repro.engine.keys import shard_of
from repro.engine.plan import SearchPlan
from repro.engine.shard import key_digest_for
from repro.interp.explore import explore
from repro.interp.interpreter import configuration_successors
from repro.interp.ra_model import RAMemoryModel
from repro.interp.sc import SCMemoryModel
from repro.interp.sra_model import SRAMemoryModel
from repro.litmus.extra import EXTRA_TESTS
from repro.litmus.registry import final_values, run_litmus
from repro.litmus.suite import ALL_TESTS

MODELS = {"ra": RAMemoryModel, "sra": SRAMemoryModel, "sc": SCMemoryModel}
REGISTRY = list(ALL_TESTS) + list(EXTRA_TESTS)

SHARD_COUNTS = (1, 2, 3, 4)
REDUCTIONS = ("none",)


def outcome_set(result):
    return frozenset(
        tuple(sorted(final_values(c).items())) for c in result.terminal
    )


def explore_test(test, model_name, reduction, **kwargs):
    return explore(
        test.program, test.init, MODELS[model_name](),
        max_events=test.max_events, reduction=reduction, **kwargs,
    )


def assert_identical(sharded, full, label):
    """The parity contract: every observable equal, not merely ≤."""
    assert sharded.configs == full.configs, f"{label}: configs diverged"
    assert sharded.transitions == full.transitions, (
        f"{label}: transitions diverged"
    )
    assert sharded.truncated == full.truncated, (
        f"{label}: truncation flag diverged"
    )
    assert sharded.capped == full.capped, f"{label}: capped flag diverged"
    assert outcome_set(sharded) == outcome_set(full), (
        f"{label}: outcome set diverged"
    )
    assert len(sharded.terminal) == len(full.terminal), (
        f"{label}: terminal count diverged"
    )
    assert set(sharded.parents) == set(full.parents), (
        f"{label}: parent-map key set diverged"
    )
    for key, hop in full.parents.items():
        assert sharded.parents[key] == hop, (
            f"{label}: parent choice diverged at {key!r}"
        )
    assert [str(v) for v in sharded.violations] == [
        str(v) for v in full.violations
    ], f"{label}: violations diverged"


# ----------------------------------------------------------------------
# The matrix: registry × models × reductions × shard counts (in-process)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("model_name", sorted(MODELS))
@pytest.mark.parametrize("reduction", REDUCTIONS)
def test_registry_shard_parity(model_name, reduction):
    for test in REGISTRY:
        full = explore_test(test, model_name, reduction)
        for shards in SHARD_COUNTS:
            sharded = explore_test(
                test, model_name, reduction,
                shards=shards, shard_processes=False,
            )
            assert_identical(
                sharded, full,
                f"{test.name} [{model_name}] {reduction} shards={shards}",
            )


@pytest.mark.parametrize("model_name", sorted(MODELS))
def test_registry_verdicts_under_shards(model_name):
    """`run_litmus(shards=N)` reports the pinned verdict for every test."""
    for test in REGISTRY:
        outcome = run_litmus(test, MODELS[model_name]())
        sharded = run_litmus(test, MODELS[model_name](), SearchPlan(shards=3))
        assert sharded.reachable == outcome.reachable, test.name
        assert sharded.verdict_matches == outcome.verdict_matches, test.name


def test_shards_one_is_the_plain_search():
    """shards=1 is the plain search (and the sharded entry point's own
    one-shard schedule agrees with it too)."""
    from repro.engine.shard import explore_sharded

    test = REGISTRY[0]
    full = explore_test(test, "ra", "none")
    one = explore_test(test, "ra", "none", shards=1)
    assert_identical(one, full, f"{test.name} shards=1")
    direct = explore_sharded(
        test.program, test.init, RAMemoryModel(),
        SearchPlan(max_events=test.max_events),
    )
    assert_identical(direct, full, f"{test.name} explore_sharded(1)")


# ----------------------------------------------------------------------
# Process mode: worker-per-shard with queue-routed successors
# ----------------------------------------------------------------------


@pytest.mark.parametrize("reduction", REDUCTIONS)
def test_process_mode_parity(reduction):
    for test in REGISTRY[:4]:
        full = explore_test(test, "ra", reduction)
        sharded = explore_test(
            test, "ra", reduction, shards=3, shard_processes=True,
        )
        assert_identical(
            sharded, full, f"{test.name} process-mode {reduction}"
        )
        assert sharded.stats.shards == 3
        assert sharded.stats.shard_rounds >= 1
        # the count-based termination invariant, as merged
        assert sharded.stats.shard_sent == sharded.stats.shard_recv


# ----------------------------------------------------------------------
# Truncation propagation and counterexample replay
# ----------------------------------------------------------------------


def test_cap_truncation_propagates():
    """A shard hitting its per-shard config cap must surface the
    truncated/capped flags on the merged result — a capped sharded run
    can never read as exhaustive."""
    test = REGISTRY[0]
    sharded = explore_test(
        test, "ra", "none", max_configs=6, shards=3, shard_processes=False,
    )
    assert sharded.capped
    assert sharded.truncated
    assert sharded.configs <= 6
    full = explore_test(test, "ra", "none")
    assert sharded.configs < full.configs


def test_violation_counterexample_replays():
    """A check_config violation found by a shard replays step-for-step
    from the initial configuration through the merged parent map."""
    test = REGISTRY[0]
    model = MODELS["ra"]()

    def flag_terminal(config):
        if not any(True for _ in configuration_successors(config, model)):
            return ["terminal reached"]
        return []

    sharded = explore(
        test.program, test.init, model, max_events=test.max_events,
        shards=3, shard_processes=False, check_config=flag_terminal,
    )
    full = explore(
        test.program, test.init, model, max_events=test.max_events,
        check_config=flag_terminal,
    )
    assert sharded.violations
    assert [str(v) for v in sharded.violations] == [
        str(v) for v in full.violations
    ]
    trace = sharded.counterexample()
    assert trace is not None and trace
    # replay: every step of the trace must be a real successor with the
    # same tid/event/read value, and chain source-to-target by key
    cursor = sharded.initial
    for step in trace:
        matches = [
            s for s in configuration_successors(cursor, model)
            if s.tid == step.tid and s.event == step.event
            and s.read_value == step.read_value
            and _key_of(s.target, model) == _key_of(step.target, model)
        ]
        assert matches, f"unreplayable step {step!r}"
        cursor = matches[0].target
    assert _key_of(cursor, model) == _key_of(
        sharded.violations[0].config, model
    )


# ----------------------------------------------------------------------
# The broken-partition canary
# ----------------------------------------------------------------------


def test_misrouted_successor_is_refused(monkeypatch):
    """Patch the sender-side routing seam to mis-place every successor:
    the receiving shard must raise, proving ownership is re-derived on
    arrival and the parity matrix would fail loudly on a partition bug."""
    import repro.engine.shard as shard_mod

    def wrong_dest(digest, shards):
        return (shard_of(digest, shards) + 1) % shards

    monkeypatch.setattr(shard_mod, "_dest_for", wrong_dest)
    test = REGISTRY[0]
    with pytest.raises(RuntimeError, match="mis-routed"):
        explore_test(
            test, "ra", "none", shards=2, shard_processes=False,
        )


def test_canary_seam_agrees_with_ownership():
    """Unpatched, the sender's routing function IS the receiver's
    ownership check — the two seams agree on every digest."""
    from repro.engine.shard import _dest_for

    test = REGISTRY[0]
    model = MODELS["ra"]()
    result = explore(test.program, test.init, model,
                     max_events=test.max_events)
    for key in result.parents:
        digest = key_digest_for(key)
        for shards in (2, 3, 4):
            assert _dest_for(digest, shards) == shard_of(digest, shards)


# ----------------------------------------------------------------------
# Validation: the unshardable configurations are refused up front
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs,match",
    [
        ({"shards": 0}, "shards"),
        ({"shards": 2, "strategy": "dfs"}, "breadth-first"),
        ({"shards": 2, "reduction": "dpro"}, "reduction"),
        ({"shards": 2, "reduction": "optimal"}, "reduction"),
        ({"shards": 2, "canonicalize": False}, "canonical"),
    ],
)
def test_invalid_configurations_raise(kwargs, match):
    test = REGISTRY[0]
    with pytest.raises(ValueError, match=match):
        explore(
            test.program, test.init, RAMemoryModel(),
            max_events=test.max_events, **kwargs,
        )


def test_packed_batches_and_payloads_never_relower(monkeypatch):
    """Route batches and final payloads ship configurations and keys as
    pcs against the run's one table: unpickling them must not compile
    the program again (``_restore_lowered`` is the re-lowering hook of
    ``LoweredProgram.__reduce__``)."""
    import pickle

    from repro.engine import shard
    from repro.interp import compiled
    from repro.interp.interpreter import initial_configuration

    test = next(t for t in REGISTRY if t.name == "SB")
    model = RAMemoryModel()
    initial = initial_configuration(test.program, test.init, model)
    core = shard._ShardCore(
        shard._ShardSpec(
            program=initial.program, init_values=test.init, model=model,
            plan=SearchPlan(),
        ),
        0,
    )
    core.seed(initial, _key_of(initial, model))
    batches = []
    while len(core.frontier):
        (outgoing,) = core.expand_level()
        batches.append(outgoing)
        core.integrate(list(outgoing))
    payload = core.finish()
    parents = dict(payload["parents"])
    terminal = list(payload["terminal"])
    batch = max(batches, key=len)
    blob_batch = pickle.dumps([shard._pack_message(m) for m in batch])
    blob_payload = pickle.dumps(shard._pack_payload(payload))

    def relower(*args):
        raise AssertionError("an unpickled batch or payload re-lowered")

    monkeypatch.setattr(compiled, "_restore_lowered", relower)
    table = initial.program.table
    unpacked = [shard._unpack_message(m, table) for m in pickle.loads(blob_batch)]
    assert unpacked == batch
    restored = shard._unpack_payload(pickle.loads(blob_payload), table)
    assert restored["parents"] == parents
    assert terminal and restored["terminal"] == terminal
