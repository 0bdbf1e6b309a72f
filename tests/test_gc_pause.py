"""The cyclic-collector pause around every search (DESIGN.md §5).

``explore`` runs with CPython's automatic cyclic garbage collection
paused: a search allocates millions of long-lived objects, and every
collection would re-scan them and free nothing.  The pause is safe only
because a search creates no cyclic garbage — reference counting frees
everything it discards.  This file pins that premise for every explorer
(the unreduced loop, ``optimal``, the in-process sharded search and
a checkpointed run): the objects ``gc.collect()``
frees after a search must not grow with the bound.  It also pins that
the caller's collector setting survives every exit path — normal
return, an injected interrupt, Ctrl-C, a nested call — and that shard
workers pause the collector themselves.
"""

import gc

import pytest

from repro.engine.plan import SearchPlan
from repro.engine.shard import explore_sharded
from repro.faults import FaultInterrupt, FaultPlan, clear_plan, set_plan
from repro.interp.explore import explore
from repro.interp.ra_model import RAMemoryModel
from repro.verify.registry import PROOFS

#: The proof registry's Peterson scenario, at two bounds far enough
#: apart that garbage proportional to the search would show.  Built
#: once: its lowered step table is cyclic by design (instructions and
#: their interned steps point at each other) and is cached on the
#: program, so a fresh program per search would count the table too.
PETERSON = PROOFS.get("peterson")
PROGRAM = PETERSON.program()
SMALL, LARGE = 8, 12

SEARCHES = {
    "none": {},
    "optimal": {"reduction": "optimal"},
    "shards=2": {"shards": 2, "shard_processes": False},
    "checkpointed": {"checkpoint_every": 25},
}


def run(bound, **kwargs):
    return explore(
        PROGRAM, dict(PETERSON.init), RAMemoryModel(),
        max_events=bound, **kwargs,
    )


def search_kwargs(name, tmp_path):
    kwargs = dict(SEARCHES[name])
    if "checkpoint_every" in kwargs:
        kwargs["checkpoint"] = str(tmp_path / "gc.ckpt")
    return kwargs


def cyclic_garbage(bound, **kwargs):
    """(cyclic objects one search leaves behind, its configs).

    The collector stays off until the count is taken: re-enabled, its
    first automatic collection would free the garbage before we look.
    """
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        configs = run(bound, **kwargs).configs
        return gc.collect(), configs
    finally:
        if enabled:
            gc.enable()


def collector_running(config):
    """A check hook that reports the collector being enabled."""
    return ["cyclic collector enabled"] if gc.isenabled() else []


@pytest.fixture
def restore_gc():
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("name", sorted(SEARCHES))
def test_search_creates_no_growing_cyclic_garbage(name, tmp_path):
    kwargs = search_kwargs(name, tmp_path)
    cyclic_garbage(SMALL, **kwargs)  # warm the per-process caches
    small, small_configs = cyclic_garbage(SMALL, **kwargs)
    large, large_configs = cyclic_garbage(LARGE, **kwargs)
    assert large_configs >= 2 * small_configs, "the bound must grow the search"
    assert large <= small, (
        f"{name}: the collector freed {large} objects after "
        f"{large_configs} configs but {small} after {small_configs} — the "
        "search leaks reference cycles, which pile up while it runs"
    )


@pytest.mark.parametrize("name", sorted(SEARCHES))
def test_collector_is_paused_for_the_whole_search(name, tmp_path, restore_gc):
    gc.enable()
    result = run(
        SMALL, check_config=collector_running, **search_kwargs(name, tmp_path)
    )
    assert result.configs
    assert not result.violations
    assert gc.isenabled()


def test_shard_workers_pause_the_collector_themselves(restore_gc):
    """Called directly, the sharded entry point has no enclosing
    ``explore`` pause: the workers start with the collector on and must
    turn it off on their own."""
    gc.enable()
    result = explore_sharded(
        PROGRAM, dict(PETERSON.init), RAMemoryModel(),
        SearchPlan(max_events=SMALL, shards=2, shard_processes=True),
        check_config=collector_running,
    )
    assert result.configs
    assert not result.violations


@pytest.mark.parametrize("enabled", (True, False))
def test_callers_setting_survives_every_exit(enabled, restore_gc):
    (gc.enable if enabled else gc.disable)()
    run(SMALL)
    assert gc.isenabled() is enabled

    set_plan(FaultPlan("interrupt:configs=20"))
    try:
        with pytest.raises(FaultInterrupt):
            run(SMALL)
    finally:
        clear_plan()
    assert gc.isenabled() is enabled

    def ctrl_c(config):
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        run(SMALL, reduction="optimal", check_config=ctrl_c)
    assert gc.isenabled() is enabled


def test_nested_search_keeps_the_outer_pause(restore_gc):
    gc.enable()
    inner = []

    def search_inside(config):
        if len(inner) < 3:
            inner.append(run(4).configs)
        return collector_running(config)

    result = run(SMALL, check_config=search_inside)
    assert len(inner) == 3
    assert not result.violations  # returning inner searches kept it paused
    assert gc.isenabled()
