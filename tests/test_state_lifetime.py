"""How long memory states live during and after a search (DESIGN.md §12).

The RA model memoizes each state's transition lists on the state
object, and those lists hold the successor states with their own memos.
Every explorer scopes that memo with
:class:`~repro.engine.core.MemoLifetime`: a state's memo is dropped once
no queued configuration holds the state, and under depth-first order
once the state that produced it is not queued either.  A finished
search therefore keeps only the states its result names, and the
memo's hits are pinned so that a narrower rule cannot quietly trade
them away.  A successor's compact form is built only when something
reads it (DESIGN.md §11), and the number built is pinned too.
"""

import gc

import pytest

from repro.c11.state import C11State
from repro.casestudies.token_ring import (
    TOKEN_INIT,
    token_ring_program,
    token_ring_violations,
)
from repro.engine.core import MemoLifetime
from repro.interp import ra_model
from repro.interp.explore import explore
from repro.interp.ra_model import RAMemoryModel
from repro.interp.sra_model import SRAMemoryModel

BOUND = 8

#: (reduction, strategy) -> RA memo misses on ring4 at BOUND; each miss
#: enumerates read or write targets once (``ra_read_targets`` /
#: ``ra_write_targets``).
#: With every memo kept alive these searches made 2,182 / 2,182 /
#: 2,036 calls.  Breadth-first searches keep
#: every hit; depth-first ones lose the hits of states more than one
#: step below a queued state (the frontier rule alone made 3,775 calls
#: under ``none``/dfs).
MEMO_CALLS = {
    ("none", "bfs"): 2182,
    ("none", "dfs"): 3309,
    ("optimal", "bfs"): 2599,
}


#: (reduction, strategy) -> compact forms built on ring4 at BOUND
#: (``EngineStats.states_built``).  Building every successor at birth
#: took 3,111 / 4,590 / 3,532: most successors duplicate a known
#: configuration or sit at the bound, where only τ steps are taken.
STATES_BUILT = {
    ("none", "bfs"): 701,
    ("none", "dfs"): 1050,
    ("optimal", "bfs"): 1398,
}


def _live_states() -> int:
    gc.collect()
    return sum(1 for o in gc.get_objects() if type(o) is C11State)


def _ring(model, reduction, strategy, **kwargs):
    return explore(
        token_ring_program(n_threads=4), TOKEN_INIT, model,
        max_events=BOUND, check_config=token_ring_violations,
        reduction=reduction, strategy=strategy, **kwargs,
    )


@pytest.mark.parametrize("reduction,strategy", sorted(MEMO_CALLS))
def test_a_finished_search_keeps_only_the_states_its_result_names(
    reduction, strategy
):
    before = _live_states()
    result = _ring(RAMemoryModel(), reduction, strategy)
    live = _live_states() - before
    # at the parent commit these searches retained 1,997-3,112 states
    assert live <= len(result.terminal) + 8
    assert result.configs > 4000  # the result is alive and complete


def test_representatives_hold_their_states_but_no_memo_behind_them():
    """Configurations a hook keeps hold their states, but no memo."""
    visited = []

    def keep(config):
        visited.append(config)
        return token_ring_violations(config)

    before = _live_states()
    result = explore(
        token_ring_program(n_threads=4), TOKEN_INIT, RAMemoryModel(),
        max_events=BOUND, check_config=keep,
    )
    live = _live_states() - before
    assert len(visited) == result.configs
    assert live <= len(result.terminal) + len(visited) + 8
    assert all(c.state._ra_trans is None for c in visited)


def test_sra_drops_the_ra_memo_it_filters():
    before = _live_states()
    result = _ring(SRAMemoryModel(), "none", "bfs")
    assert _live_states() - before <= len(result.terminal) + 8


@pytest.mark.parametrize("reduction,strategy", sorted(MEMO_CALLS))
def test_memo_hits_are_pinned(monkeypatch, reduction, strategy):
    calls = []

    def counting(real):
        def enumerate_targets(*args):
            calls.append(args[1])
            return real(*args)

        return enumerate_targets

    for name in ("ra_read_targets", "ra_write_targets"):
        monkeypatch.setattr(ra_model, name, counting(getattr(ra_model, name)))
    _ring(RAMemoryModel(), reduction, strategy)
    assert len(calls) == MEMO_CALLS[(reduction, strategy)]


@pytest.mark.parametrize("reduction,strategy", sorted(STATES_BUILT))
def test_states_built_are_pinned(reduction, strategy):
    result = _ring(RAMemoryModel(), reduction, strategy)
    assert result.stats.states_built == STATES_BUILT[(reduction, strategy)]
    assert f"built={result.stats.states_built} " in result.stats.summary()


class _Recorder:
    """Stands in for a model: ``MemoLifetime`` only calls ``drop_memo``."""

    def __init__(self):
        self.dropped = []

    def drop_memo(self, state):
        self.dropped.append(state)


def test_breadth_first_drops_a_memo_when_its_state_leaves():
    model = _Recorder()
    life = MemoLifetime(model, depth_first=False)
    life.enter("root")
    life.enter("child", "root")
    life.leave("root")
    assert model.dropped == ["root"]
    life.enter("child", "root")  # a second queued copy of the child
    life.leave("child")
    assert model.dropped == ["root"]
    life.leave("child")
    assert model.dropped == ["root", "child"]


def test_a_memo_outlives_its_state_while_its_producer_is_queued():
    model = _Recorder()
    life = MemoLifetime(model, depth_first=True)
    root, child, grandchild = "root", "child", "grandchild"
    life.enter(root)
    life.enter(root, root)  # a τ sibling shares its state object
    life.enter(child, root)
    life.leave(root)  # the first copy is expanded: the sibling still queues
    assert model.dropped == []
    life.enter(grandchild, child)
    life.leave(child)  # deferred: root can still hand child back
    assert model.dropped == []
    life.leave(grandchild)  # its producer is gone: dropped at once
    assert model.dropped == [grandchild]
    life.leave(root)  # the deferred child goes with its producer
    assert model.dropped == [grandchild, child, root]


def test_a_deferred_state_queued_again_keeps_its_memo():
    model = _Recorder()
    life = MemoLifetime(model, depth_first=True)
    life.enter("root")
    life.enter("child", "root")
    life.leave("child")
    life.enter("child", "root")  # the producer's memo handed it back
    life.leave("root")
    assert model.dropped == ["root"]
    life.leave("child")
    assert model.dropped == ["root", "child"]
