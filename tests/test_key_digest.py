"""Cross-process key hashing (DESIGN.md §15).

Shard assignment routes every configuration through
``shard_of(key_digest_for(key), N)``, so the digest must be a pure
function of the key's *value* — identical in a forked worker, in a
spawned (fresh-interpreter) worker, and across interpreter runs with
different string-hash salts.  ``hash()`` guarantees none of that; these
tests pin that the stable encoding and blake2b digest do.
"""

import gc
import multiprocessing
import os
import pickle
import subprocess
import sys

import pytest

from repro.c11.compact import ChainNode
from repro.c11.state import C11State
from repro.engine.keys import key_digest, shard_of, stable_encode
from repro.engine.shard import key_digest_for
from repro.interp.canon import canonical_key
from repro.interp.explore import explore
from repro.interp.ra_model import RAMemoryModel
from repro.litmus.suite import ALL_TESTS


def _sb_run():
    test = ALL_TESTS[0]
    return explore(test.program, test.init, RAMemoryModel(),
                   max_events=test.max_events)


def _sb_digests():
    """Sorted hex digests of every key the SB exploration visits."""
    return sorted(key_digest_for(key).hex() for key in _sb_run().parents)


def test_stable_encode_is_injective_on_the_key_grammar():
    samples = [
        (),
        (0,),
        (1,),
        ("1",),  # str vs int
        (b"1",),  # bytes vs str
        ("",),
        (None,),
        ((),),  # nesting vs flat
        ((), ()),
        ("ab", "c"),
        ("a", "bc"),  # concatenation boundary
        (-1,),
        (frozenset({1, 2}),),
        (frozenset({(1, 2)}),),
    ]
    encodings = [stable_encode(s) for s in samples]
    assert len(set(encodings)) == len(samples), "encoding collision"
    # deterministic: same value, same bytes
    assert stable_encode(("x", 1, None)) == stable_encode(("x", 1, None))
    # ...with respect to *equality*: True == 1, so they must encode
    # equally (a digest split along a bool/int seam would route equal
    # keys to different shards)
    assert stable_encode((True,)) == stable_encode((1,))
    assert stable_encode((False,)) == stable_encode((0,))


def test_key_digest_and_shard_of_are_stable_and_in_range():
    key = ("prog", ("x", 1), ("y", 2))
    digest = key_digest(key)
    assert digest == key_digest(key)
    assert isinstance(digest, bytes) and len(digest) == 16
    for shards in range(1, 9):
        dest = shard_of(digest, shards)
        assert 0 <= dest < shards
        assert dest == shard_of(digest, shards)


def test_key_node_digest_is_value_faithful():
    """A key's digest is a function of its nodes' content: the key of a
    relation-only clone (keyed from scratch) digests equally, and
    distinct keys digest distinctly."""
    result = _sb_run()
    keys = [state_key for _program, state_key in result.parents]
    assert len({key_digest(k) for k in keys}) == len(keys)
    for config in result.terminal:
        state = config.state
        clone = C11State(state.events, state.sb, state.rf, state.mo)
        assert key_digest(canonical_key(clone)) == key_digest(
            canonical_key(state)
        )
    chain = next(n for n in keys[-1] if type(n) is ChainNode)
    assert stable_encode(chain)[:1] == b"c"
    assert stable_encode(chain)[5:] == stable_encode(chain.descriptions())


def test_key_digest_for_encodes_nodes_by_content():
    """Routing digests survive the nodes they were taken from: a key
    pickled, dropped with every node it names, and loaded again (its
    nodes interned afresh, as in another process) routes identically."""
    result = _sb_run()
    before = sorted(key_digest_for(key) for key in result.parents)
    blob = pickle.dumps(list(result.parents))
    del result
    gc.collect()
    after = sorted(key_digest_for(key) for key in pickle.loads(blob))
    assert after == before


def test_digests_identical_in_forked_worker():
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    proc = ctx.Process(target=lambda q: q.put(_sb_digests()), args=(queue,))
    proc.start()
    child = queue.get(timeout=60)
    proc.join(timeout=10)
    assert child == _sb_digests()


_FRESH_INTERPRETER = """
import sys
sys.path.insert(0, {src!r})
sys.path.insert(0, {tests!r})
from test_key_digest import _sb_digests
print("\\n".join(_sb_digests()))
"""


@pytest.mark.parametrize("hashseed", ["1", "2"])
def test_digests_identical_in_fresh_interpreter(hashseed):
    """Spawn-equivalent: a fresh interpreter with a *different* string
    hash salt must compute byte-identical digests (hash() would not)."""
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    script = _FRESH_INTERPRETER.format(src=src, tests=here)
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, check=True,
        capture_output=True, text=True, timeout=120,
    )
    assert out.stdout.split() == _sb_digests()
