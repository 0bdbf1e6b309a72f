"""The canonical-key memoization layer (DESIGN.md §4).

A canonical key is a flat tuple of hash-consed nodes
(:class:`~repro.c11.compact.KeyNode`): one event chain per thread, one
``mo`` sequence per variable.  Successors derive theirs from their
parent's in O(1) (``C11State.successor``,
``PreExecutionState.add_event``); a state keyed any other way — the
initial state, a hand-assembled fixture, a state that crossed a process
without its key — pays one from-scratch derivation
(:func:`repro.interp.canon.canonical_key`), and this module makes that a
compute-once value:

* :func:`cached_canonical_key` stores the key on the state object
  itself (the ``_canon_key`` slot of :class:`~repro.c11.state.C11State`
  and :class:`~repro.c11.prestate.PreExecutionState`) so that any later
  keying of the same object is a dictionary-free attribute read;
* the process-wide :data:`repro.counters.COUNTERS` record counts hits
  and misses, which the engine charges per run to
  :class:`~repro.engine.stats.EngineStats`.

All canonical-key consumers (the RA/SRA/PE models'
``canonical_state_key``, and through them ``explore``,
``reachable_states`` and the checking package) route through here.
States without a ``_canon_key`` slot (foreign state types) fall back to
a plain computation, which is not counted.

:func:`stable_encode` gives keys a process-independent byte encoding,
nodes by their content, for digests that must agree across processes.
"""

from __future__ import annotations

import hashlib
from typing import Hashable

from repro.c11.compact import ChainNode, SeqNode
from repro.counters import COUNTERS


# Lazily-bound import-cycle breaker (see _canon).
_canon_mod = None


def cached_canonical_key(state) -> Hashable:
    """``canonical_key(state)``, computed at most once per state object.

    The canonical key of a state never changes (states are immutable
    value objects), so the first computation — or the key a successor
    constructor derived from its parent's — is stored on the object and
    every further call is a cache hit.  Two differently-tagged states
    with the same canonical key get the same (interned) key, which is
    what the explorer's ``seen`` set collapses.
    """
    try:
        cached = state._canon_key
    except AttributeError:
        return _canon().canonical_key(state)
    if cached is not None:  # the hit path touches nothing else
        COUNTERS.key_hits += 1
        return cached
    COUNTERS.key_misses += 1
    key = state._canon_key = _canon().canonical_key(state)
    return key


def _canon():
    """:mod:`repro.interp.canon`, imported at first use.

    repro.interp transitively imports this module (via the memory
    models), so a module-level import here would close an import cycle.
    The *module* is memoized in a global (the import machinery's
    fromlist handling is measurable at once-per-configuration rates) but
    its attributes are looked up per call, so monkeypatched
    instrumentation still takes effect.
    """
    global _canon_mod
    if _canon_mod is None:
        from repro.interp import canon as _canon_mod
    return _canon_mod


# ----------------------------------------------------------------------
# Stable cross-process digests (DESIGN.md §15)
# ----------------------------------------------------------------------
#
# ``hash()`` over canonical keys is salted per process (strings) and,
# for key nodes, is their address, so it can never decide which shard
# owns a configuration: two workers would disagree about every key.
# ``stable_encode`` maps the key structures the engine produces — tuples
# of key nodes, nested tuples of str/int/None, plus frozensets and bytes
# for robustness — to a canonical byte string that is *injective with
# respect to equality* (equal keys encode equally, distinct keys
# distinctly), and ``key_digest`` hashes that encoding with blake2b.

#: bool must encode as int: ``True == 1`` in Python, and the in-memory
#: visited set merges them — the byte encoding has to agree.
_INT_TAG = b"i"


def _enc_int(obj) -> bytes:
    payload = str(int(obj)).encode("ascii")
    return _INT_TAG + len(payload).to_bytes(4, "big") + payload


def _enc_str(obj) -> bytes:
    payload = obj.encode("utf-8")
    return b"s" + len(payload).to_bytes(4, "big") + payload


#: Small ints and short strings recur thousands of times per key
#: (program counters, values, tids, location/mode names); their
#: encodings are immutable bytes, so memoizing them trims the hot path
#: without changing a single output byte.
_INT_CACHE = {i: _enc_int(i) for i in range(-16, 257)}
_STR_CACHE: dict = {}
_STR_CACHE_MAX = 4096

_TUPLE_HEADER = b"t\x00\x00\x00\x00"
_NONE_ENC = b"N" + (0).to_bytes(4, "big")


def _encode_into(obj, out: bytearray) -> None:
    """Append the canonical encoding of ``obj`` to ``out``.

    Containers reserve their 4-byte length field up front and backpatch
    it once the payload is written — one pass, no intermediate joins.
    """
    kind = type(obj)
    if kind is tuple:
        out += _TUPLE_HEADER
        at = len(out) - 4
        # leaves are inlined: a token-ring key is ~200 nodes, most of
        # them small ints and short strings, and the call overhead of
        # recursing per leaf dominates the encode
        int_cache = _INT_CACHE
        str_cache = _STR_CACHE
        for item in obj:
            k = type(item)
            if k is int or k is bool:
                cached = int_cache.get(item)
                out += cached if cached is not None else _enc_int(item)
            elif k is str:
                cached = str_cache.get(item)
                if cached is None:
                    cached = _enc_str(item)
                    if len(str_cache) < _STR_CACHE_MAX:
                        str_cache[item] = cached
                out += cached
            elif item is None:
                out += _NONE_ENC
            else:
                _encode_into(item, out)
        out[at:at + 4] = (len(out) - at - 4).to_bytes(4, "big")
    elif kind is int or kind is bool:
        cached = _INT_CACHE.get(obj)
        out += cached if cached is not None else _enc_int(obj)
    elif kind is str:
        cached = _STR_CACHE.get(obj)
        if cached is None:
            cached = _enc_str(obj)
            if len(_STR_CACHE) < _STR_CACHE_MAX:
                _STR_CACHE[obj] = cached
        out += cached
    elif obj is None:
        out += _NONE_ENC
    elif kind is bytes:
        out += b"b" + len(obj).to_bytes(4, "big") + obj
    elif kind is frozenset:
        # Canonical element order: sort by encoded bytes (elements of a
        # set the engine builds need not be mutually orderable, bytes
        # are).
        out += b"f\x00\x00\x00\x00"
        at = len(out) - 4
        for enc in sorted(stable_encode(item) for item in obj):
            out += enc
        out[at:at + 4] = (len(out) - at - 4).to_bytes(4, "big")
    elif kind is ChainNode or kind is SeqNode:
        # A node by its content: a chain as its descriptions, root
        # first (a loop, not one recursion level per event).
        out += b"c" if kind is ChainNode else b"q"
        out += b"\x00\x00\x00\x00"
        at = len(out) - 4
        _encode_into(
            obj.descriptions() if kind is ChainNode else obj.content, out
        )
        out[at:at + 4] = (len(out) - at - 4).to_bytes(4, "big")
    else:
        raise TypeError(
            "stable_encode: unsupported key component "
            f"{type(obj).__name__!r}"
        )


def stable_encode(obj) -> bytes:
    """A canonical, process-independent byte encoding of a key.

    Every encoding is self-delimiting (tag byte + 4-byte length +
    payload), so concatenations inside containers stay injective.  A
    key node encodes as its content (a chain as its descriptions), so
    equal nodes — which are one object in each process — encode
    equally in every process.  Unsupported types raise ``TypeError``:
    a silent fallback (pickle, repr) could depend on process state and
    corrupt shard routing.
    """
    out = bytearray()
    _encode_into(obj, out)
    return bytes(out)


def key_digest(key) -> bytes:
    """A 16-byte digest of ``key``, stable across processes and runs.

    This — not ``hash()`` — is what shard assignment routes through:
    Python string hashing is ``PYTHONHASHSEED``-salted, so the builtin
    hash of the same canonical key differs between the worker processes
    of one sharded exploration.  blake2b over :func:`stable_encode` is
    deterministic everywhere, including across fork/spawn start methods
    (pinned by the spawn-vs-fork test in ``tests/test_key_digest.py``).
    """
    return hashlib.blake2b(stable_encode(key), digest_size=16).digest()


def shard_of(digest: bytes, shards: int) -> int:
    """The shard owning a key with ``digest`` (mod-N over the prefix)."""
    return int.from_bytes(digest[:8], "big") % shards
