"""The canonical-key memoization layer (DESIGN.md §4).

Canonical keys are the single most expensive pure function on the
exploration hot path (an ``O(n log n)`` renaming of every event, plus
sorted ``rf``/``mo`` encodings), and the seed code recomputed them
freely: once when a state was discovered by ``explore``, again when
``reachable_states``' ``check_config`` hook recorded the same state,
and again in the completeness/soundness checkers.  This module makes
every canonical key a compute-once value:

* :func:`cached_canonical_key` stores the key on the state object
  itself (the ``_canon_key`` slot of :class:`~repro.c11.state.C11State`
  and :class:`~repro.c11.prestate.PreExecutionState`) so that any later
  keying of the same object is a dictionary-free attribute read;
* the process-wide :data:`KEY_CACHE` counts hits and misses, which the
  engine snapshots per run into
  :class:`~repro.engine.stats.EngineStats`.

All canonical-key consumers (the RA/SRA/PE models'
``canonical_state_key``, and through them ``explore``,
``reachable_states`` and the checking package) route through here.
States without a ``_canon_key`` slot (hand-assembled test fixtures,
foreign state types) fall back to a plain computation and are counted
as ``uncached``.
"""

from __future__ import annotations

import hashlib
from typing import Hashable


class KeyCacheStats:
    """Process-wide canonical-key cache counters."""

    __slots__ = ("hits", "misses", "uncached")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.uncached = 0

    def snapshot(self) -> tuple:
        return (self.hits, self.misses, self.uncached)

    def __repr__(self) -> str:
        return (
            f"KeyCacheStats(hits={self.hits}, misses={self.misses}, "
            f"uncached={self.uncached})"
        )


#: The one cache-counter instance of this process.  Workers of the
#: parallel runner each get their own copy (fork/spawn isolation).
KEY_CACHE = KeyCacheStats()

# Lazily-bound import-cycle breakers (see _modules).
_compact_mod = None
_canon_mod = None


def cached_canonical_key(state) -> Hashable:
    """``canonical_key(state)``, computed at most once per state object.

    The canonical key of a state never changes (states are immutable
    value objects), so the first computation is stored on the object and
    every further call is a cache hit.  Note the cache is per *object*:
    two differently-tagged states with the same canonical key each pay
    one computation — collapsing those is exactly what the explorer's
    ``seen`` set does with the returned keys.
    """
    try:
        cached = state._canon_key
    except AttributeError:
        KEY_CACHE.uncached += 1
        return _modules()[1].canonical_key(state)
    if cached is not None:  # the hit path touches nothing else
        KEY_CACHE.hits += 1
        return cached
    KEY_CACHE.misses += 1
    compact, canon = _modules()
    key = canon.canonical_key(state)
    if type(key) is tuple:
        # Pre-hash the nested structure once; every seen-set/parent-map
        # operation on the key reuses it (DESIGN.md §11).
        key = compact.CachedKey(key)
    state._canon_key = key
    return key


def _modules():
    """``(repro.c11.compact, repro.interp.canon)``, imported at first use.

    repro.interp transitively imports this module (via the memory
    models), so a module-level import here would close an import cycle.
    The *modules* are memoized in globals (the import machinery's
    fromlist handling is measurable at once-per-configuration rates) but
    their attributes are looked up per call, so monkeypatched
    instrumentation still takes effect.
    """
    global _compact_mod, _canon_mod
    if _canon_mod is None:
        from repro.c11 import compact as _compact_mod
        from repro.interp import canon as _canon_mod
    return _compact_mod, _canon_mod


# ----------------------------------------------------------------------
# Stable cross-process digests (DESIGN.md §15)
# ----------------------------------------------------------------------
#
# ``hash()`` over canonical keys is salted per process (strings), so it
# can never decide which shard owns a configuration: two workers would
# disagree about every key.  ``stable_encode`` maps the key structures
# the engine produces — nested tuples of str/int/None, plus frozensets
# and bytes for robustness — to a canonical byte string that is
# *injective with respect to equality* (equal keys encode equally,
# distinct keys distinctly), and ``key_digest`` hashes that encoding
# with blake2b.

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
    else:
        parts = getattr(obj, "parts", None)
        if parts is not None and type(obj).__name__ == "CachedKey":
            _encode_into(parts, out)
        else:
            raise TypeError(
                "stable_encode: unsupported key component "
                f"{type(obj).__name__!r}"
            )


def stable_encode(obj) -> bytes:
    """A canonical, process-independent byte encoding of a key.

    Every encoding is self-delimiting (tag byte + 4-byte length +
    payload), so concatenations inside containers stay injective.
    :class:`~repro.c11.compact.CachedKey` encodes as its raw parts —
    matching its ``__eq__``, which is transparent against plain tuples.
    Unsupported types raise ``TypeError``: a silent fallback (pickle,
    repr) could depend on process state and corrupt shard routing.
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
