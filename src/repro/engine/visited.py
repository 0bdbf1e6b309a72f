"""A visited-set that spills to disk under a memory budget (DESIGN.md §15).

The exploration engine's ``seen`` set holds one canonical configuration
key per distinct configuration, and on large runs those Python tuple
trees dominate the heap: a token-ring key deep-measures kilobytes while
its dense byte encoding (:func:`~repro.engine.keys.stable_encode`) is an
order of magnitude smaller.  :class:`SpillableVisitedSet` is a drop-in
for the plain set — ``in`` / ``add`` / ``len`` — that starts as one
(fast, hash-based) and, when a configurable entry or estimated-byte
budget is exceeded, converts wholesale to an on-disk hash-bucketed
store:

* every key is reduced to its canonical byte encoding and appended to
  one of ``buckets`` files selected by its blake2b digest
  (length-prefixed records, append-only — no in-place rewrites to
  corrupt);
* an in-memory *first-bytes filter* — a map from the 64-bit digest
  prefix of every stored key to the disk offsets of its records —
  answers the common "definitely new" case without touching disk;
* a filter hit is only a *maybe*: membership is confirmed by reading
  the exact record bytes back at the indexed offsets and comparing
  byte-for-byte, so a saturated filter can cost time but never a false
  "already visited" answer (the unsound direction for a model checker —
  a false positive would silently prune live configurations).  The
  index holds a fixed few dozen bytes per key; the encodings — the
  dominant cost the budget is about — live on disk only.

Because the encoding is injective with respect to key equality (see
``stable_encode``), byte comparison on disk decides exactly the same
membership question the in-memory set's ``==`` decides.

Both the single-process loop (``explore(..., spill_dir=...)``) and each
worker of the sharded explorer (:mod:`repro.engine.shard`) use this
class; sharded workers each own a disjoint key slice, so their stores
never share buckets.  Spill directories are created lazily, are private
to one exploration, and are removed by the owning explorer's
``finally`` — including when a worker crashed mid-run.
"""

from __future__ import annotations

import errno
import hashlib
import os
import secrets
import shutil
from typing import Callable, Dict, Optional

from repro.engine.keys import stable_encode


def key_digest_of(enc: bytes) -> bytes:
    """blake2b digest of an already-encoded key (the bucket/filter key)."""
    return hashlib.blake2b(enc, digest_size=16).digest()

#: Estimated in-memory bytes per *encoded* byte of a key.  Canonical
#: keys are deep trees of small tuples/strings/ints; measured against
#: ``sys.getsizeof`` deep-walks of token-ring and Peterson keys, the
#: Python object overhead multiplies the dense encoding by roughly this
#: factor (pointer-sized slots, per-object headers, the set's own hash
#: table).  The budget arithmetic uses it so ``max_bytes`` approximates
#: real heap footprint, not the (much smaller) encoded footprint.
MEM_OVERHEAD_FACTOR = 8

#: Flat per-entry bookkeeping estimate (set slot + key object header).
MEM_ENTRY_OVERHEAD = 120

#: Sample 1-in-N keys for the running mean encoded size while still in
#: the in-memory phase (encoding every key before any spill is in sight
#: would tax the common small run).
_SAMPLE_EVERY = 8


def program_token(program):
    """A process-stable, equality-faithful token for a program.

    Lowered programs are dense integer pc tuples over a table that is
    constant across one exploration, so ``pcs`` alone distinguishes
    them.
    """
    return ("L", program.pcs)


def encode_config_key(key) -> bytes:
    """Encode an engine ``ConfigKey = (program, state_key)`` densely.

    Raises ``TypeError`` for state keys outside the canonical key
    grammar (e.g. raw state objects under ``canonicalize=False``) — the
    engine refuses to combine those with spilling up front.
    """
    program, state_key = key
    return stable_encode((program_token(program), state_key))


class SpillableVisitedSet:
    """A set of keys, dict-backed until a budget, bucket files after.

    ``max_entries`` / ``max_bytes`` bound the in-memory phase (both
    optional; ``None`` = unbounded, i.e. never spill).  ``encode`` maps
    a key to its canonical bytes (defaults to
    :func:`~repro.engine.keys.stable_encode`; the engine passes
    :func:`encode_config_key`).  ``spill_dir`` is required whenever a
    budget is set — a budget with nowhere to spill would be a silent
    unbounded set.
    """

    def __init__(
        self,
        spill_dir: Optional[str] = None,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
        buckets: int = 64,
        encode: Callable[[object], bytes] = stable_encode,
    ) -> None:
        if (max_entries is not None or max_bytes is not None) and not spill_dir:
            raise ValueError(
                "a visited-set budget needs a spill_dir to overflow into"
            )
        self.spill_dir = spill_dir
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.buckets = max(1, int(buckets))
        self.encode = encode
        self._mem = set()
        self._count = 0
        self.spilled = False
        #: how many times the in-memory phase overflowed (0 or 1 per
        #: set; summed across shards by the stats merge)
        self.spills = 0
        #: keys written to disk so far (filter size)
        self.spilled_keys = 0
        #: confirmed-on-disk record reads a filter hit forced
        self.filter_scans = 0
        #: spill attempts that failed (ENOSPC and kin) and were
        #: absorbed by staying in memory (DESIGN.md §16)
        self.spill_failures = 0
        self._spill_disabled = False
        #: 64-bit digest prefix -> (bucket, payload offset, length) of
        #: every stored record; a prefix collision chains into a list
        self._filter: Dict[int, object] = {}
        self._handles: Dict[int, object] = {}
        self._readers: Dict[int, object] = {}
        self._sizes: Dict[int, int] = {}
        #: the engine probes ``in`` and then ``add``s the same key
        #: object; a one-slot memo spares the second encode
        self._last_key = None
        self._last_enc: Optional[bytes] = None
        self._enc_total = 0
        self._enc_samples = 0
        self._closed = False

    # -- budget arithmetic ---------------------------------------------

    @property
    def estimated_bytes(self) -> int:
        """Estimated heap footprint of the in-memory phase."""
        if self._enc_samples:
            mean_enc = self._enc_total / self._enc_samples
        else:
            mean_enc = 0.0
        return int(
            self._count * (mean_enc * MEM_OVERHEAD_FACTOR + MEM_ENTRY_OVERHEAD)
        )

    def _over_budget(self) -> bool:
        if self._spill_disabled:
            return False
        if self.max_entries is not None and self._count > self.max_entries:
            return True
        if self.max_bytes is not None and self.estimated_bytes > self.max_bytes:
            return True
        return False

    # -- set protocol ---------------------------------------------------

    def __len__(self) -> int:
        return self._count

    def _enc_of(self, key) -> bytes:
        if self._last_key is key:
            return self._last_enc
        enc = self.encode(key)
        self._last_key = key
        self._last_enc = enc
        return enc

    def __contains__(self, key) -> bool:
        if not self.spilled:
            return key in self._mem
        return self._contains_spilled(self._enc_of(key))

    def add(self, key) -> bool:
        """Insert ``key``; returns True when it was new."""
        if not self.spilled:
            before = len(self._mem)
            self._mem.add(key)
            if len(self._mem) == before:
                return False
            self._count += 1
            if self._count % _SAMPLE_EVERY == 1:
                self._enc_total += len(self.encode(key))
                self._enc_samples += 1
            if self._over_budget():
                self._spill()
            return True
        enc = self._enc_of(key)
        if self._contains_spilled(enc):
            return False
        self._append(enc)
        self._count += 1
        return True

    # -- the disk phase -------------------------------------------------

    def _bucket_of(self, digest: bytes) -> int:
        return digest[0] % self.buckets

    def _bucket_path(self, bucket: int) -> str:
        return os.path.join(self.spill_dir, f"bucket-{bucket:03d}.bin")

    def _prefix(self, digest: bytes) -> int:
        return int.from_bytes(digest[8:16], "big")

    def _append(self, enc: bytes) -> None:
        digest = key_digest_of(enc)
        bucket = self._bucket_of(digest)
        handle = self._handles.get(bucket)
        if handle is None:
            handle = open(self._bucket_path(bucket), "ab")
            self._handles[bucket] = handle
        offset = self._sizes.get(bucket, 0)
        handle.write(len(enc).to_bytes(4, "big") + enc)
        self._sizes[bucket] = offset + 4 + len(enc)
        self._index(digest, (bucket, offset + 4, len(enc)))
        self.spilled_keys += 1

    def _index(self, digest: bytes, entry) -> None:
        prefix = self._prefix(digest)
        prior = self._filter.get(prefix)
        if prior is None:
            self._filter[prefix] = entry
        elif isinstance(prior, list):
            prior.append(entry)
        else:
            self._filter[prefix] = [prior, entry]

    def _record_matches(self, entry, enc: bytes) -> bool:
        """Read one indexed record back and compare it byte-for-byte."""
        bucket, offset, length = entry
        if length != len(enc):
            return False
        handle = self._handles.get(bucket)
        if handle is not None:
            handle.flush()
        reader = self._readers.get(bucket)
        if reader is None:
            path = self._bucket_path(bucket)
            if not os.path.exists(path):
                return False
            reader = open(path, "rb")
            self._readers[bucket] = reader
        reader.seek(offset)
        return reader.read(length) == enc

    def _contains_spilled(self, enc: bytes) -> bool:
        digest = key_digest_of(enc)
        candidates = self._filter.get(self._prefix(digest))
        if candidates is None:
            return False
        # Filter hit: confirm against the exact record bytes on disk —
        # never answer "visited" from the (collision-prone) filter alone.
        self.filter_scans += 1
        if not isinstance(candidates, list):
            return self._record_matches(candidates, enc)
        return any(self._record_matches(entry, enc) for entry in candidates)

    def _spill(self) -> None:
        """Convert the in-memory phase to the on-disk store wholesale.

        A failed spill (ENOSPC, a vanished directory, an injected fault
        from :mod:`repro.faults`) is absorbed, never propagated: the
        in-memory set is restored wholesale, spilling is disabled for
        the rest of the run, and the search continues over budget but
        *correct* — a visited set that loses keys would silently prune
        live configurations.  The failure is counted in
        ``spill_failures`` (surfaced through ``EngineStats``).
        """
        mem = self._mem
        try:
            from repro.faults import active_plan

            plan = active_plan()
            if plan is not None and plan.spill_write_fails():
                raise OSError(errno.ENOSPC, "injected ENOSPC on spill write")
            os.makedirs(self.spill_dir, exist_ok=True)
            self.spilled = True
            self.spills += 1
            self._mem = set()
            for key in mem:
                self._append(self.encode(key))
        except OSError:
            self._mem = mem
            self.spilled = False
            self.spills = max(0, self.spills - 1)
            self.spilled_keys = 0
            self._filter.clear()
            for handle in (*self._handles.values(), *self._readers.values()):
                try:
                    handle.close()
                except OSError:
                    pass
            self._handles.clear()
            self._readers.clear()
            self._sizes.clear()
            self._spill_disabled = True
            self.spill_failures += 1

    # -- checkpoint images (DESIGN.md §16) ------------------------------

    def snapshot(self) -> dict:
        """A checkpointable image of the store's entire contents.

        The in-memory phase snapshots as its key set; the disk phase as
        the raw bucket files — the same length-prefixed
        ``stable_encode`` records, byte-for-byte — so a restored store
        answers every membership query identically.
        """
        for handle in self._handles.values():
            handle.flush()
        buckets: Dict[int, bytes] = {}
        if self.spilled:
            for bucket in range(self.buckets):
                path = self._bucket_path(bucket)
                if os.path.exists(path):
                    with open(path, "rb") as handle:
                        buckets[bucket] = handle.read()
        return {
            "mem": set(self._mem),
            "count": self._count,
            "spilled": self.spilled,
            "spills": self.spills,
            "spill_failures": self.spill_failures,
            "spill_disabled": self._spill_disabled,
            "buckets": buckets,
        }

    def restore(self, snap: dict) -> None:
        """Rebuild contents from a :meth:`snapshot` image (fresh store).

        Bucket bytes are written back verbatim and the first-bytes
        filter is rebuilt by scanning the records — the restored store
        is indistinguishable from the one that was snapshotted.
        """
        if self._count or self.spilled:
            raise ValueError("restore() requires a fresh, empty store")
        self._mem = set(snap["mem"])
        self._count = snap["count"]
        self.spills = snap["spills"]
        self.spill_failures = snap.get("spill_failures", 0)
        self._spill_disabled = snap.get("spill_disabled", False)
        if snap["spilled"]:
            os.makedirs(self.spill_dir, exist_ok=True)
            self.spilled = True
            for bucket, blob in snap["buckets"].items():
                with open(self._bucket_path(bucket), "wb") as handle:
                    handle.write(blob)
                offset, end = 0, len(blob)
                while offset < end:
                    length = int.from_bytes(blob[offset:offset + 4], "big")
                    enc = blob[offset + 4:offset + 4 + length]
                    self._index(key_digest_of(enc), (bucket, offset + 4, length))
                    self.spilled_keys += 1
                    offset += 4 + length
                self._sizes[bucket] = end

    # -- lifecycle ------------------------------------------------------

    def close(self, remove: bool = True) -> None:
        """Flush and close bucket handles; ``remove`` deletes the store.

        Idempotent — the engine calls it from ``finally`` blocks, so a
        crash-path second call must not raise.
        """
        if self._closed:
            return
        self._closed = True
        for handle in (*self._handles.values(), *self._readers.values()):
            try:
                handle.close()
            except OSError:
                pass
        self._handles.clear()
        self._readers.clear()
        if remove and self.spill_dir and os.path.isdir(self.spill_dir):
            shutil.rmtree(self.spill_dir, ignore_errors=True)

    def __enter__(self) -> "SpillableVisitedSet":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def claim_run_dir(base: str) -> str:
    """Claim a private spill subdirectory under a *shared* base.

    ``--spill-dir`` points several concurrent runs at one directory;
    bucket files are append-only, so two stores sharing them would
    silently interleave records and corrupt each other's membership
    answers.  Each run therefore claims ``base/run-<pid>-<token>`` and
    spills inside it.  A ``pid`` marker identifies the owner; on every
    claim, sibling ``run-*`` directories whose recorded pid is no
    longer alive are reaped — a crashed run's leftovers do not
    accumulate.  Directories of live pids (and unreadable markers, e.g.
    a sibling mid-creation) are left alone.
    """
    os.makedirs(base, exist_ok=True)
    for entry in os.listdir(base):
        if not entry.startswith("run-"):
            continue
        path = os.path.join(base, entry)
        try:
            with open(os.path.join(path, "pid"), "r", encoding="ascii") as h:
                pid = int(h.read().strip())
        except (OSError, ValueError):
            continue
        if pid == os.getpid():
            continue
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            shutil.rmtree(path, ignore_errors=True)
        except OSError:
            continue
    path = os.path.join(base, f"run-{os.getpid()}-{secrets.token_hex(4)}")
    os.makedirs(path)
    with open(os.path.join(path, "pid"), "w", encoding="ascii") as h:
        h.write(str(os.getpid()))
    return path


__all__ = [
    "MEM_ENTRY_OVERHEAD",
    "MEM_OVERHEAD_FACTOR",
    "SpillableVisitedSet",
    "claim_run_dir",
    "encode_config_key",
    "key_digest_of",
    "program_token",
]
