"""Checkpoint/resume for the exploration engine (DESIGN.md §16).

A checkpoint is the *complete* loop state of a paused search — frontier
(in exact pop order), parent map (which is the visited set) and
:class:`~repro.engine.stats.EngineStats`, which holds the counts so far —
written as one
atomic, versioned file.  Because the engine's searches are deterministic
functions of that loop state, a resumed run replays the remaining
search exactly: configs, transitions, terminal outcome sets and
counterexamples are byte-identical to the uninterrupted run (pinned by
the kill-and-resume parity tests in ``tests/test_checkpoint.py``).

File format (``repro-ckpt/6``)::

    b"repro-ckpt/6\\n"  +  pickle({"fingerprint": ..., "payload": ...})

* The **fingerprint** identifies the run the state belongs to: a digest
  of the program source, the model name, the bounds, strategy,
  reduction, state equivalence (always ``"shasha-snir"``) and shard
  count.  Resuming checks every field and refuses a mismatch —
  resuming Peterson's frontier into a litmus test would otherwise fail
  in silently wrong ways.
* The **payload** is algorithm-tagged loop state (``"plain"`` for the
  unreduced loop, ``"shard"`` for the bulk-synchronous sharded search,
  one entry per shard core).  Keys
  and configurations travel by pickle — safe because every cached hash
  in the object graph (``Program``, lowered programs) rebuilds on
  unpickle rather than shipping its process-salted value, and a key's
  hash-consed nodes (``repro.c11.compact.KeyNode``) pickle as their
  content and are interned again on load, so a resumed key is the
  live node its re-derived successors will share.
  No payload holds a transition: parents are ``(parent key, tid)``
  pairs and traces are replayed (DESIGN.md §5).  No payload holds a
  separate visited set either: every loop's visited set is its parent
  map, so the parent map's keys are the visited image.  Version 2
  replaced version 1 when parents stopped carrying steps; version 3
  replaced version 2 when payloads stopped carrying a ``"seen"`` image
  beside the parent map; version 4 replaced version 3 when the pickled
  ``CompactOrders`` of frontier states lost its slot for writes not
  yet placed in ``mo``; version 5 replaced version 4 when keys became
  tuples of hash-consed nodes; version 6 replaced version 5 when the
  unreduced loop's counts moved into its ``EngineStats`` (a version 5
  record would resume them from 0).  A file of another version is refused by
  name.

Writes go to a temporary file in the target directory followed by
``os.replace`` — a crash mid-checkpoint leaves the previous checkpoint
intact, never a torn file.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from typing import Optional, Tuple

MAGIC = b"repro-ckpt/6\n"
SCHEMA_NAME = "repro-ckpt/6"


class CheckpointError(RuntimeError):
    """A checkpoint file is unreadable, foreign, or mismatched."""


def _program_text(program) -> str:
    """The structural identity of a program: its source, whatever
    machine state the lowered form is in."""
    from repro.interp.compiled import maybe_lower

    return repr(maybe_lower(program).table.source.threads)


def run_fingerprint(
    program,
    init_values,
    model,
    *,
    max_events,
    max_configs,
    strategy: str,
    reduction: str,
    canonicalize: bool,
    shards: int,
    equivalence: str = "shasha-snir",
) -> dict:
    """The identity a checkpoint must match to be resumable.

    Everything that shapes the visited *set* or the visit *order* is
    included; resource configuration (process mode, checkpoint cadence)
    is deliberately not — a run may legitimately resume with different
    resources.

    Every search keys its visited store by the canonical Shasha–Snir
    key, so ``equivalence`` accepts only ``"shasha-snir"``; the
    fingerprint still records it, which keeps snapshots written when
    the key was selectable resumable.
    """
    if equivalence != "shasha-snir":
        raise ValueError(
            f"unknown equivalence {equivalence!r}; every search keys "
            "configurations by the canonical 'shasha-snir' key"
        )
    program_digest = hashlib.blake2b(
        _program_text(program).encode("utf-8"), digest_size=16
    ).hexdigest()
    init_digest = hashlib.blake2b(
        repr(sorted((str(k), v) for k, v in init_values.items())).encode("utf-8"),
        digest_size=16,
    ).hexdigest()
    return {
        "schema": SCHEMA_NAME,
        "program": program_digest,
        "init_values": init_digest,
        "model": getattr(model, "name", type(model).__name__),
        "max_events": max_events,
        "max_configs": max_configs,
        "strategy": strategy,
        "reduction": reduction,
        "equivalence": equivalence,
        "canonicalize": canonicalize,
        "shards": shards,
    }


def write_checkpoint(path: str, fingerprint: dict, payload: dict) -> None:
    """Atomically write one checkpoint file (write-temp + rename)."""
    blob = MAGIC + pickle.dumps(
        {"fingerprint": fingerprint, "payload": payload},
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(
        directory, f".{os.path.basename(path)}.tmp-{os.getpid()}"
    )
    try:
        with open(tmp, "wb") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            try:
                os.unlink(tmp)
            except OSError:
                pass


def read_checkpoint(
    path: str, expect: Optional[dict] = None
) -> Tuple[dict, dict]:
    """Load ``(fingerprint, payload)``; verify ``expect`` if given.

    Raises :class:`CheckpointError` on a missing/foreign/torn file or
    on any fingerprint field that disagrees with the resuming run's.
    """
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from exc
    if not blob.startswith(MAGIC):
        header = blob.split(b"\n", 1)[0].decode("ascii", "replace")
        if header.startswith("repro-ckpt/") and header != SCHEMA_NAME:
            raise CheckpointError(
                f"{path!r} is a {header} checkpoint; this version reads "
                f"{SCHEMA_NAME} only (its loop state has a different "
                "shape) — take a fresh snapshot"
            )
        raise CheckpointError(
            f"{path!r} is not a {SCHEMA_NAME} checkpoint "
            "(bad magic; wrong file or torn write)"
        )
    try:
        document = pickle.loads(blob[len(MAGIC):])
        fingerprint = document["fingerprint"]
        payload = document["payload"]
    except Exception as exc:
        raise CheckpointError(
            f"checkpoint {path!r} is corrupt: {exc}"
        ) from exc
    if expect is not None:
        mismatched = [
            f"{field}: checkpoint={fingerprint.get(field)!r} "
            f"run={value!r}"
            for field, value in expect.items()
            if fingerprint.get(field) != value
        ]
        if mismatched:
            raise CheckpointError(
                f"checkpoint {path!r} belongs to a different run — "
                + "; ".join(mismatched)
            )
    return fingerprint, payload


__all__ = [
    "MAGIC",
    "SCHEMA_NAME",
    "CheckpointError",
    "run_fingerprint",
    "write_checkpoint",
    "read_checkpoint",
]
