"""Persistence and replay of fuzz-discovered divergences.

Every divergence a campaign finds is written under ``tests/fuzz_corpus/``
as an ordinary ``.litmus`` file with a provenance comment header; the
pytest suite (``tests/test_fuzz_corpus.py``) globs the directory and
re-runs the oracles on every entry, so a once-found divergence is pinned
forever as a regression test.  Entries are plain text on purpose: they
can be replayed standalone with ``python -m repro run FILE`` or edited
by hand like any other litmus test.
"""

from __future__ import annotations

import os
from typing import List, Optional, Tuple

from repro.lang.parser import ParsedLitmus, parse_litmus

from repro.fuzz.generator import GeneratedCase, program_event_bound
from repro.fuzz.oracles import OracleReport, check_program
from repro.fuzz.runner import DivergenceRecord

#: where campaigns persist reproducers, relative to the repo root
DEFAULT_CORPUS_DIR = os.path.join("tests", "fuzz_corpus")

#: loop iterations assumed when bounding replayed (hand-editable) entries
REPLAY_LOOP_ITERS = 4


def write_corpus_entry(directory: str, record: DivergenceRecord) -> str:
    """Persist one divergence as ``<name>.litmus``; returns the path."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{record.name}.litmus")
    header = [
        "# repro-fuzz reproducer (auto-generated; replayed by "
        "tests/test_fuzz_corpus.py)",
        f"# kind: {record.kind}",
        f"# seed: {record.seed}  index: {record.index}  "
        f"profile: {record.profile}",
        f"# detail: {record.detail}",
    ]
    if record.history:
        header.append(f"# shrink: {'; '.join(record.history)}")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(header) + "\n" + record.shrunk)
    return path


def save_campaign(directory: str, records: List[DivergenceRecord]) -> List[str]:
    """Persist every record that carries a program (space-level and
    worker-crash records have none); returns the paths written."""
    return [
        write_corpus_entry(directory, record)
        for record in records
        if record.shrunk
    ]


def load_corpus(directory: str = DEFAULT_CORPUS_DIR) -> List[Tuple[str, ParsedLitmus]]:
    """Parse every ``.litmus`` entry in ``directory`` (sorted by name)."""
    if not os.path.isdir(directory):
        return []
    entries = []
    for filename in sorted(os.listdir(directory)):
        if not filename.endswith(".litmus"):
            continue
        path = os.path.join(directory, filename)
        with open(path, "r", encoding="utf-8") as handle:
            entries.append((path, parse_litmus(handle.read())))
    return entries


def case_from_parsed(parsed: ParsedLitmus) -> GeneratedCase:
    """Lift a parsed corpus entry back into an oracle-runnable case."""
    return GeneratedCase(
        name=parsed.name,
        program=parsed.program,
        init=dict(parsed.init),
        events_hint=program_event_bound(
            parsed.program, loop_iters=REPLAY_LOOP_ITERS
        ),
        profile="corpus",
    )


def replay_entry(
    parsed: ParsedLitmus, max_configs: Optional[int] = None,
) -> OracleReport:
    """Re-run the per-program oracles on a corpus entry (the footprint
    spaces are independent of the entry, so replay never judges them)."""
    kwargs = {} if max_configs is None else {"max_configs": max_configs}
    return check_program(case_from_parsed(parsed), **kwargs)


__all__ = [
    "DEFAULT_CORPUS_DIR",
    "case_from_parsed",
    "load_corpus",
    "replay_entry",
    "save_campaign",
    "write_corpus_entry",
]
