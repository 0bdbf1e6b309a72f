"""Machine-readable benchmark output (``--bench-json PATH``).

The experiment benchmarks historically printed human tables only, so
the perf trajectory of the repo was anecdotal.  This helper gives every
benchmark a place to drop structured records: tests take the
``bench_json`` fixture (see ``conftest.py``) and call
:meth:`BenchRecorder.record`; when the session was started with
``--bench-json PATH`` the collected records are written to ``PATH`` as
one JSON document at session end (CI uploads
``BENCH_e4_peterson.json`` / ``BENCH_e8_scalability.json`` as workflow
artifacts).  Without the flag, recording is a no-op, so the same tests
run unchanged in quick smokes.

The document shape is deliberately flat and diff-friendly::

    {
      "schema": "repro-bench/1",
      "records": {
        "<record name>": {...arbitrary JSON payload...},
        ...
      }
    }
"""

from __future__ import annotations

import json
from typing import Dict, Optional

SCHEMA = "repro-bench/1"


class BenchRecorder:
    """Collects named benchmark records and writes them once."""

    def __init__(self, path: Optional[str] = None):
        self.path = path
        self.records: Dict[str, dict] = {}

    def record(self, name: str, payload: dict) -> None:
        """Add (or overwrite) one named record."""
        self.records[name] = payload

    def write(self) -> Optional[str]:
        """Write the document to ``path``; returns the path written, or
        ``None`` when no path was configured or nothing was recorded."""
        if not self.path or not self.records:
            return None
        document = {"schema": SCHEMA, "records": self.records}
        with open(self.path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        return self.path


def engine_stats_payload(stats) -> dict:
    """A JSON-friendly dump of an :class:`~repro.engine.stats.EngineStats`."""
    return {
        "strategy": stats.strategy,
        "reduction": stats.reduction,
        "peak_frontier": stats.peak_frontier,
        "key_hits": stats.key_hits,
        "key_misses": stats.key_misses,
        "time_total_s": stats.time_total,
        "expanded": stats.expanded,
        "pruned": stats.pruned,
        "sleep_hits": stats.sleep_hits,
        "races": stats.races,
        "revisits": stats.revisits,
        "reduction_ratio": stats.reduction_ratio,
    }


__all__ = ["BenchRecorder", "SCHEMA", "engine_stats_payload"]
