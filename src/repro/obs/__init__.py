"""Observability for the exploration stack (DESIGN.md §14).

Four layers, each usable on its own:

* :mod:`repro.obs.trace` — a low-overhead structured **trace bus**:
  JSONL span/event records (run started, node expanded, race detected,
  view scheduled, prune, key-cache sample, worker job start/end)
  emitted behind ``--trace PATH`` / ``REPRO_TRACE``, with a sampling
  knob (``REPRO_TRACE_SAMPLE``) and a compiled-out fast path when
  disabled — the instrumented hot loops pay one ``is None`` check.
* :mod:`repro.obs.metrics` — the **metrics export**: ``--metrics
  PATH`` writes the command's footer totals (its merged ``EngineStats``
  record plus its own counts) once, as counters, gauges and timers, in
  JSON or Prometheus text.
* :mod:`repro.obs.progress` — **live progress** for parallel
  ``suite``/``fuzz``/``verify`` runs: per-job completion deltas
  streamed back over the runner's result pipe, rendered as a heartbeat
  line (jobs done, states/sec, ETA, per-worker imbalance).
* :mod:`repro.obs.ledger` — a **run ledger**: every ``run`` / ``suite``
  / ``fuzz`` / ``verify`` invocation appends one schema-versioned
  record (argv, seed, git rev, stats, verdict) to ``.repro/runs.jsonl``
  for longitudinal comparison via ``repro runs list|diff``.

:mod:`repro.obs.summarize` turns a trace file back into humans' terms
(phase breakdown, hot programs, race/prune hotspots by pc) and exports
Chrome trace-event JSON for Perfetto (``repro trace FILE``).
"""

from repro.obs.ledger import append_record, read_ledger
from repro.obs.trace import Tracer, disable, enable, parse_trace, tracer

__all__ = [
    "Tracer",
    "append_record",
    "disable",
    "enable",
    "parse_trace",
    "read_ledger",
    "tracer",
]
