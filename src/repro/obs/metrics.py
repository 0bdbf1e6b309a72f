"""The metrics export (DESIGN.md §14).

``--metrics PATH`` on ``run``/``suite``/``fuzz``/``verify`` writes the
command's footer totals — its merged
:meth:`~repro.engine.stats.EngineStats.counters` record plus the
command's own counts — once, after the command.  Nothing accumulates
between commands: the export reads only the totals it is handed.

Each total is classified by its name: ``peak_*`` and ``*_rate`` are
gauges, ``time_*`` and ``*_time`` timers (seconds), every other number
a counter; non-numbers (labels, paths, flags) are left out.  The
document is ``repro-metrics/1`` JSON with every metric under the
``cli`` prefix (``{"timers": {"cli": {"time_expand": 1.2, ...}}}``), or
Prometheus text exposition (``repro_cli_time_expand_seconds 1.2``)
when ``PATH`` ends in ``.prom``.
"""

from __future__ import annotations

import json
from typing import Dict, Mapping, Union

Number = Union[int, float]

#: Prometheus type of each family (timers are ``*_seconds`` counters).
_PROM_TYPES = {"counters": "counter", "gauges": "gauge", "timers": "counter"}


def _classify(totals: Mapping[str, object]) -> Dict[str, Dict[str, Number]]:
    """``family -> {name: value}`` over the numeric entries, sorted."""
    out: Dict[str, Dict[str, Number]] = {family: {} for family in _PROM_TYPES}
    for name, value in sorted(totals.items()):
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            continue
        if name.startswith("peak_") or name.endswith("_rate"):
            out["gauges"][name] = value
        elif name.startswith("time_") or name.endswith("_time"):
            out["timers"][name] = value
        else:
            out["counters"][name] = value
    return out


def export_to(path: str, totals: Mapping[str, object]) -> str:
    """Write ``totals`` to ``path``; ``.prom`` selects Prometheus text,
    anything else JSON.  Returns the format written."""
    families = _classify(totals)
    if path.endswith(".prom"):
        lines = []
        for family, metrics in families.items():
            suffix = "_seconds" if family == "timers" else ""
            for name, value in metrics.items():
                prom = f"repro_cli_{name}{suffix}"
                lines.append(f"# TYPE {prom} {_PROM_TYPES[family]}")
                lines.append(f"{prom} {value}")
        payload, fmt = "\n".join(lines) + "\n", "prometheus"
    else:
        doc = {"schema": "repro-metrics/1"}
        doc.update({family: {"cli": m} for family, m in families.items()})
        payload, fmt = json.dumps(doc, indent=2) + "\n", "json"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(payload)
    return fmt


__all__ = ["export_to"]
