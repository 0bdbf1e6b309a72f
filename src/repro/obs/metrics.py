"""The metrics registry (DESIGN.md §14).

Generalises the ad-hoc process-wide accumulators the engine grew
organically — :data:`repro.c11.compact.ORDER_TIMER` and
:data:`repro.interp.memory_model.MODEL_TIMER` — into one registry of
*named* instruments:

* :class:`Counter` — monotonically increasing totals (configs
  explored, races detected);
* :class:`Gauge` — last-written values (peak frontier, spin score);
* :class:`SpanTimer` — accumulated seconds with hierarchical
  slash-separated names (``engine/expand``, ``engine/expand/model``)
  and a context-manager ``time()`` for ad-hoc spans.

The two legacy timers stay where they are — their ``.seconds +=``
increments are on the exploration hot path and a registry lookup there
would be a measurable regression — but they are *registered* as
external reads (:meth:`MetricsRegistry.external`), so every export
includes their live values under stable names.

Exports: :meth:`MetricsRegistry.to_json` (one nested document) and
:meth:`MetricsRegistry.to_prometheus` (text exposition format —
``repro_engine_expand_seconds 1.23``).  The CLI's ``--metrics PATH``
writes one of the two by file suffix (``.prom`` selects Prometheus).
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, Mapping, Optional, Tuple, Union

Number = Union[int, float]


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount


class Gauge:
    """A last-written value."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value


class SpanTimer:
    """Accumulated wall seconds under a hierarchical name."""

    __slots__ = ("name", "help", "seconds", "spans")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.seconds: float = 0.0
        self.spans: int = 0

    def add(self, seconds: float) -> None:
        self.seconds += seconds
        self.spans += 1

    @contextmanager
    def time(self) -> Iterator[None]:
        import time as _time

        t0 = _time.perf_counter()
        try:
            yield
        finally:
            self.add(_time.perf_counter() - t0)

    @property
    def value(self) -> float:
        return self.seconds


_PROM_BAD = re.compile(r"[^a-zA-Z0-9_]")


def _prom_name(name: str, suffix: str = "") -> str:
    return "repro_" + _PROM_BAD.sub("_", name) + suffix


class MetricsRegistry:
    """Named counters, gauges and span timers with pluggable externals."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._timers: Dict[str, SpanTimer] = {}
        #: name -> (kind, reader) evaluated at export time
        self._externals: Dict[str, Tuple[str, Callable[[], Number]]] = {}

    # -- instrument accessors (get-or-create, idempotent) --------------

    def counter(self, name: str, help: str = "") -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter(name, help)
        return metric

    def gauge(self, name: str, help: str = "") -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge(name, help)
        return metric

    def timer(self, name: str, help: str = "") -> SpanTimer:
        metric = self._timers.get(name)
        if metric is None:
            metric = self._timers[name] = SpanTimer(name, help)
        return metric

    def external(self, name: str, reader: Callable[[], Number],
                 kind: str = "gauge", help: str = "") -> None:
        """Register a read-at-export-time metric (e.g. a legacy global
        accumulator whose hot-path increments must stay in place)."""
        if kind not in ("gauge", "counter", "timer"):
            raise ValueError(f"unknown external metric kind {kind!r}")
        self._externals[name] = (kind, reader)

    # -- folding engine output in --------------------------------------

    def record_totals(self, prefix: str, totals: Mapping[str, Number]) -> None:
        """Fold a footer totals mapping in (an
        :meth:`~repro.engine.stats.EngineStats.counters` record plus the
        command's own counts), classifying each entry by its name."""
        for key, value in totals.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                continue
            if key.startswith("peak_"):
                gauge = self.gauge(f"{prefix}/{key}")
                gauge.set(max(gauge.value, value))
            elif key.startswith("time_") or key.endswith("_time"):
                self.timer(f"{prefix}/{key}").add(float(value))
            elif key.endswith("_rate"):
                self.gauge(f"{prefix}/{key}").set(value)
            else:
                self.counter(f"{prefix}/{key}").inc(value)

    # -- export --------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, Number]]:
        """Flat name -> value per instrument family (externals folded)."""
        out: Dict[str, Dict[str, Number]] = {
            "counters": {m.name: m.value for m in self._counters.values()},
            "gauges": {m.name: m.value for m in self._gauges.values()},
            "timers": {m.name: m.seconds for m in self._timers.values()},
        }
        family = {"gauge": "gauges", "counter": "counters", "timer": "timers"}
        for name, (kind, reader) in self._externals.items():
            out[family[kind]][name] = reader()
        return out

    def to_json(self) -> dict:
        """One nested document: slash-separated names become trees."""
        snap = self.snapshot()
        tree: dict = {"schema": "repro-metrics/1"}
        for family, metrics in snap.items():
            node: dict = {}
            for name, value in sorted(metrics.items()):
                cursor = node
                *parents, leaf = name.split("/")
                for part in parents:
                    cursor = cursor.setdefault(part, {})
                    if not isinstance(cursor, dict):  # leaf/branch clash
                        break
                else:
                    if isinstance(cursor.get(leaf), dict):
                        cursor[leaf]["__self__"] = value
                    else:
                        cursor[leaf] = value
            tree[family] = node
        return tree

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (type-annotated)."""
        snap = self.snapshot()
        lines = []
        prom_type = {"counters": "counter", "gauges": "gauge", "timers": "counter"}
        for family in ("counters", "gauges", "timers"):
            suffix = "_seconds" if family == "timers" else ""
            for name, value in sorted(snap[family].items()):
                prom = _prom_name(name, suffix)
                lines.append(f"# TYPE {prom} {prom_type[family]}")
                lines.append(f"{prom} {value}")
        return "\n".join(lines) + "\n"

    def reset(self) -> None:
        """Drop every registered instrument (externals persist)."""
        self._counters.clear()
        self._gauges.clear()
        self._timers.clear()


def _default_registry() -> MetricsRegistry:
    registry = MetricsRegistry()

    def read_order_timer() -> float:
        from repro.c11.compact import ORDER_TIMER

        return ORDER_TIMER.seconds

    def read_model_timer() -> float:
        from repro.interp.memory_model import MODEL_TIMER

        return MODEL_TIMER.seconds

    registry.external(
        "engine/orders_global", read_order_timer, kind="timer",
        help="process-wide derived-order seconds (ORDER_TIMER)",
    )
    registry.external(
        "engine/model_global", read_model_timer, kind="timer",
        help="process-wide memory-model seconds (MODEL_TIMER)",
    )
    return registry


#: The process-wide registry the CLI exports from.
METRICS = _default_registry()


def export_to(path: str, registry: Optional[MetricsRegistry] = None) -> str:
    """Write the registry to ``path``; ``.prom`` selects Prometheus text,
    anything else JSON.  Returns the format written."""
    import json

    registry = registry if registry is not None else METRICS
    if path.endswith(".prom"):
        payload, fmt = registry.to_prometheus(), "prometheus"
    else:
        payload, fmt = json.dumps(registry.to_json(), indent=2) + "\n", "json"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(payload)
    return fmt


__all__ = [
    "METRICS",
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "SpanTimer",
    "export_to",
]
