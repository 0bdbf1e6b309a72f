"""Live progress for parallel runs (DESIGN.md §14).

:class:`~repro.engine.parallel.ParallelRunner` completes jobs out of
order (``imap_unordered``) and invokes a ``progress`` callback with
each finished job's result as it arrives over the pool's result pipe —
no extra IPC channel, the stat deltas ride the pipe that already
carries results.  :class:`Heartbeat` is the callback the CLI installs
behind ``--progress``: it folds each arrival into running totals and
repaints a single ``\\r``-terminated stderr line::

    [suite] 12/48 jobs  8123 configs  3412 st/s  eta 9.2s  lag x2.1

``lag`` is the per-worker imbalance estimate: the slowest observed job
wall time over the mean, a quick read on whether one shard is
dominating the critical path (ROADMAP: deterministic partitioning a la
Bobpp needs exactly this signal).

Rendering is rate-limited (default 10 Hz) so a burst of tiny jobs does
not spend its time painting the terminal, and suppressed entirely when
the stream is not a TTY unless forced (CI logs stay clean).
"""

from __future__ import annotations

import sys
import time
from typing import Any, Optional, TextIO


def _wall_of(result: Any) -> float:
    return float(getattr(result, "wall_time", 0.0) or 0.0)


class Heartbeat:
    """Fold per-job results into a repainted one-line progress display."""

    def __init__(self, total: int, label: str = "suite",
                 stream: Optional[TextIO] = None,
                 min_interval: float = 0.1, force: bool = False) -> None:
        self.total = max(0, int(total))
        self.label = label
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval = min_interval
        self.done = 0
        self.configs = 0
        self.failed = 0
        self.max_wall = 0.0
        self.sum_wall = 0.0
        self.started = time.perf_counter()
        self._last_paint = 0.0
        self._painted = False
        self._active = force or bool(getattr(self.stream, "isatty", lambda: False)())

    # The ParallelRunner calls the instance itself: ``progress=heartbeat``.
    def __call__(self, result: Any) -> None:
        self.done += 1
        self.configs += result.stats.configs
        wall = _wall_of(result)
        self.sum_wall += wall
        if wall > self.max_wall:
            self.max_wall = wall
        if getattr(result, "failed", None) or getattr(result, "verdict", "") in (
            "fail", "error"
        ):
            self.failed += 1
        self.paint()

    # -- rendering -----------------------------------------------------

    def line(self) -> str:
        elapsed = max(time.perf_counter() - self.started, 1e-9)
        rate = self.configs / elapsed
        parts = [f"[{self.label}] {self.done}/{self.total or '?'} jobs",
                 f"{self.configs} configs", f"{rate:.0f} st/s"]
        if self.total and self.done:
            remaining = self.total - self.done
            eta = remaining * (elapsed / self.done)
            parts.append(f"eta {eta:.1f}s")
        if self.done:
            mean = self.sum_wall / self.done
            if mean > 0:
                parts.append(f"lag x{self.max_wall / mean:.1f}")
        if self.failed:
            parts.append(f"FAILED {self.failed}")
        return "  ".join(parts)

    def paint(self, final: bool = False) -> None:
        if not self._active:
            return
        now = time.perf_counter()
        if not final and now - self._last_paint < self.min_interval:
            return
        self._last_paint = now
        self.stream.write("\r\x1b[K" + self.line())
        if final:
            self.stream.write("\n")
        self.stream.flush()
        self._painted = True

    def finish(self) -> None:
        """Repaint one last time and move off the progress line."""
        if self._active and self._painted:
            self.paint(final=True)


__all__ = ["Heartbeat"]
