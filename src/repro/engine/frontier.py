"""Frontier abstractions — the pluggable part of a graph search.

A search strategy is nothing but a discipline for the set of discovered-
but-unexpanded configurations: pop oldest-first and the search is
breadth-first, pop newest-first and it is depth-first (DESIGN.md §5).

Because exploration deduplicates by canonical key, all strategies visit
the same configuration set and count the same transitions; they differ
in memory profile (peak frontier size) and in which counterexample is
found first (BFS finds a shortest one).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Generic, List, Tuple, Type, TypeVar

T = TypeVar("T")

#: Strategy names accepted by ``explore(strategy=...)`` and the CLI.
STRATEGIES = ("bfs", "dfs")


class Frontier(Generic[T]):
    """The set of discovered, not-yet-expanded search nodes."""

    def push(self, item: T) -> None:
        raise NotImplementedError

    def pop(self) -> T:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def __bool__(self) -> bool:
        return len(self) > 0

    def snapshot(self) -> List[T]:
        """The pending items, in an order ``restore`` understands.

        ``restore(snapshot())`` must reproduce the frontier exactly —
        same items, same future pop order — so a checkpointed search
        resumes byte-identically (DESIGN.md §16).
        """
        raise NotImplementedError

    def restore(self, items: List[T]) -> None:
        """Replace the frontier's contents with a prior ``snapshot``."""
        raise NotImplementedError


class BFSFrontier(Frontier[T]):
    """FIFO frontier — breadth-first search, shortest counterexamples."""

    def __init__(self) -> None:
        self._items: Deque[T] = deque()

    def push(self, item: T) -> None:
        self._items.append(item)

    def pop(self) -> T:
        return self._items.popleft()

    def __len__(self) -> int:
        return len(self._items)

    def snapshot(self) -> List[T]:
        return list(self._items)

    def restore(self, items: List[T]) -> None:
        self._items = deque(items)


class DFSFrontier(Frontier[T]):
    """LIFO frontier — depth-first search, smallest memory footprint."""

    def __init__(self) -> None:
        self._items: List[T] = []

    def push(self, item: T) -> None:
        self._items.append(item)

    def pop(self) -> T:
        return self._items.pop()

    def __len__(self) -> int:
        return len(self._items)

    def snapshot(self) -> List[T]:
        return list(self._items)

    def restore(self, items: List[T]) -> None:
        self._items = list(items)


class LevelFrontier(Frontier[T]):
    """A FIFO frontier with an explicit level (superstep) boundary.

    The sharded explorer (DESIGN.md §15) runs breadth-first search as
    bulk-synchronous supersteps: every configuration at depth ``d`` is
    expanded before any at ``d+1``, with one cross-shard message
    exchange per level.  ``take_level`` drains the current level
    wholesale; pushes during a superstep accumulate into the *next*
    level.  Popping item-by-item still works (and is FIFO within the
    level order), so the class remains a :class:`Frontier`.
    """

    def __init__(self) -> None:
        self._current: Deque[T] = deque()
        self._next: List[T] = []

    def push(self, item: T) -> None:
        self._next.append(item)

    def pop(self) -> T:
        if not self._current:
            self.advance()
        return self._current.popleft()

    def take_level(self) -> List[T]:
        """Drain and return every item of the current level."""
        if not self._current:
            self.advance()
        items = list(self._current)
        self._current.clear()
        return items

    def advance(self) -> None:
        """Promote the accumulated next level to current."""
        self._current.extend(self._next)
        self._next.clear()

    def __len__(self) -> int:
        return len(self._current) + len(self._next)

    def snapshot(self) -> List[T]:
        # two lists, kept apart so the level boundary survives a resume
        return [list(self._current), list(self._next)]

    def restore(self, items: List[T]) -> None:
        current, upcoming = items
        self._current = deque(current)
        self._next = list(upcoming)


def frontier_class(strategy: str) -> Type[Frontier]:
    """The frontier class realising ``strategy``."""
    normalized = strategy.lower()
    if normalized == "bfs":
        return BFSFrontier
    if normalized == "dfs":
        return DFSFrontier
    raise ValueError(
        f"unknown search strategy {strategy!r}; choose from {STRATEGIES}"
    )
