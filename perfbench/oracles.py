"""Independent reference facts the benchmark checks engine output against.

Nothing here imports the engine: these are short, direct restatements of
the combinatorics, so a wrong engine answer cannot also make its own check
pass.  Shapes are plain tuples of positive parts in weakly decreasing order.
"""

from __future__ import annotations


def partitions(n: int, cap: int | None = None):
    """Every partition of n with parts at most ``cap``, as tuples."""
    cap = n if cap is None else cap
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def subdiagrams(shape: tuple):
    """Every partition whose diagram fits inside ``shape`` (shape included)."""

    def rec(i: int, cap: int, acc: tuple):
        yield acc
        if i < len(shape):
            for v in range(1, min(shape[i], cap) + 1):
                yield from rec(i + 1, v, acc + (v,))

    yield from rec(0, shape[0] if shape else 0, ())


def even_rows(shape: tuple) -> bool:
    return all(p % 2 == 0 for p in shape)


def even_columns(shape: tuple) -> bool:
    """Every column height even: rows pair off as equal neighbours."""
    return len(shape) % 2 == 0 and all(
        shape[i] == shape[i + 1] for i in range(0, len(shape), 2)
    )


def domino_closure(height: int, width: int, family: str) -> frozenset:
    """Shapes left after removing dominoes from the height x width rectangle.

    Family C removes horizontal dominoes from row ends; family BD removes
    vertical dominoes from pairs of equal rows.  The result of each removal
    must still be a partition.
    """
    start = (width,) * height
    seen = {start}
    frontier = [start]
    while frontier:
        parts = frontier.pop()
        moves = []
        for r in range(len(parts)):
            if family == "C":
                below = parts[r + 1] if r + 1 < len(parts) else 0
                if parts[r] - 2 >= below:
                    moves.append(parts[:r] + (parts[r] - 2,) + parts[r + 1 :])
            elif r + 1 < len(parts) and parts[r] == parts[r + 1]:
                below = parts[r + 2] if r + 2 < len(parts) else 0
                if parts[r] - 1 >= below:
                    moves.append(
                        parts[:r] + (parts[r] - 1, parts[r] - 1) + parts[r + 2 :]
                    )
        for nxt in moves:
            nxt = tuple(p for p in nxt if p)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return frozenset(seen)
