"""Integer partitions (Young diagrams) and the order predicates built on them.

Partitions index every basis handled by this package.  They are immutable,
hashable, stored free of trailing zeros, and cheap enough to use as dict keys
throughout.  The canonical ordering used for all deterministic output is
size ascending, then descending lexicographic within a size.

``Partition.transpose`` counts the rows longer than each column index in
one pass over the parts.

``even_subshapes`` lists the even-row or even-column shapes inside a
partition, the shapes of Littlewood's kernel sums, by enumerating only
the partitions that they are built from: for a 12 x 12 square that is the
18,564 shapes kept, not the 2,704,156 subpartitions of the square.

The tableau kernels also name shapes by small int ids (see "Shape ids"
below): a memo entry lists the ids of its terms (see
:mod:`stablechar.schur`), so its sums hash ints.  CPython caches no
tuple's hash, so a dict keyed by parts tuples hashes the whole tuple on
every lookup and insert.
"""

from __future__ import annotations

import threading
from functools import lru_cache
from typing import Iterable, Iterator

__all__ = [
    "Partition",
    "EMPTY",
    "leq_extended",
    "partitions_of",
    "partitions_through",
    "subpartitions",
    "even_subshapes",
]


class Partition:
    """A weakly decreasing sequence of positive integers; () is empty.

    ``Partition(...)`` checks its input: every part an int (not a bool, a
    float or a string), positive, and weakly decreasing.
    ``Partition._trusted`` skips the checks and is only for tuples the
    tableau code builds itself, which are partitions by construction.
    """

    __slots__ = ("parts", "size")

    def __init__(self, parts: Iterable[int] = ()):
        parts = tuple(parts)
        for p in parts:
            if type(p) is not int:  # not isinstance: it would let True pass as 1
                raise ValueError(f"a part must be an int, got {p!r:.40}")
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        if any(p <= 0 for p in parts):
            raise ValueError(f"parts must be positive integers: {parts!r}")
        if any(a < b for a, b in zip(parts, parts[1:])):
            raise ValueError(f"parts must be weakly decreasing: {parts!r}")
        self.parts = parts
        self.size = sum(parts)

    @classmethod
    def _trusted(cls, parts: tuple) -> "Partition":
        """Wrap a tuple already known to be a partition without trailing zeros."""
        out = object.__new__(cls)
        out.parts = parts
        out.size = sum(parts)
        return out

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def part(self, i: int) -> int:
        """The i-th part (0-based), zero past the end."""
        return self.parts[i] if 0 <= i < len(self.parts) else 0

    @property
    def is_empty(self) -> bool:
        return not self.parts

    def transpose(self) -> "Partition":
        """Conjugate diagram: the i-th part becomes #{j : parts[j] > i}."""
        parts = self.parts
        cols = []
        rows = len(parts)
        for c in range(parts[0] if parts else 0):
            while parts[rows - 1] <= c:  # rows = #{j : parts[j] > c}
                rows -= 1
            cols.append(rows)
        return Partition._trusted(tuple(cols))

    def contains(self, other: "Partition") -> bool:
        """Row-by-row diagram containment (other fits inside self)."""
        return len(other.parts) <= len(self.parts) and all(
            o <= s for o, s in zip(other.parts, self.parts)
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return f"Partition({self.parts!r})"

    def __str__(self) -> str:
        return self.to_text()

    # Text form: comma-separated parts, "-" for the empty partition.
    def to_text(self) -> str:
        return ",".join(str(p) for p in self.parts) if self.parts else "-"

    @classmethod
    def from_text(cls, text: str) -> "Partition":
        text = text.strip()
        if text == "-" or text == "":
            return EMPTY
        try:
            return cls(int(piece) for piece in text.split(","))
        except ValueError as exc:
            raise ValueError(f"bad partition {text!r}: {exc}") from None

    def to_json(self) -> list[int]:
        return list(self.parts)

    @classmethod
    def from_json(cls, data) -> "Partition":
        """Partition from its JSON form, which is untrusted: anything but a
        list of ints (bools excluded) raises ``ValueError`` naming it."""
        if not isinstance(data, list) or any(type(p) is not int for p in data):
            raise ValueError(f"a partition must be a JSON list of ints, got {data!r:.40}")
        return cls(data)


EMPTY = Partition()


def leq_extended(mu: Partition, lam: Partition) -> bool:
    """Extended dominance: every partial sum of mu is bounded by lam's.

    Sizes need not match; lam is padded with zeros on the right.
    """
    total_mu = 0
    total_lam = 0
    for k in range(len(mu)):
        total_mu += mu.parts[k]
        total_lam += lam.part(k)
        if total_mu > total_lam:
            return False
    return True


@lru_cache(maxsize=None)
def _partitions_tuples(n: int, cap: int) -> tuple[tuple[int, ...], ...]:
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, cap), 0, -1):
        for rest in _partitions_tuples(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def partitions_of(n: int) -> list[Partition]:
    """All partitions of n, descending lexicographic (canonical order)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return [Partition._trusted(t) for t in _partitions_tuples(n, n)]


def partitions_through(max_size: int) -> Iterator[Partition]:
    """All partitions of size 0..max_size in canonical order."""
    for n in range(max_size + 1):
        yield from partitions_of(n)


def subpartitions(lam: Partition) -> list[Partition]:
    """All partitions contained in lam's diagram (lam itself included)."""
    parts = lam.parts
    out: list[Partition] = []

    def rec(i: int, cap: int, acc: tuple) -> None:
        out.append(Partition._trusted(acc))
        if i == len(parts):
            return
        for v in range(1, min(parts[i], cap) + 1):
            rec(i + 1, v, acc + (v,))

    rec(0, parts[0] if parts else 0, ())
    return out


def _paired_rows(parts: tuple) -> tuple:
    """The parts with each row repeated: (s_1, s_1, s_2, s_2, ...), the
    shape whose columns are twice those of ``parts``."""
    return tuple(r for s in parts for r in (s, s))


def even_subshapes(lam: Partition, columns: bool) -> Iterator[tuple]:
    """Parts of the shapes inside lam whose rows are all even (``columns``
    false) or whose columns are all even (``columns`` true), each once: the
    shapes of Littlewood's sums (Macdonald I.5 Ex. 5).

    An even-row shape is 2 sigma for sigma inside (lam_1 // 2, lam_2 // 2,
    ...).  An even-column shape has equal rows 2i - 1 and 2i, so it is
    ``_paired_rows(sigma)`` for sigma inside (lam_2, lam_4, ...).  Only the
    sigma are enumerated, by ``subpartitions``, and both maps keep its
    order, so the shapes come in the order in which ``subpartitions(lam)``
    lists them.
    """
    if columns:
        half = lam.parts[1::2]
    else:
        half = tuple(p // 2 for p in lam.parts if p > 1)
    for sigma in subpartitions(Partition._trusted(half)):
        yield _paired_rows(sigma.parts) if columns else tuple(2 * s for s in sigma.parts)


# ---------------------------------------------------------------------------
# Shape ids.
# ---------------------------------------------------------------------------
#
# One append-only registry, shared by the whole process, names by a small
# int every shape the kernels key by id: ``_shape_id`` registers the parts on
# first use, and the lists below are indexed by id.  The skew sums of a
# rectangle (``schur._skew_sum``, so every ``kr_decomposition`` of one)
# register no shape: they are built from parts.  An id names the same shape
# for the life of the process; ``cache.clear_all`` leaves the registry
# alone, so an id held across it stays valid.  The registry therefore only
# grows: it keeps the parts, size and shared ``Partition`` of every distinct
# shape registered since the process started, and clearing the memo tables
# frees none of them.  The empty shape is id 0, so ``not i`` tests for it and 0
# sorts first.  The names are internal to the kernels (``schur``, ``bcd``,
# ``series``); the lists must only ever be appended to, here.

_ids: dict[tuple, int] = {(): 0}
_parts_of: list[tuple] = [()]  # id -> parts
_size_of: list[int] = [0]  # id -> size
_conjugates: list[int] = [0]  # id -> conjugate id, -1 until first asked
_shapes: list[Partition | None] = [EMPTY]  # id -> shared Partition, built lazily
_register = threading.Lock()  # two threads must not hand out one id twice


def _shape_id(parts: tuple) -> int:
    """The id of the shape with these parts (a partition's tuple, free of
    trailing zeros), registered on first use."""
    got = _ids.get(parts)
    if got is None:
        with _register:
            got = _ids.get(parts)
            if got is None:
                got = len(_parts_of)
                _parts_of.append(parts)
                _size_of.append(sum(parts))
                _conjugates.append(-1)
                _shapes.append(None)
                _ids[parts] = got
    return got


def _conjugate_id(i: int) -> int:
    """The id of the conjugate of shape ``i``."""
    got = _conjugates[i]
    if got < 0:
        got = _shape_id(Partition._trusted(_parts_of[i]).transpose().parts)
        _conjugates[i] = got
        _conjugates[got] = i
    return got


def _shape(i: int) -> Partition:
    """The one ``Partition`` the kernels hand out for shape ``i``, so equal
    keys of two returned sums are usually the same object and a dict lookup
    stops at the identity check instead of calling ``Partition.__eq__``."""
    got = _shapes[i]
    if got is None:
        got = _shapes[i] = Partition._trusted(_parts_of[i])
    return got
