"""Rectangle decompositions in the stable sp/o rings and weight notation.

The two distinguished embeddings (kernels p = 1/(1-x^2) and p = 1) give a
candidate decomposition for every shape.  Their kappa kernels are
Littlewood's sums (Macdonald, *Symmetric Functions and Hall Polynomials*,
I.5 Ex. 5)

    prod_{i<=j} (1 - x_i x_j)^{-1} = sum of s_mu over mu with even rows,
    prod_{i<j}  (1 - x_i x_j)^{-1} = sum of s_mu over mu with even columns,

so ``kr_decomposition`` skews lam by those shapes directly, through the
integer skew sum ``schur._skew_sum`` that the kernel route of
:func:`stablechar.embeddings.image_by_skewing` also takes, with weight 1 on
each such shape; the kernel route is its test oracle.  The shapes come from
``partitions.even_subshapes``, which builds only the shapes kept.
On rectangles the decompositions match the classical domino-removal
description, which ``rectangle_check`` verifies by computing both sides
independently: ``domino_removals`` takes its closure over parts tuples and
builds a ``Partition`` once per shape it returns.
``quadratic_identity_check`` tests the square-of-a-rectangle identity in
the character ring; its W characters are memoized in the memo table ``w``
of :mod:`cache`, keyed by (rectangle parts, family), which lives only in
memory.
"""

from __future__ import annotations

from typing import NamedTuple

from . import cache
from .bcd import bcd_multiply
from .embeddings import Decomposition
from .partitions import Partition, even_subshapes
from .schur import FormalSum, _skew_sum

__all__ = [
    "FAMILIES",
    "domino_removals",
    "kr_decomposition",
    "RectangleReport",
    "rectangle_check",
    "QuadraticIdentityReport",
    "quadratic_identity_check",
    "fundamental_weights",
    "weight_notation",
    "weights_json",
    "format_weight_decomposition",
]

FAMILIES = ("C", "BD")
ORIENTATIONS = ("horizontal", "vertical")


def _single_removals(parts: tuple, horizontal: bool):
    """The parts of each shape left by removing one domino from ``parts``.

    Only the last row can be emptied by a horizontal domino, and only the
    last two rows, both at once, by a vertical one; those rows are dropped,
    so every shape comes without trailing zeros."""
    n = len(parts)
    if horizontal:
        for r in range(n):
            p = parts[r]
            if p - 2 >= (parts[r + 1] if r + 1 < n else 0):
                yield parts[:r] + (p - 2,) + parts[r + 1 :] if p > 2 else parts[:r]
    else:
        for r in range(n - 1):
            p = parts[r]
            if p == parts[r + 1] and p - 1 >= (parts[r + 2] if r + 2 < n else 0):
                yield parts[:r] + (p - 1, p - 1) + parts[r + 2 :] if p > 1 else parts[:r]


def domino_removals(lam: Partition, orientation: str) -> set[Partition]:
    """Closure of lam under removing one domino at a time (lam included).

    The closure is taken over parts tuples; each shape of the returned set
    is built as a ``Partition`` once."""
    if orientation not in ORIENTATIONS:
        raise ValueError(f"orientation must be one of {ORIENTATIONS}")
    horizontal = orientation == "horizontal"
    seen = {lam.parts}
    frontier = [lam.parts]
    while frontier:
        for nxt in _single_removals(frontier.pop(), horizontal):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return {Partition._trusted(parts) for parts in seen}


def kr_decomposition(lam: Partition, family: str) -> Decomposition:
    """Candidate decomposition of the reducible module attached to lam.

    Family C sums the skew expansions of lam/mu over the mu inside lam with
    even rows, in the sp basis; family BD over the mu with even columns, in
    the o basis.  These are the images of s_lam under the embeddings with
    kernels p = 1/(1-x^2) and p = 1, whose kappa kernels are Littlewood's
    sums of s_mu over those shapes with coefficient 1 each.  The mu are
    generated by ``even_subshapes``, not filtered from every subdiagram.
    Valid in the stable range, i.e. for ranks exceeding the number of parts
    of lam plus two.
    """
    if family not in FAMILIES:
        raise ValueError(f"family must be one of {FAMILIES}")
    weights = ((mu, 1) for mu in even_subshapes(lam, family == "BD"))
    return Decomposition(lam, "sp" if family == "C" else "o", _skew_sum(lam, weights))


class RectangleReport(NamedTuple):
    height: int
    width: int
    family: str
    matches: bool
    decomposition: Decomposition
    expected: frozenset


def rectangle_check(height: int, width: int, family: str) -> RectangleReport:
    """Compare the rectangle decomposition with the domino-removal closure,
    every shape with multiplicity exactly one."""
    if height < 1 or width < 1:
        raise ValueError("rectangle needs positive height and width")
    rect = Partition([width] * height)
    dec = kr_decomposition(rect, family)
    orientation = "horizontal" if family == "C" else "vertical"
    expected = frozenset(domino_removals(rect, orientation))
    matches = set(dec.terms) == set(expected) and all(
        c == 1 for c in dec.terms.values()
    )
    return RectangleReport(height, width, family, matches, dec, expected)


class QuadraticIdentityReport(NamedTuple):
    height: int
    width: int
    family: str
    holds: bool
    lhs: FormalSum
    rhs: FormalSum


_w_characters: dict[tuple, FormalSum] = cache.table("w")


def _w_character(height: int, width: int, family: str) -> FormalSum:
    """W of the height x width rectangle, shared by every caller; every
    empty rectangle is the one key ((), family)."""
    parts = (width,) * height if width else ()
    key = (parts, family)
    w = _w_characters.get(key)
    if w is None:
        w = _w_characters[key] = kr_decomposition(Partition(parts), family).as_sum()
    return w


def quadratic_identity_check(height: int, width: int, family: str) -> QuadraticIdentityReport:
    """W(m w_l)^2 = W((m+1) w_l) W((m-1) w_l) + W(m w_{l-1}) W(m w_{l+1})
    in the stable character ring, with all four W's built by
    ``kr_decomposition`` (empty rectangles give the trivial character)."""
    if height < 1 or width < 1:
        raise ValueError("rectangle needs positive height and width")
    if family not in FAMILIES:
        raise ValueError(f"family must be one of {FAMILIES}")
    w = _w_character
    lhs = bcd_multiply(w(height, width, family), w(height, width, family))
    rhs = bcd_multiply(w(height, width + 1, family), w(height, width - 1, family)) + bcd_multiply(
        w(height - 1, width, family), w(height + 1, width, family)
    )
    return QuadraticIdentityReport(height, width, family, lhs == rhs, lhs, rhs)


# ---------------------------------------------------------------------------
# Fundamental-weight notation.
# ---------------------------------------------------------------------------


def fundamental_weights(lam: Partition) -> list[tuple[int, int]]:
    """Pairs (l, c_l) with c_l = lam_l - lam_{l+1} > 0: the number of columns
    of height l."""
    out = []
    for i in range(len(lam)):
        c = lam.parts[i] - lam.part(i + 1)
        if c:
            out.append((i + 1, c))
    return out


def weight_notation(lam: Partition) -> str:
    """Render lam as a sum of fundamental weights, e.g. ``w1 + 2*w3``."""
    pairs = fundamental_weights(lam)
    if not pairs:
        return "0"
    return " + ".join(f"w{l}" if c == 1 else f"{c}*w{l}" for l, c in pairs)


def weights_json(lam: Partition) -> dict:
    """JSON form of the weight notation: {"fundamental": [[l, c], ...]}."""
    return {"fundamental": [[l, c] for l, c in fundamental_weights(lam)]}


def format_weight_decomposition(dec: Decomposition) -> str:
    """One-line rendering ``W(...) = V(...) + ...`` in weight notation."""
    pieces = []
    for mu, c in dec.sorted_terms():
        body = f"V({weight_notation(mu)})"
        pieces.append(body if c == 1 else f"{c}*{body}")
    return f"W({weight_notation(dec.source)}) = " + " + ".join(pieces)
