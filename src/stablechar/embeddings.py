"""Embeddings of the Schur ring into the stable sp/o ring.

A candidate embedding is pinned down by the images of single columns, so it
is stored as a triangular table of constants m[i][j]: the image of the i-th
elementary generator is  sp[1^i] + sum_j m[i][j] sp[1^j].  Two independent
constructions are provided and used as mutual oracles:

* ``image_by_skewing(p, lam)`` skews lam by the kappa kernel of the series
  p.  Only subdiagrams of lam contribute, so the result is exact with no
  cutoff artifacts; each kernel coefficient is a skew-shaped determinant in
  the coefficients of p.
* ``image_from_table(table, lam)`` pushes the table's generator images
  through the dual Jacobi-Trudi determinant with Newell-Littlewood
  multiplication.  The images are scaled to integers first (the n-th times
  L^n, with L the lcm of the denominators of the table's entries), so every
  minor is an integer sum and a result is divided once, by L^{|lam|}.  The
  minors are memoized per table in the owned table ``table_minors`` of
  :mod:`cache`, each keyed by the shape it is the determinant of, so that
  every shape of the table shares them; they are kept while the caller
  holds the table (or an equal one).  The side is
  chosen by the shape alone: a shape with fewer rows than columns is the
  Jacobi-Trudi determinant det(h_{lam_i - i + j}) (Macdonald I.(3.4))
  instead, of side len(lam) rather than lam_1, in the scaled images of the
  single rows h_n, each a determinant in the generator images cut at the
  same deficit, if any.

``table_from_series`` bridges the two: the table of the embedding built
from p has constants b_{i-j}, where 1 + b_1 x + b_2 x^2 + ... is the dual
series of p.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from typing import Callable, NamedTuple

from . import cache
from .bcd import bcd_multiply
from .partitions import (
    EMPTY,
    Partition,
    subpartitions,
)
from .schur import BASES, FormalSum, _integers, _normalize, _skew_sum, dual_jacobi_trudi
from .series import Series, TruncationError, dual, kappa_coefficient, random_rational

__all__ = [
    "CutoffError",
    "EmbeddingTable",
    "Decomposition",
    "table_from_series",
    "kappa_coefficient",
    "image_by_skewing",
    "image_from_table",
    "LinearIdentityReport",
    "verify_linear_identity",
    "ConstantIdentityReport",
    "verify_constant_identity",
    "ParityReport",
    "parity_coefficient",
    "random_table",
]


class CutoffError(ValueError):
    """A table entry beyond the stored cutoff was required."""


class EmbeddingTable:
    """Triangular constants m[i][j] for 0 <= j <= i <= cutoff, m[i][i] = 1.

    Entries above the diagonal are implicitly zero; missing entries default
    to the identity table (delta_{ij}).
    """

    # Immutable after __init__; the weak reference keys its owned state.
    __slots__ = ("cutoff", "_m", "_hash", "__weakref__")

    def __init__(self, cutoff: int, entries=None):
        if cutoff < 0:
            raise ValueError("cutoff must be nonnegative")
        self.cutoff = cutoff
        self._hash = None
        self._m: dict[tuple[int, int], object] = {}
        for (i, j), value in (entries or {}).items():
            if not (0 <= j <= i <= cutoff):
                raise ValueError(f"entry ({i},{j}) outside table bounds")
            value = _normalize(Fraction(value))
            if i == j:
                if value != 1:
                    raise ValueError("diagonal entries must equal 1")
                continue
            if value:
                self._m[(i, j)] = value

    def entry(self, i: int, j: int):
        if i > self.cutoff:
            raise CutoffError(f"entry ({i},{j}) beyond cutoff {self.cutoff}")
        if j > i:
            return 0
        if i == j:
            return 1
        return self._m.get((i, j), 0)

    def generator_image(self, k: int) -> FormalSum:
        """Image of the k-th elementary generator as an sp-basis sum."""
        if k > self.cutoff:
            raise CutoffError(f"entry ({k},0) beyond cutoff {self.cutoff}")
        return _generator_image(self._m, k)

    def constant_below(self, d: int) -> bool:
        """True iff m[i][j] depends only on i - j whenever i - j < d."""
        for diff in range(1, d):
            values = {self.entry(i, i - diff) for i in range(diff, self.cutoff + 1)}
            if len(values) > 1:
                return False
        return True

    @classmethod
    def identity(cls, cutoff: int) -> "EmbeddingTable":
        return cls(cutoff)

    def to_json(self) -> dict:
        entries = [
            [i, j, str(v)] for (i, j), v in sorted(self._m.items())
        ]
        return {"schema": 1, "cutoff": self.cutoff, "m": entries}

    @classmethod
    def from_json(cls, data) -> "EmbeddingTable":
        """Table from its JSON form, which is untrusted: a malformed field
        raises ``ValueError`` naming it, and so does an entry given twice."""
        if not isinstance(data, dict):
            raise ValueError(f"an embedding table must be a JSON object, got {data!r:.40}")
        schema = data.get("schema")
        if type(schema) is not int or schema != 1:
            raise ValueError(f"table field 'schema' must be 1, got {schema!r:.40}")
        cutoff = data.get("cutoff")
        if type(cutoff) is not int or cutoff < 0:
            raise ValueError(f"table field 'cutoff' must be a non-negative int, got {cutoff!r:.40}")
        items = data.get("m", [])
        if not isinstance(items, list):
            raise ValueError(f"table field 'm' must be a list, got {items!r:.40}")
        entries = {}
        for item in items:
            try:
                i, j, value = item
                if type(i) is not int or type(j) is not int or not isinstance(value, str):
                    raise TypeError
                value = Fraction(value)
            except (TypeError, ValueError, ZeroDivisionError):
                raise ValueError(
                    f"table entry {item!r:.40} is not [int, int, rational string]"
                ) from None
            if (i, j) in entries:
                raise ValueError(f"table field 'm' has two entries for ({i},{j})")
            entries[(i, j)] = value
        return cls(cutoff, entries)

    @classmethod
    def load(cls, path) -> "EmbeddingTable":
        with open(path, "r", encoding="utf-8") as handle:
            try:
                data = json.load(handle)
            except RecursionError:
                raise ValueError(f"{path}: JSON nested too deeply") from None
        return cls.from_json(data)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, EmbeddingTable)
            and self.cutoff == other.cutoff
            and self._m == other._m
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash((self.cutoff, frozenset(self._m.items())))
        return h

    def __repr__(self) -> str:
        return f"EmbeddingTable(cutoff={self.cutoff}, {len(self._m)} off-diagonal entries)"


def _generator_image(entries: dict, k: int) -> FormalSum:
    """sp[1^k] + sum_j m[k][j] sp[1^j] from a table's off-diagonal entries."""
    terms = {Partition._trusted((1,) * j): entries.get((k, j), 0) for j in range(k)}
    terms[Partition._trusted((1,) * k)] = 1
    return FormalSum("sp", terms)


def table_from_series(p: Series, cutoff: int) -> EmbeddingTable:
    """Constants of the embedding built from p: m[i][j] = b_{i-j} with b the
    dual series of p."""
    q = dual(p, order=cutoff)
    entries = {}
    for i in range(cutoff + 1):
        for j in range(i + 1):
            entries[(i, j)] = q.coeffs[i - j]
    return EmbeddingTable(cutoff, entries)


def random_table(cutoff: int, d: int, rng: random.Random) -> EmbeddingTable:
    """Seeded table that is constant on diagonals below d and random on and
    above diagonal d (the shape needed by the verification identities)."""
    if d < 1:
        raise ValueError("d must be at least 1")
    below = {diff: random_rational(rng) for diff in range(1, d)}
    entries = {}
    for i in range(cutoff + 1):
        for j in range(i):
            diff = i - j
            entries[(i, j)] = below[diff] if diff < d else random_rational(rng)
    return EmbeddingTable(cutoff, entries)


class _DecompositionFields(NamedTuple):
    source: Partition
    basis: str
    terms: dict


class Decomposition(_DecompositionFields):
    """Image of one Schur basis element: source shape, basis tag, and the
    exact multiplicity of every shape appearing."""

    __slots__ = ()

    def __new__(cls, source: Partition, basis: str, terms: dict):
        if terms.get(source, 0) != 1:
            raise ValueError("leading coefficient of a decomposition must be 1")
        return super().__new__(cls, source, basis, terms)

    @classmethod
    def _make(cls, iterable) -> "Decomposition":
        # The inherited _make, which _replace calls, skips __new__.
        return cls(*iterable)

    def coefficient(self, mu: Partition):
        return self.terms.get(mu, 0)

    def as_sum(self) -> FormalSum:
        return FormalSum(self.basis, dict(self.terms))

    def sorted_terms(self):
        return self.as_sum().sorted_terms()

    def __str__(self) -> str:
        return str(self.as_sum())

    def to_json(self) -> dict:
        # The unpacked "schema" keeps its place in front of "lambda".
        return {"schema": 1, "lambda": self.source.to_json(), **self.as_sum().to_json()}

    @classmethod
    def from_json(cls, data) -> "Decomposition":
        """Decomposition from its JSON form, which is untrusted: a malformed
        field raises ``ValueError`` naming it, and so does a shape given
        twice."""
        if not isinstance(data, dict):
            raise ValueError(f"a decomposition must be a JSON object, got {data!r:.40}")
        try:
            source = Partition.from_json(data.get("lambda"))
        except ValueError as exc:
            raise ValueError(f"decomposition field 'lambda': {exc}") from None
        basis = data.get("basis")
        if basis not in BASES:
            raise ValueError(f"decomposition field 'basis' must be one of {BASES}, got {basis!r:.40}")
        items = data.get("terms")
        if not isinstance(items, list):
            raise ValueError(f"decomposition field 'terms' must be a list, got {items!r:.40}")
        terms = {}
        for item in items:
            if not isinstance(item, dict):
                raise ValueError(f"decomposition term {item!r:.40} is not a JSON object")
            try:
                mu = Partition.from_json(item.get("mu"))
            except ValueError as exc:
                raise ValueError(f"decomposition term field 'mu': {exc}") from None
            coeff = item.get("coeff")
            try:
                if not isinstance(coeff, str):
                    raise TypeError
                value = _normalize(Fraction(coeff))
            except (TypeError, ValueError, ZeroDivisionError):
                raise ValueError(
                    f"decomposition term field 'coeff' must be a rational string, got {coeff!r:.40}"
                ) from None
            if mu in terms:
                raise ValueError(f"decomposition field 'terms' has two terms for {mu.to_text()}")
            terms[mu] = value
        return cls(source, basis, terms)


def image_by_skewing(p: Series, lam: Partition) -> Decomposition:
    """Image of s_lam under the embedding built from p, by skewing.

    Exact for any lam with p known through order |lam|: only subdiagrams of
    lam meet the kernel, so no truncation of the kernel is involved.  The
    sum of kappa_mu(p) s_{lam/mu} over the subdiagrams mu is taken in
    integers by ``schur._skew_sum``.
    """
    if not p.polynomial and p.order < lam.size:
        raise TruncationError(
            f"series truncated at order {p.order} cannot embed a shape of size {lam.size}"
        )
    weights = ((mu.parts, kappa_coefficient(p, mu)) for mu in subpartitions(lam))
    return Decomposition(lam, "sp", _skew_sum(lam.parts, weights))


_table_minors = cache.owned("table_minors")


def _table_state(table: EmbeddingTable) -> tuple[int, Callable, dict, Callable, dict]:
    """(L, gen, memo, row, row_memo) for the table, where L is the lcm of the
    denominators of its entries: gen(n) is L^n times generator image n,
    row(n, max_deficit) is L^n times the image of the single row (n) cut at
    that deficit, and the two empty memos hold the minors of determinants in
    gen and in row.  A key u of ``memo`` stands for L^{|u|} times the image
    of s_{u'}, but in ``row_memo`` for that of s_u, so the two are never
    merged; ``image_from_table`` reads ``row_memo`` for the shapes with
    fewer rows than columns and ``memo`` for the others.  The scaled
    generator images are built once each.  A row image (n) is the top minor
    (1^n) of ``memo`` at its deficit, so a row asked for again is read from
    there.  The state reads the table's entries but holds no reference to
    the table, its weak key in ``table_minors``."""
    entries = table._m
    den, _ = _integers(entries.values())
    scaled: dict[int, FormalSum] = {}
    memo: dict = {}

    def gen(n: int) -> FormalSum:
        g = scaled.get(n)
        if g is None:
            g = scaled[n] = _generator_image(entries, n).scaled(den**n)
        return g

    def row(n: int, max_deficit: int | None) -> FormalSum:
        shape = Partition._trusted((n,)) if n else EMPTY
        return dual_jacobi_trudi(shape, gen, bcd_multiply, max_deficit, memo)

    return den, gen, memo, row, {}


def image_from_table(
    table: EmbeddingTable, lam: Partition, max_deficit: int | None = None
) -> Decomposition:
    """Image of s_lam rebuilt from generator images via dual Jacobi-Trudi.

    Needs table entries up to lam'_1 + (number of columns of lam) - 1, the
    largest generator index in the determinant.  ``max_deficit`` keeps only
    the top degrees (see :func:`stablechar.schur.dual_jacobi_trudi`).

    The determinant runs on the generator images scaled to integer
    coefficients, gen(n) = L^n times image n, and shares its minors with
    every earlier call on the same table; the result is divided by
    L^{|lam|}, the weight of the full matrix.

    A shape with fewer rows than columns, truncated or not, is the
    Jacobi-Trudi determinant det(h_{lam_i - i + j}) instead, of side
    len(lam) rather than lam_1, in the scaled row images h_n, each a
    determinant in gen cut at the same deficit; it has the same weight, so
    the same division.
    """
    need = len(lam) + lam.part(0) - 1
    if need > table.cutoff:
        raise CutoffError(
            f"shape {lam} needs table entries through {need}, cutoff is {table.cutoff}"
        )
    den, gen, memo, row, row_memo = cache.latest(_table_minors, table, _table_state)
    shape = lam
    if len(lam) < lam.part(0):
        shape, gen, memo = lam.transpose(), (lambda n: row(n, max_deficit)), row_memo
    result = dual_jacobi_trudi(shape, gen, bcd_multiply, max_deficit, memo)
    scale = den**lam.size
    terms = {mu: _normalize(Fraction(c, scale)) for mu, c in result.terms.items()}
    return Decomposition(lam, "sp", terms)


# ---------------------------------------------------------------------------
# Verification of the coefficient identities satisfied by any embedding
# whose table is constant on low diagonals.
# ---------------------------------------------------------------------------


def _require_hypothesis(table: EmbeddingTable, d: int, k: int) -> None:
    if d < 1:
        raise ValueError("d must be at least 1")
    if k < d + 2:
        raise ValueError(f"identities need k >= d + 2, got k={k}, d={d}")
    if not table.constant_below(d):
        raise ValueError(f"table must be constant on diagonals below {d}")


class LinearIdentityReport(NamedTuple):
    d: int
    k: int
    row_coefficient: object  # m for the single row (k) at column shape (1^{k-d})
    second_difference: object  # signed second difference of diagonal-d entries
    rectangle_coefficient: object  # m for (k-1,k-1) at (k-2,1^{k-d})
    equal: bool


def verify_linear_identity(table: EmbeddingTable, d: int, k: int) -> LinearIdentityReport:
    """Check the two closed forms tying single-row image coefficients to the
    diagonal-d table entries (the source of the linearity constraint)."""
    _require_hypothesis(table, d, k)
    if table.cutoff < k:
        raise CutoffError(f"need cutoff >= {k}, have {table.cutoff}")
    row = image_from_table(table, Partition([k]), max_deficit=d)
    lhs1 = row.coefficient(Partition([1] * (k - d)))
    sign = 1 if (k - 1) % 2 == 0 else -1
    rhs1 = sign * (
        table.entry(k, k - d)
        - 2 * table.entry(k - 1, k - 1 - d)
        + table.entry(k - 2, k - 2 - d)
    )
    f_k = row.as_sum()
    f_k1 = image_from_table(table, Partition([k - 1]), max_deficit=d).as_sum()
    f_k2 = image_from_table(table, Partition([k - 2]), max_deficit=d).as_sum()
    floor = 2 * k - 2 - d
    two_row = bcd_multiply(f_k1, f_k1, min_degree=floor) - bcd_multiply(
        f_k, f_k2, min_degree=floor
    )
    lhs2 = two_row.coefficient(Partition([k - 2] + [1] * (k - d)))
    return LinearIdentityReport(
        d=d,
        k=k,
        row_coefficient=lhs1,
        second_difference=_normalize(Fraction(rhs1)),
        rectangle_coefficient=lhs2,
        equal=(lhs1 == rhs1) and (lhs2 == -lhs1),
    )


class ConstantIdentityReport(NamedTuple):
    d: int
    k: int
    rectangle_coefficient: object  # m for (k^d) at ((k-1)^d)
    table_combination: object  # k*m[d][0] - (k-1)*m[d+1][1]
    equal: bool


def verify_constant_identity(table: EmbeddingTable, d: int, k: int) -> ConstantIdentityReport:
    """Check the rectangle coefficient against its two-entry closed form
    (the source of the constancy constraint on diagonal d)."""
    _require_hypothesis(table, d, k)
    if table.cutoff < k + d:
        raise CutoffError(f"need cutoff >= {k + d}, have {table.cutoff}")
    lhs = image_from_table(table, Partition([k] * d), max_deficit=d).coefficient(
        Partition([k - 1] * d)
    )
    rhs = k * table.entry(d, 0) - (k - 1) * table.entry(d + 1, 1)
    return ConstantIdentityReport(
        d=d,
        k=k,
        rectangle_coefficient=lhs,
        table_combination=_normalize(Fraction(rhs)),
        equal=lhs == rhs,
    )


class ParityReport(NamedTuple):
    k: int
    computed: object
    expected: object
    equal: bool


def parity_coefficient(p: Series, k: int) -> ParityReport:
    """For even p, the empty-shape coefficient in the image of (2k+1, 1)
    equals a_{2k} - a_{2k+2}."""
    expected = p.coeff(2 * k) - p.coeff(2 * k + 2)  # also validates the order
    if not p.is_even(through=2 * k + 2):
        raise ValueError("parity_coefficient needs an even series")
    lam = Partition([2 * k + 1, 1])
    computed = image_by_skewing(p, lam).coefficient(EMPTY)
    return ParityReport(
        k=k, computed=computed, expected=_normalize(Fraction(expected)), equal=computed == expected
    )
