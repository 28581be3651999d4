"""The properties ``stablechar verify`` checks, one generator each.

Each generator yields one ``(label, passed)`` pair per case as soon as the
case is decided; the labels are the lines the command prints, and the tests
consume the same generators.  ``series`` is an iterable of ``(name,
Series)`` pairs, ``tables`` an iterable of ``(d, trial, EmbeddingTable)``.
``oracle`` and ``ringhom`` let a series go before they yield its case, so
a caller that streams the series keeps the state of one at a time.  Engine
functions are bound at module level, where the ``perfbench`` tracer rebinds
them.
"""

from __future__ import annotations

from .bcd import _nl_basis_product
from .embeddings import (
    image_by_skewing,
    image_from_table,
    parity_coefficient,
    table_from_series,
    verify_constant_identity,
    verify_linear_identity,
)
from .kr import quadratic_identity_check, rectangle_check
from .partitions import partitions_through
from .schur import FormalSum, _sum_linear, _sum_of, _sum_product, schur_multiply


def _rectangles(bound: int):
    for family in ("C", "BD"):
        for height in range(1, bound + 1):
            for width in range(1, bound + 1):
                yield family, height, width


def kr(bound: int):
    """Rectangle decompositions against the domino-removal closure."""
    for family, height, width in _rectangles(bound):
        report = rectangle_check(height, width, family)
        yield f"kr family={family} rect={height}x{width}", report.matches


def eqquad(bound: int):
    """The square identity on every rectangle up to bound x bound."""
    for family, height, width in _rectangles(bound):
        report = quadratic_identity_check(height, width, family)
        yield f"eqquad family={family} rect={height}x{width}", report.holds


def parity(series, k: int):
    """The parity formula for k = 0 .. k."""
    for name, p in series:
        for j in range(k + 1):
            report = parity_coefficient(p, j)
            label = f"parity p={name} k={j}: {report.computed} = {report.expected}"
            yield label, report.equal


def oracle(series, largest: int):
    """Skew route against table route for every shape of size <= largest."""
    for name, p in series:
        table = table_from_series(p, largest + 2)
        ok = all(
            image_by_skewing(p, lam).terms == image_from_table(table, lam).terms
            for lam in partitions_through(largest)
        )
        del p, table
        yield f"oracle p={name} max-size={largest}", ok


def ringhom(series, bound: int):
    """Images respect products of shapes of size <= bound (series known through 2 * bound)."""
    shapes = list(partitions_through(bound))
    for name, p in series:
        images = {lam: _sum_of(image_by_skewing(p, lam)) for lam in partitions_through(2 * bound)}
        ok = all(_respects_product(images, mu, nu) for mu in shapes for nu in shapes)
        del p, images
        yield f"ringhom p={name} max-size={bound}", ok


def _respects_product(images, mu, nu) -> bool:
    """Whether f(s_mu) f(s_nu) = f(s_mu s_nu), both sides summed in ints
    from the integer sums ``images`` and compared in lowest terms."""
    product = schur_multiply(FormalSum.single("schur", mu), FormalSum.single("schur", nu))
    lhs = _sum_linear((c, images[lam]) for lam, c in product.terms.items())
    rhs = _sum_product(images[mu], images[nu], _nl_basis_product)
    return lhs == _sum_linear(((1, rhs),))


def identities(prop: str, tables, k: int):
    """The ``linear`` or ``constant`` identity for k = d + 2 .. k on each table."""
    verify = {"linear": verify_linear_identity, "constant": verify_constant_identity}[prop]
    for d, trial, table in tables:
        for j in range(d + 2, k + 1):
            yield f"{prop} d={d} k={j} trial={trial}", verify(table, d, j).equal
