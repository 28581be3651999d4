"""The stable type-B/C/D ring: Newell-Littlewood structure constants.

The product of two universal characters is computed by the contraction
formula

    sp_mu * sp_nu = sum over alpha of  s_{mu/alpha} * s_{nu/alpha}

with the type-A product expanded on the right and everything relabeled back
to the sp (or o) basis.  The structure constants are identical for the sp
and o tags; only the label differs.  ``newell_littlewood`` evaluates one
constant directly from the triple sum over (alpha, beta, gamma), which gives
the test suite a second, independently organized route to the same numbers.

``_nl_basis_product`` merges the (beta, gamma) pairs of every alpha into
one order-free dict, keyed by pairs of shape ids, before it looks up any
s_beta * s_gamma.  Given a degree floor from ``bcd_multiply(...,
min_degree)`` it sums only the alpha that reach the floor.

The memo tables live in :mod:`cache`, keyed by the parts tuples of the two
factors and holding ``{id: int}`` entries over shape ids (see
:mod:`stablechar.partitions`): ``nl`` holds full basis products and
``nl_truncated`` products cut below a floor.  A cached full product also
answers truncated requests.

The constants are invariant under conjugating all three shapes,
N^lam_{mu,nu} = N^{lam'}_{mu',nu'}, and conjugation keeps |alpha|.  So on a
miss the product of the conjugate pair (mu', nu'), full or truncated at the
same |alpha|, is looked up too; its terms, conjugated, are stored under the
requested key.
"""

from __future__ import annotations

from . import cache
from .partitions import Partition, subpartitions
from .schur import (
    BasisMismatchError,
    FormalSum,
    _bilinear,
    _conjugate,
    _pair_products,
    _schur_basis_product,
    _skew,
    _transposed,
    lr_coefficient,
    skew_expand,
)

__all__ = ["newell_littlewood", "bcd_multiply"]

_nl_cache: dict[tuple, dict[int, int]] = cache.table("nl")
# Products truncated below a degree floor, keyed (mu, nu, largest |alpha|);
# the full products are in ``nl``.
_nl_truncated_cache: dict[tuple, dict[int, int]] = cache.table("nl_truncated")


def _meet(mu, nu) -> Partition:
    """The largest shape inside both, for two partitions or two parts tuples."""
    return Partition._trusted(tuple(map(min, mu, nu)))


def _nl_order(mu: tuple, nu: tuple) -> tuple[tuple, tuple]:
    """The factors of sp_mu * sp_nu in memo-key order."""
    return (nu, mu) if mu > nu else (mu, nu)


def _nl_basis_product(mu: tuple, nu: tuple, min_degree: int | None = None) -> dict[int, int]:
    """sp_mu * sp_nu for nonempty parts mu and nu, or at least its terms of
    degree >= ``min_degree``, as a memo entry.

    A term of degree |mu| + |nu| - 2|alpha| comes from alpha alone, so a
    floor bounds |alpha|.  The (beta, gamma) pairs of every alpha are merged
    into one order-free dict before any s_beta * s_gamma is looked up.
    """
    mu, nu = _nl_order(mu, nu)
    key = (mu, nu)
    cached = _nl_cache.get(key)
    if cached is None and min_degree is not None:
        top = (sum(mu) + sum(nu) - min_degree) // 2  # largest |alpha| that counts
        cached = _nl_truncated_cache.get(key + (top,))
    if cached is not None:
        return cached
    meet = _meet(mu, nu)
    if min_degree is None or top >= meet.size:
        top, memo = meet.size, _nl_cache
    else:
        key, memo = key + (top,), _nl_truncated_cache
    # Conjugating mu, nu and alpha keeps |alpha|: the conjugate pair's full
    # product, or its product truncated at the same |alpha|, has the terms.
    key_t = _nl_order(_conjugate(mu), _conjugate(nu))
    conjugate = _nl_cache.get(key_t)
    if conjugate is None and memo is _nl_truncated_cache:
        conjugate = memo.get(key_t + (top,))
    if conjugate is not None:
        out = memo[key] = _transposed(conjugate, sum(mu) + sum(nu) - 2 * top)
        return out
    pairs: dict[tuple, int] = {}
    for alpha in subpartitions(meet):
        if alpha.size > top:
            continue
        left = _skew(mu, alpha.parts)
        right = _skew(nu, alpha.parts).items()
        for b, cb in left.items():
            for g, cg in right:
                pair = (b, g) if b <= g else (g, b)
                pairs[pair] = pairs.get(pair, 0) + cb * cg
    out = memo[key] = _pair_products(pairs, _schur_basis_product)
    return out


def newell_littlewood(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Multiplicity of sp_lam in sp_mu * sp_nu.

    Vanishes unless |lam| = |mu| + |nu| - 2k for some k >= 0; agrees with
    the Littlewood-Richardson coefficient at k = 0.
    """
    drop = mu.size + nu.size - lam.size
    if drop < 0 or drop % 2:
        return 0
    half = drop // 2
    total = 0
    for alpha in subpartitions(_meet(mu, nu)):
        if alpha.size != half:
            continue
        left = skew_expand(mu, alpha)
        right = skew_expand(nu, alpha)
        for beta, cb in left.terms.items():
            for gamma, cg in right.terms.items():
                c = lr_coefficient(lam, beta, gamma)
                if c:
                    total += cb * cg * c
    return total


def bcd_multiply(a: FormalSum, b: FormalSum, min_degree: int | None = None) -> FormalSum:
    """Bilinear extension of the Newell-Littlewood product (sp or o basis).

    ``min_degree`` drops output terms below the given degree; useful when
    only the top degrees of a long product chain are wanted.  The basis
    products are then only built down to that degree.
    """
    if a.basis != b.basis:
        raise BasisMismatchError(f"{a.basis} vs {b.basis}")
    if a.basis not in ("sp", "o"):
        raise BasisMismatchError("bcd_multiply needs the sp or o basis")
    return FormalSum._raw(a.basis, _bilinear(a, b, _nl_basis_product, min_degree))
