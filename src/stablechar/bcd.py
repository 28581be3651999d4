"""The stable type-B/C/D ring: Newell-Littlewood structure constants.

The product of two universal characters is computed by the contraction
formula

    sp_mu * sp_nu = sum over alpha of  s_{mu/alpha} * s_{nu/alpha}

with the type-A product expanded on the right and everything relabeled back
to the sp (or o) basis.  The structure constants are identical for the sp
and o tags; only the label differs.  ``newell_littlewood`` evaluates one
constant directly from the triple sum over (alpha, beta, gamma), which gives
the test suite a second, independently organized route to the same numbers.

The memo table of basis products (``nl``) lives in :mod:`cache`, which can
persist it.
"""

from __future__ import annotations

from . import cache
from .partitions import Partition, subpartitions
from .schur import (
    BasisMismatchError,
    FormalSum,
    _normalize,
    _schur_basis_product,
    lr_coefficient,
    skew_expand,
)

__all__ = ["newell_littlewood", "bcd_multiply"]

_nl_cache: dict[tuple, dict[Partition, int]] = cache.table("nl")


def _meet(mu: Partition, nu: Partition) -> Partition:
    return Partition(min(a, b) for a, b in zip(mu.parts, nu.parts))


def _nl_basis_product(mu: Partition, nu: Partition) -> dict[Partition, int]:
    if mu.parts > nu.parts:
        mu, nu = nu, mu
    key = (mu.parts, nu.parts)
    cached = _nl_cache.get(key)
    if cached is not None:
        return cached
    out: dict[Partition, int] = {}
    for alpha in subpartitions(_meet(mu, nu)):
        left = skew_expand(mu, alpha)
        right = skew_expand(nu, alpha)
        for beta, cb in left.terms.items():
            for gamma, cg in right.terms.items():
                factor = cb * cg
                if beta.is_empty:
                    out[gamma] = out.get(gamma, 0) + factor
                    continue
                if gamma.is_empty:
                    out[beta] = out.get(beta, 0) + factor
                    continue
                for lam, mult in _schur_basis_product(beta, gamma).items():
                    out[lam] = out.get(lam, 0) + factor * mult
    _nl_cache[key] = out
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
    only the top degrees of a long product chain are wanted.
    """
    if a.basis != b.basis:
        raise BasisMismatchError(f"{a.basis} vs {b.basis}")
    if a.basis not in ("sp", "o"):
        raise BasisMismatchError("bcd_multiply needs the sp or o basis")
    out: dict[Partition, object] = {}
    for mu, cm in a.terms.items():
        for nu, cn in b.terms.items():
            if min_degree is not None and mu.size + nu.size < min_degree:
                continue
            factor = cm * cn
            if mu.is_empty or nu.is_empty:
                products = {nu if mu.is_empty else mu: 1}
            else:
                products = _nl_basis_product(mu, nu)
            for lam, mult in products.items():
                if min_degree is not None and lam.size < min_degree:
                    continue
                cur = out.get(lam, 0) + factor * mult
                if cur:
                    out[lam] = _normalize(cur)
                else:
                    out.pop(lam, None)
    return FormalSum._raw(a.basis, out)
