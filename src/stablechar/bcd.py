"""The stable type-B/C/D ring: Newell-Littlewood structure constants.

The product of two universal characters is computed by the contraction
formula

    sp_mu * sp_nu = sum over alpha of  s_{mu/alpha} * s_{nu/alpha}

with the type-A product expanded on the right and everything relabeled back
to the sp (or o) basis.  The structure constants are identical for the sp
and o tags; only the label differs.  The test suite's oracle
``newell_littlewood`` evaluates one constant directly from the triple sum
over (alpha, beta, gamma), a second, independently organized route to the
same numbers.

``_nl_basis_product`` merges the (beta, gamma) pairs of every alpha into
one order-free dict, keyed by pairs of shape ids, before it looks up any
s_beta * s_gamma.  Given a degree floor from ``bcd_multiply(...,
min_degree)`` it sums only the alpha that reach the floor.

The memo tables live in :mod:`cache`, keyed by shape ids (see
:mod:`stablechar.partitions`) and holding the (ids, mults) entries of
:mod:`stablechar.schur`, which ``schur._entry`` builds: ``nl`` holds full
basis products, keyed by the unordered pair (p, q) with p <= q, and
``nl_truncated`` products cut below a floor, keyed (p, q, largest
|alpha|).  A cached full product also answers truncated requests.

The constants are invariant under conjugating all three shapes,
N^lam_{mu,nu} = N^{lam'}_{mu',nu'} (Koike-Terada, J. Algebra 107, 1987),
and conjugation keeps |alpha|.  So, as in :mod:`stablechar.schur`, one
entry serves the pair (p, q) and its conjugate pair (p', q'), full or
truncated at the same |alpha|.  ``_nl_basis_product`` looks up the
requested key, then the conjugate key, and returns (entry, flipped)
without copying the entry; ``schur._pair_products`` reads it.  A product
neither key answers is computed as requested and stored under the
requested key.  Each of its skews s_{p/alpha} is read through
``_pair_products`` too, so its ids are in the requested orientation before
the (beta, gamma) pairs are formed.
"""

from __future__ import annotations

from . import cache
from .partitions import Partition, _conjugate_id, _parts_of, _shape_id, _size_of, subpartitions
from .schur import (
    BasisMismatchError,
    Entry,
    FormalSum,
    _entry,
    _pair_products,
    _schur_basis_product,
    _skew,
    _sum_of,
    _sum_product,
    _terms,
)

__all__ = ["bcd_multiply"]

_nl_cache: dict[tuple, Entry] = cache.table("nl")
# Products truncated below a degree floor, keyed (p, q, largest |alpha|);
# the full products are in ``nl``.
_nl_truncated_cache: dict[tuple, Entry] = cache.table("nl_truncated")


def _meet(mu: tuple, nu: tuple) -> Partition:
    """The largest shape inside both of two parts tuples."""
    return Partition._trusted(tuple(map(min, mu, nu)))


def _nl_basis_product(
    p: int, q: int, min_degree: int | None = None
) -> tuple[Entry, bool]:
    """(entry, flipped): sp_p * sp_q for the ids p <= q of nonempty shapes,
    or at least its terms of degree >= ``min_degree``, as a memo entry, and
    whether it is the entry of sp_p' * sp_q', whose terms are the
    conjugates of those of sp_p * sp_q.  A miss is computed and stored as
    requested, so it is never flipped.

    A term of degree |mu| + |nu| - 2|alpha| comes from alpha alone, so a
    floor bounds |alpha|; conjugation keeps |alpha|, so a truncated entry
    answers both orientations at the same bound.  The (beta, gamma) pairs
    of every alpha are merged into one order-free dict before any s_beta *
    s_gamma is looked up.
    """
    key = (p, q)
    cached = _nl_cache.get(key)
    if cached is None and min_degree is not None:
        top = (_size_of[p] + _size_of[q] - min_degree) // 2  # largest |alpha| that counts
        cached = _nl_truncated_cache.get(key + (top,))
    if cached is not None:
        return cached, False
    pt, qt = _conjugate_id(p), _conjugate_id(q)
    key_t = (pt, qt) if pt <= qt else (qt, pt)
    cached = _nl_cache.get(key_t)
    if cached is None and min_degree is not None:
        cached = _nl_truncated_cache.get(key_t + (top,))
    if cached is not None:
        return cached, True
    meet = _meet(_parts_of[p], _parts_of[q])
    if min_degree is None or top >= meet.size:
        top, memo = meet.size, _nl_cache
    else:
        key, memo = key + (top,), _nl_truncated_cache
    pairs: dict[tuple, int] = {}
    for alpha in subpartitions(meet):
        if alpha.size > top:
            continue
        a = _shape_id(alpha.parts)
        left = _pair_products({(p, a): 1}, _skew).items()
        right = _pair_products({(q, a): 1}, _skew).items()
        for b, cb in left:
            for g, cg in right:
                pair = (b, g) if b <= g else (g, b)
                pairs[pair] = pairs.get(pair, 0) + cb * cg
    sums = {t: c for t, c in _pair_products(pairs, _schur_basis_product).items() if c}
    out = memo[key] = _entry(sums, sums.values())
    return out, False


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
    den, acc = _sum_product(_sum_of(a), _sum_of(b), _nl_basis_product, min_degree)
    return FormalSum._raw(a.basis, _terms(acc, den))
