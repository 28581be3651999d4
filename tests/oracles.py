"""Independent oracles used to freeze expected values.

None of these share code paths with the package: partition counts come from
the pentagonal-number recurrence, Schur products from the h-determinant plus
the Pieri rule, rectangle skews from the rotated-complement rule, and
determinants from the Leibniz permutation expansion and from Bareiss
elimination (the engine expands its Jacobi-Trudi determinants by minors,
over numbers in ``series`` and over a ring in ``dual_jacobi_trudi``).

Two former engine routes are the exceptions, kept to hold the engine's
integer sums against.  ``kappa_by_slices`` builds the kappa kernel from
graded slices multiplied by ``schur_multiply`` and summed as ``FormalSum``s,
against ``kappa_expansion``.  ``skewing_by_terms`` sums weighted
``skew_expand`` results term by term, against the one skew sum of
``image_by_skewing`` and ``kr_decomposition``.

The rest is used only by the tests, so it lives here rather than in the
engine.  ``newell_littlewood`` evaluates one Newell-Littlewood constant by
the triple sum over (alpha, beta, gamma) of ``skew_expand`` coefficients,
read one at a time through ``lr_coefficient``, against ``bcd_multiply``.
``all_even_rows`` and ``all_even_columns`` test a shape directly, against
``partitions.even_subshapes``, which builds the even shapes from smaller
partitions.  ``canonical_key`` is the sort key of the canonical order,
``weights_to_partition`` inverts ``kr.fundamental_weights``, and
``root_of_critical_cubic`` brackets the root of the quadratic kernel's
critical cubic by exact bisection.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from stablechar.partitions import Partition, partitions_of, subpartitions
from stablechar.schur import FormalSum, schur_multiply, skew_expand
from stablechar.series import KappaExpansion, product_expansion


@lru_cache(maxsize=None)
def partition_count(n: int) -> int:
    """p(n) by Euler's pentagonal recurrence."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    total = 0
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > n and g2 > n:
            break
        sign = -1 if k % 2 == 0 else 1
        total += sign * (partition_count(n - g1) + partition_count(n - g2))
        k += 1
    return total


def horizontal_strip_additions(parts: tuple, k: int) -> list[tuple]:
    """All shapes obtained from ``parts`` by adding a horizontal k-strip."""
    out = []

    def rec(r: int, remaining: int, acc: tuple) -> None:
        if r > len(parts):
            if remaining == 0:
                shape = acc
                while shape and shape[-1] == 0:
                    shape = shape[:-1]
                out.append(shape)
            return
        base = parts[r] if r < len(parts) else 0
        upper = remaining if r == 0 else min(remaining, (parts[r - 1] - base))
        for a in range(upper + 1):
            new = base + a
            if acc and new > acc[-1]:
                continue
            rec(r + 1, remaining - a, acc + (new,))

    rec(0, k, ())
    return out


def pieri_h(terms: dict, k: int) -> dict:
    """Multiply a Schur-coefficient dict by the complete homogeneous h_k."""
    if k == 0:
        return dict(terms)
    out: dict = {}
    for parts, c in terms.items():
        for shape in horizontal_strip_additions(parts, k):
            out[shape] = out.get(shape, 0) + c
    return out


def jt_product(mu: Partition, nu: Partition) -> dict:
    """s_mu * s_nu via the h-determinant for s_nu and iterated Pieri.

    Expands det(h_{nu_i - i + j}) over permutations and applies each row of
    h's to s_mu; completely independent of lattice-word enumeration.
    """
    n = len(nu)
    if n == 0:
        return {mu.parts: 1}
    out: dict = {}
    for perm in itertools.permutations(range(n)):
        sign = _perm_sign(perm)
        degrees = [nu.parts[i] - i + perm[i] for i in range(n)]
        if any(d < 0 for d in degrees):
            continue
        terms = {mu.parts: sign}
        for d in degrees:
            terms = pieri_h(terms, d)
        for shape, c in terms.items():
            cur = out.get(shape, 0) + c
            if cur:
                out[shape] = cur
            else:
                out.pop(shape, None)
    return out


def leibniz_det(rows: list[list]) -> Fraction:
    """Determinant as the signed sum over permutations of products."""
    n = len(rows)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        term = Fraction(_perm_sign(perm))
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


def bareiss_det(rows: list[list]) -> Fraction:
    """Determinant by Bareiss's fraction-free elimination (Math. Comp. 22,
    1968) on the rows scaled to integers, divided once at the end."""
    n = len(rows)
    scale = 1
    m = []
    for row in rows:
        den = math.lcm(*(Fraction(x).denominator for x in row)) if row else 1
        scale *= den
        m.append([int(x * den) for x in row])
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not m[k][k]:
            for r in range(k + 1, n):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        pivot_row = m[k]
        pivot = pivot_row[k]
        for i in range(k + 1, n):
            row = m[i]
            lead = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - lead * pivot_row[j]) // prev
        prev = pivot
    return Fraction(sign * m[n - 1][n - 1] if n else 1, scale)


def leibniz_dual_jacobi_trudi(lam: Partition, gen, mult, max_deficit=None):
    """det(gen(lam'_i - i + j)) as the signed sum over permutations of the
    products of its entries, gen(n) = 0 for n < 0; with ``max_deficit``, only
    the terms of degree >= |lam| - max_deficit.  The columns of lam are
    counted here, and the products are taken left to right from gen(0)."""
    cols = [sum(1 for p in lam.parts if p > c) for c in range(lam.part(0))]
    unit = gen(0)
    total = unit.scaled(0)
    for perm in itertools.permutations(range(len(cols))):
        indices = [cols[i] - i + perm[i] for i in range(len(cols))]
        if any(n < 0 for n in indices):
            continue
        term = unit
        for n in indices:
            term = mult(term, gen(n))
        total = total + term.scaled(_perm_sign(perm))
    if max_deficit is not None:
        total = total.restricted(min_degree=lam.size - max_deficit)
    return total


def _perm_sign(perm: tuple) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def rectangle_complement(height: int, width: int, mu: Partition) -> Partition:
    """The 180-degree rotation of the complement of mu in an h x w box."""
    rows = [width - mu.part(height - 1 - i) for i in range(height)]
    return Partition(rows)


def even_column_slice(degree: int) -> FormalSum:
    """Sum of s_lam over shapes of the given size with all columns even."""
    return FormalSum("schur", {lam: 1 for lam in partitions_of(degree) if all_even_columns(lam)})


def kappa_by_slices(p, cutoff: int) -> KappaExpansion:
    """The kappa kernel of p through ``cutoff``: slice d is the sum over
    d1 <= d of product slice d1 times the even-column slice d - d1."""
    prod = product_expansion(p, cutoff)
    graded = {}
    for d in range(cutoff + 1):
        acc = FormalSum.zero("schur")
        for d1 in range(d + 1):
            acc = acc + schur_multiply(prod.graded[d1], even_column_slice(d - d1))
        graded[d] = acc
    return KappaExpansion(cutoff, graded)


def skewing_by_terms(lam: Partition, weight, basis: str) -> FormalSum:
    """The sum of weight(mu) * s_{lam/mu} over the subdiagrams mu of lam, in
    the given basis, added up one ``skew_expand`` sum at a time."""
    total = FormalSum.zero("schur")
    for mu in subpartitions(lam):
        total = total + skew_expand(lam, mu).scaled(weight(mu))
    return FormalSum(basis, total.terms)


def all_even_columns(lam: Partition) -> bool:
    """True iff every column height is even (lam = (2mu)' for some mu),
    that is iff the rows come in equal pairs (an odd count never does)."""
    return lam.parts[0::2] == lam.parts[1::2]


def all_even_rows(lam: Partition) -> bool:
    """True iff every part is even."""
    return all(p % 2 == 0 for p in lam.parts)


def canonical_key(lam: Partition) -> tuple:
    """Sort key for (size ascending, descending lexicographic) order."""
    return (lam.size, tuple(-p for p in lam.parts))


def lr_coefficient(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Littlewood-Richardson coefficient: multiplicity of lam in mu * nu,
    read off the skew expansion of lam/mu."""
    if lam.size != mu.size + nu.size:
        return 0
    return skew_expand(lam, mu).coefficient(nu)


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
    for alpha in subpartitions(Partition(map(min, mu.parts, nu.parts))):
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


def weights_to_partition(pairs) -> Partition:
    """Inverse of :func:`stablechar.kr.fundamental_weights`."""
    heights = {}
    for l, c in pairs:
        if l < 1 or c < 0:
            raise ValueError("weights need positive index and nonnegative coefficient")
        heights[l] = heights.get(l, 0) + c
    top = max(heights, default=0)
    parts = []
    for i in range(1, top + 1):
        parts.append(sum(c for l, c in heights.items() if l >= i))
    return Partition(parts)


def _critical_cubic(z: Fraction) -> Fraction:
    return 2 * z**3 + 3 * z**2 + z - 1


def root_of_critical_cubic(tolerance: Fraction = Fraction(1, 10**7)) -> Fraction:
    """Real root of 2z^3 + 3z^2 + z - 1, bracketed by exact sign bisection."""
    lo, hi = Fraction(0), Fraction(1)
    assert _critical_cubic(lo) < 0 < _critical_cubic(hi)
    while hi - lo > tolerance:
        mid = (lo + hi) / 2
        if _critical_cubic(mid) < 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2
