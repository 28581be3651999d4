"""Truncated power series, the kappa kernel, duality, and positivity tests.

A :class:`Series` stores exact rational coefficients a_0 = 1, a_1, ...  up
to a truncation order.  Series built from an explicit finite coefficient
list are flagged ``polynomial`` and extend by zeros for free; truncations of
rational functions (the geom/geom2 presets, duals) refuse to report
coefficients past their order rather than silently padding.

The kappa kernel of p is  prod_i p(x_i) / prod_{i<j} (1 - x_i x_j).  Its
numerator expands in the Schur basis with coefficient of s_lam equal to the
determinant det(a_{lam_i - i + j}); the denominator contributes the classical
sum of s_lam over shapes with all column heights even.  ``product_expansion``
reads the numerator off the scaled minors below, and ``kappa_expansion``
multiplies the two factors degree by degree, each degree one integer sum of
the same minors times the even-column shapes, divided once.  A single
coefficient of the kernel is ``kappa_coefficient``, a sum of skew minors.

Every kernel coefficient is a skew Jacobi-Trudi determinant
D(u, v) = det(a_{u_i - v_j - i + j}), evaluated by ``_det``: Laplace
expansion along the first column, whose minors are again such determinants
for neighbouring shapes.  The coefficients are scaled to integers first
(a_k times L^k, with L the lcm of the denominators), so every minor is an
int and a result is divided once, by L^{|u| - |v|}.  The minors are
memoized per series, in the state that the series holds in its ``_memo``
slot (see ``_state``): they live as long as the series, and an equal but
distinct series starts a memo of its own.  ``cache.clear_all`` does not
empty them.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Iterable, NamedTuple

from .partitions import (
    EMPTY,
    Partition,
    _paired_rows,
    _partitions_tuples,
    _shape_id,
    even_subshapes,
    partitions_of,
)
from .schur import FormalSum, _integers, _pair_products, _schur_basis_product, _terms

__all__ = [
    "Series",
    "TruncationError",
    "KappaExpansion",
    "PositivityVerdict",
    "product_expansion",
    "kappa_expansion",
    "kappa_coefficient",
    "dual",
    "is_kappa_positive",
    "is_product_s_positive",
    "real_negative_roots",
    "QuadraticScanReport",
    "quadratic_scan",
    "quadratic_boundary",
    "random_rational",
]


class TruncationError(ValueError):
    """A coefficient past the stored truncation order was requested."""


def _norm_coeff(c):
    c = Fraction(c) if not isinstance(c, (int, Fraction)) else c
    if isinstance(c, Fraction) and c.denominator == 1:
        return c.numerator
    return c


class Series:
    """p(x) = 1 + a_1 x + ... + a_N x^N with exact rational coefficients."""

    # Immutable after __init__ but for ``_memo``, its state (see ``_state``).
    __slots__ = ("coeffs", "polynomial", "_memo")

    def __init__(self, coeffs: Iterable, polynomial: bool = True):
        coeffs = tuple(_norm_coeff(c) for c in coeffs)
        if not coeffs or coeffs[0] != 1:
            raise ValueError("series must start with constant term 1")
        self.coeffs = coeffs
        self.polynomial = polynomial
        self._memo = None

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, k: int):
        if k < 0:
            return 0
        if k <= self.order:
            return self.coeffs[k]
        if self.polynomial:
            return 0
        raise TruncationError(
            f"coefficient {k} requested but series is truncated at order {self.order}"
        )

    def is_even(self, through: int | None = None) -> bool:
        """True iff every available odd coefficient up to ``through`` is zero."""
        top = self.order if through is None else min(through, self.order)
        return all(self.coeffs[k] == 0 for k in range(1, top + 1, 2))

    def negated_argument(self) -> "Series":
        """p(-x), same truncation."""
        return Series(
            (c if k % 2 == 0 else -c for k, c in enumerate(self.coeffs)),
            polynomial=self.polynomial,
        )

    def times(self, other: "Series") -> "Series":
        if self.polynomial and other.polynomial:
            n = self.order + other.order
            poly = True
        else:
            n = min(
                s.order for s in (self, other) if not s.polynomial
            )
            poly = False
        out = [0] * (n + 1)
        for i in range(min(self.order, n) + 1):
            a = self.coeffs[i]
            if not a:
                continue
            for j in range(min(other.order, n - i) + 1):
                out[i + j] += a * other.coeffs[j]
        return Series(out, polynomial=poly)

    def reciprocal(self, order: int) -> "Series":
        """1/p up to the given order; needs coefficients through that order."""
        if not self.polynomial and order > self.order:
            raise TruncationError(
                f"reciprocal to order {order} needs coefficients past order {self.order}"
            )
        out = [Fraction(1)] + [Fraction(0)] * order
        for n in range(1, order + 1):
            acc = Fraction(0)
            for k in range(1, n + 1):
                ak = self.coeff(k)
                if ak:
                    acc += ak * out[n - k]
            out[n] = -acc
        return Series(out, polynomial=False)

    def truncated(self, order: int) -> "Series":
        if order <= self.order:
            return Series(self.coeffs[: order + 1], polynomial=self.polynomial)
        if not self.polynomial:
            raise TruncationError(f"cannot extend truncation {self.order} to {order}")
        return Series(self.coeffs + (0,) * (order - self.order), polynomial=True)

    # Named presets.  The rational ones take the truncation order they are
    # wanted at; `one` is the exact polynomial 1.

    @classmethod
    def one(cls) -> "Series":
        return cls((1,), polynomial=True)

    @classmethod
    def geom(cls, order: int) -> "Series":
        return cls((1,) * (order + 1), polynomial=False)

    @classmethod
    def geom2(cls, order: int) -> "Series":
        return cls((1 if k % 2 == 0 else 0 for k in range(order + 1)), polynomial=False)

    @classmethod
    def from_text(cls, text: str) -> "Series":
        try:
            coeffs = [Fraction(piece.strip()) for piece in text.split(",")]
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad series {text!r}: {exc}") from None
        return cls(coeffs, polynomial=True)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Series)
            and self.coeffs == other.coeffs
            and self.polynomial == other.polynomial
        )

    def __hash__(self) -> int:
        return hash((self.coeffs, self.polynomial))

    def __repr__(self) -> str:
        kind = "polynomial" if self.polynomial else "truncated"
        return f"Series({list(self.coeffs)!r}, {kind})"


def random_rational(rng: random.Random, bound: int = 100) -> Fraction:
    """Seeded rational with numerator and denominator bounded by ``bound``."""
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


# ---------------------------------------------------------------------------
# Schur expansions.
# ---------------------------------------------------------------------------


class KappaExpansion(NamedTuple):
    """Degree-graded Schur expansion, exact through total degree ``cutoff``."""

    cutoff: int
    graded: dict[int, FormalSum]

    def slice(self, degree: int) -> FormalSum:
        if degree < 0 or degree > self.cutoff:
            raise ValueError(f"degree {degree} outside cutoff {self.cutoff}")
        return self.graded[degree]

    def coefficient(self, lam: Partition):
        return self.slice(lam.size).coefficient(lam)

    def first_negative(self) -> tuple[Partition, object] | None:
        """First negative coefficient in canonical scan order, if any."""
        for d in range(self.cutoff + 1):
            for lam in partitions_of(d):
                c = self.graded[d].coefficient(lam)
                if c < 0:
                    return (lam, c)
        return None


def _state(p: Series) -> tuple[int, tuple, dict, dict]:
    """p's state: (L, (a_k L^k)_k, memo of scaled minors, memo of kappa
    coefficients), where L is the lcm of the denominators of p.  It is built
    on first use and kept in p's ``_memo`` slot, so it lives as long as p.
    It holds values only, never p, so the two form no reference cycle and
    are freed by reference counting alone.  The kappa memo, keyed by parts,
    belongs to :func:`kappa_coefficient`."""
    state = p._memo
    if state is None:
        den, nums = _integers(p.coeffs)
        scaled = tuple(c * den ** (k - 1) if k else 1 for k, c in enumerate(nums))
        state = p._memo = (den, scaled, {}, {})
    return state


def _minor(u: tuple, v: tuple, scaled: tuple, memo: dict) -> int:
    """L^{|u|-|v|} det(a_{u_i - v_j - i + j}) by Laplace expansion along the
    first column.

    Deleting row k and the first column leaves the matrix of the partition
    u^(k) = (u_0+1, ..., u_{k-1}+1, u_{k+1}, ...) over v[1:].  The entry
    index u_k - v_0 - k strictly decreases in k, so the loop stops at the
    first negative one.  :func:`stablechar.schur.dual_jacobi_trudi` runs
    the same recursion with v empty over integer sums of a ring; this one
    stays separate as the integer path of the kernel coefficients.
    """
    if not u:
        return 1
    key = (u, v)
    d = memo.get(key)
    if d is not None:
        return d
    v0 = v[0] if v else 0
    rest = v[1:]
    top = len(scaled)
    d = 0
    head = ()
    for k, uk in enumerate(u):
        i = uk - v0 - k
        if i < 0:
            break
        c = scaled[i] if i < top else 0
        if c:
            m = _minor(head + u[k + 1 :], rest, scaled, memo)
            d = d - c * m if k & 1 else d + c * m
        head += (uk + 1,)
    memo[key] = d
    return d


def _det(p: Series, u: tuple, v: tuple = ()):
    """Skew Jacobi-Trudi determinant det(a_{u_i - v_j - i + j}) of p over the
    parts u and v (v padded with zeros to the length of u).  Like s_{u/v}
    (Macdonald I.(5.4)) it is 0 unless v is contained in u.

    For a truncated series it raises ``TruncationError`` exactly when one
    entry of the matrix lies past the truncation order.
    """
    n = len(u)
    if len(v) > n:
        return 0
    if n == 0:
        return 1
    # The largest index in the matrix, at row 0 and column n - 1.
    p.coeff(u[0] - (v[n - 1] if len(v) == n else 0) + n - 1)
    den, scaled, memo, _ = _state(p)
    d = _minor(u, v, scaled, memo)
    if den == 1:
        return d
    return _norm_coeff(Fraction(d, den ** (sum(u) - sum(v))))


def kappa_coefficient(p: Series, mu: Partition):
    """Coefficient of s_mu in the kappa kernel of p.

    Splitting the kernel into its two factors gives a sum of skew-shaped
    Jacobi-Trudi determinants det(a_{mu_i - rho_j - i + j}) over the
    even-column subdiagrams rho of mu, which ``even_subshapes`` lists.
    The coefficients are memoized in p's state (see ``_state``).
    """
    kappa = _state(p)[3]
    parts = mu.parts
    cached = kappa.get(parts)
    if cached is not None:
        return cached
    total = kappa[parts] = _norm_coeff(sum(_det(p, parts, rho) for rho in even_subshapes(mu, True)))
    return total


def _scaled_minors(p: Series, cutoff: int) -> tuple[int, list[dict[int, int]]]:
    """(L, minors) with minors[d] = {id of lam: m_lam} over the shapes lam
    of size d <= cutoff, descending lex, whose scaled minor m_lam = L^d
    det(a_{lam_i - i + j}) (see ``_det``) is nonzero; the minors come from
    p's state.

    Degree d needs the coefficients through a_d, and the hook (d) is the
    first shape to ask for a_d, so a truncated series fails on its first
    missing coefficient with the message ``Series.coeff`` gives for it.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    p.coeff(min(cutoff, p.order + 1))
    den, scaled, memo, _ = _state(p)
    minors = [
        {_shape_id(u): m for u in _partitions_tuples(d, d) if (m := _minor(u, (), scaled, memo))}
        for d in range(cutoff + 1)
    ]
    return den, minors


def product_expansion(p: Series, cutoff: int) -> KappaExpansion:
    """Schur expansion of prod_i p(x_i) through total degree ``cutoff``:
    the coefficient of s_lam is det(a_{lam_i - i + j}), the scaled minor of
    lam divided by L^{|lam|}."""
    den, minors = _scaled_minors(p, cutoff)
    graded = {d: FormalSum._raw("schur", _terms(row, den**d)) for d, row in enumerate(minors)}
    return KappaExpansion(cutoff, graded)


def kappa_expansion(p: Series, cutoff: int) -> KappaExpansion:
    """Expansion of the kappa kernel of p through total degree ``cutoff``.

    The product expansion times the even-column sum, summed in integers one
    degree d at a time.  The even-column shapes of size 2h are the
    partitions of h with each row repeated, as ``even_subshapes`` builds
    them.  Each scaled minor m_lam of ``_scaled_minors`` meets each
    even-column shape eps of size d - |lam| as one unordered pair of shape
    ids (lam, eps) with factor m_lam L^{|eps|}; the products of the pairs go
    into one accumulator, divided once by L^d.
    """
    den, minors = _scaled_minors(p, cutoff)
    evens = [
        [_shape_id(_paired_rows(mu)) for mu in _partitions_tuples(h, h)]
        for h in range(cutoff // 2 + 1)
    ]
    graded = {}
    for d in range(cutoff + 1):
        pairs: dict[tuple, int] = {}
        for d1 in range(d % 2, d + 1, 2):
            scale = den ** (d - d1)
            for u, m in minors[d1].items():
                for eps in evens[(d - d1) // 2]:
                    pair = (u, eps) if u <= eps else (eps, u)
                    pairs[pair] = pairs.get(pair, 0) + m * scale
        total = _pair_products(pairs, _schur_basis_product)
        graded[d] = FormalSum._raw("schur", _terms(total, den**d))
    return KappaExpansion(cutoff, graded)


class PositivityVerdict(NamedTuple):
    through: int
    violation: tuple[Partition, object] | None

    @property
    def positive(self) -> bool:
        return self.violation is None

    def __str__(self) -> str:
        if self.violation is None:
            return f"positive-through-{self.through}"
        lam, c = self.violation
        return f"violation: s[{','.join(str(x) for x in lam)}] coeff {c}"


def is_kappa_positive(p: Series, cutoff: int) -> PositivityVerdict:
    """Bounded verdict: no claim is made past the cutoff degree."""
    return PositivityVerdict(cutoff, kappa_expansion(p, cutoff).first_negative())


def is_product_s_positive(p: Series, cutoff: int) -> PositivityVerdict:
    return PositivityVerdict(cutoff, product_expansion(p, cutoff).first_negative())


def dual(p: Series, order: int | None = None) -> Series:
    """The involution q = 1 / ((1 - x^2) p(-x)).

    The result carries p's truncation order unless p is an exact polynomial,
    in which case any requested order is available.
    """
    target = p.order if order is None else order
    if not p.polynomial and target > p.order:
        raise TruncationError(
            f"dual to order {target} needs p through order {target}, have {p.order}"
        )
    one_minus_x2 = Series((1, 0, -1), polynomial=True)
    denom = one_minus_x2.times(p.negated_argument())
    return denom.reciprocal(target)


# ---------------------------------------------------------------------------
# Root location for polynomial inputs (exact, via Sturm chains).
# ---------------------------------------------------------------------------


def _poly_trim(a: list[Fraction]) -> list[Fraction]:
    while a and not a[-1]:
        a.pop()
    return a


def _poly_rem(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a = a[:]
    lead = b[-1]
    while len(a) >= len(b) and a:
        factor = a[-1] / lead
        shift = len(a) - len(b)
        for i, bc in enumerate(b):
            a[shift + i] -= factor * bc
        _poly_trim(a)
        if not a:
            break
    return a


def _sturm_chain(p: list[Fraction]) -> list[list[Fraction]]:
    chain = [p, _poly_trim([c * k for k, c in enumerate(p)][1:])]
    while chain[-1]:
        rem = _poly_rem(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-c for c in rem])
    return [q for q in chain if q]


def _variations(signs: list[int]) -> int:
    signs = [s for s in signs if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def _sign_at_zero(q: list[Fraction]) -> int:
    c = q[0]
    return (c > 0) - (c < 0)


def _sign_at_minus_inf(q: list[Fraction]) -> int:
    lead = q[-1]
    s = (lead > 0) - (lead < 0)
    return -s if len(q) % 2 == 0 else s


def real_negative_roots(p: Series) -> bool:
    """Exact test that every root of a polynomial is real and negative.

    Degree-zero input (the constant 1) has no roots and passes vacuously.
    Rejects truncated non-polynomial series.
    """
    if not p.polynomial:
        raise ValueError("real_negative_roots needs a finite polynomial")
    poly = _poly_trim([Fraction(c) for c in p.coeffs])
    if len(poly) <= 1:
        return True
    # The Sturm chain is the Euclidean remainder sequence of p and p', so its
    # last element is a multiple of gcd(p, p'), and p has deg(p) - deg(gcd)
    # distinct complex roots.  The chain counts distinct real roots even for
    # non-squarefree p, and p(0) = 1 is not 0.
    chain = _sturm_chain(poly)
    distinct = len(poly) - len(chain[-1])
    at_neg = _variations([_sign_at_minus_inf(q) for q in chain])
    at_zero = _variations([_sign_at_zero(q) for q in chain])
    # Real negative roots <= real roots <= distinct roots, so every root is
    # real and negative exactly when the first count reaches the last.
    return at_neg - at_zero == distinct


# ---------------------------------------------------------------------------
# The generic quadratic scan.
# ---------------------------------------------------------------------------

_CRITICAL_SHAPE = Partition((3, 2, 2, 1, 1))


class QuadraticScanReport(NamedTuple):
    """Exact kappa data for p = 1 + b x + a x^2 through a degree bound.

    ``critical_coefficient`` is None when the degree bound is below 9, i.e.
    when s[3,2,2,1,1] is out of range.
    """

    a: Fraction
    b: Fraction
    degree: int
    critical_coefficient: object  # coefficient of s[3,2,2,1,1]
    hook_coefficients: tuple  # ((t, coeff of s[2^t,1^t]), ...)
    per_degree_minimum: tuple  # ((degree, shape, coeff), ...)
    binding_shape: Partition
    binding_coefficient: object

    @property
    def all_nonnegative(self) -> bool:
        return self.binding_coefficient >= 0


def quadratic_scan(a, b, degree: int = 11) -> QuadraticScanReport:
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    a = Fraction(a)
    b = Fraction(b)
    kappa = kappa_expansion(Series((1, b, a)), degree)
    hooks = []
    t = 1
    while 3 * t <= degree:
        shape = Partition([2] * t + [1] * t)
        hooks.append((t, kappa.coefficient(shape)))
        t += 1
    per_degree = []
    best_shape, best_coeff = EMPTY, 1
    for d in range(degree + 1):
        d_shape, d_coeff = None, None
        for lam in partitions_of(d):
            c = kappa.graded[d].coefficient(lam)
            if d_coeff is None or c < d_coeff:
                d_shape, d_coeff = lam, c
        per_degree.append((d, d_shape, d_coeff))
        if d_coeff < best_coeff:
            best_shape, best_coeff = d_shape, d_coeff
    critical = kappa.coefficient(_CRITICAL_SHAPE) if degree >= 9 else None
    return QuadraticScanReport(
        a=a,
        b=b,
        degree=degree,
        critical_coefficient=critical,
        hook_coefficients=tuple(hooks),
        per_degree_minimum=tuple(per_degree),
        binding_shape=best_shape,
        binding_coefficient=best_coeff,
    )


def quadratic_boundary(a) -> tuple[Fraction | None, float]:
    """The curve b = a sqrt(a+2) / (a+1); exact when a+2 is a rational square.

    Returns (exact value or None, float approximation).  An a whose
    a / (a+1) or a+2 overflows a float raises ``ValueError``.
    """
    a = Fraction(a)
    if a == -1:
        raise ValueError("a = -1 is a pole of the boundary curve")
    radicand = a + 2
    if radicand < 0:
        raise ValueError("a + 2 must be nonnegative")
    num, den = radicand.numerator, radicand.denominator
    rn, rd = _isqrt_exact(num), _isqrt_exact(den)
    exact = None
    if rn is not None and rd is not None:
        exact = a * Fraction(rn, rd) / (a + 1)
    try:
        approx = float(a / (a + 1)) * math.sqrt(radicand)
    except OverflowError:  # a / (a+1) or a+2 is past the largest float
        raise ValueError("a is too large, or too close to -1, for b(a) to fit in a float") from None
    return exact, approx


def _isqrt_exact(n: int) -> int | None:
    r = math.isqrt(n)
    return r if r * r == n else None
