"""The type-A ring: Littlewood-Richardson combinatorics on formal sums.

Two independent tableau algorithms live here and are cross-checked by the
test suite:

* ``skew_expand`` enumerates column-strict fillings of a fixed skew shape
  whose reverse reading word (right to left, top to bottom) is a lattice
  word, counting them by content; ``lr_coefficient`` reads one coefficient
  off that expansion.
* ``schur_multiply`` expands a product by growing the first shape with
  successive horizontal strips, one strip per row of the second shape,
  keeping the prefix condition that makes the combined filling a lattice
  filling.  The strips are added level by level, and partial fillings that
  agree on the shape and on the last strip's prefix, clamped to the length
  of the next strip, are merged and extended once.

The memo entries are keyed by the parts tuples of their shapes, but each
entry is an ``{id: int}`` dict over shape ids (see
:mod:`stablechar.partitions`), and every sum is taken on those ids: CPython
caches no tuple's hash, so an accumulator keyed by parts tuples would hash
each tuple twice per term it adds.  ``_lattice_fillings`` and
``_strip_product`` still compute on parts; their results are converted to
ids once, when they are stored.  ``schur_multiply`` and
``bcd.bcd_multiply`` share one bilinear accumulation that scales both
operands to integer coefficients, merges (mu, nu) and (nu, mu) into one
unordered pair of ids before any basis product is looked up, adds ints, and
divides once per output term; the minors of
``dual_jacobi_trudi``, the kernel slices of ``series.kappa_expansion`` and
the weighted skew sums of ``_skew_sum`` are summed the same way.  The last
is one sum for both skewing routes: ``embeddings.image_by_skewing`` weights
each subdiagram mu of lam by its kappa coefficient, and
``kr.kr_decomposition`` weights the even-row or even-column mu by 1.

``Partition`` objects are built only for the ``FormalSum`` a public
function returns, and each is the one the registry keeps for its id
(``partitions._shape``).

Littlewood-Richardson coefficients are invariant under conjugating all
three shapes, c^lam_{mu,nu} = c^{lam'}_{mu',nu'}.  So a memo miss first
looks up the conjugate key (lam'/mu', or mu' * nu' under the same ordering
rule as mu * nu); when that entry is there its terms are transposed and
stored under the requested key.  A product neither entry answers is built
by ``_strip_product`` in the orientation whose content (the factor with
fewer rows) is shorter: on mu' * nu' when min(mu_1, nu_1) is less than
min(len(mu), len(nu)), transposing the result.

``dual_jacobi_trudi`` is the ring-generic determinant evaluator used to
rebuild images of arbitrary shapes from images of single columns (the
e-basis Jacobi-Trudi identity, Macdonald I.(3.5)).  It expands along the
first column, as ``series._minor`` does, so every minor is the determinant
of a smaller shape and is memoized under that shape's conjugate parts, in a
memo the caller may own and share across the shapes of one generator
family.  It can truncate every minor below a degree floor (each minor is
homogeneous in the generator grading, so the floor is well defined).

The memo tables of skew expansions and basis products (``skew`` and
``product``) live in :mod:`cache`; a derived entry is stored under its own
key like any other.  Conjugates are read from the registry, which fills
each in on first use.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Callable

from . import cache
from .partitions import EMPTY, Partition, _conjugate_id, _parts_of, _shape, _shape_id, _size_of

__all__ = [
    "BASES",
    "BasisMismatchError",
    "FormalSum",
    "lr_coefficient",
    "skew_expand",
    "schur_multiply",
    "omega",
    "dual_jacobi_trudi",
]

BASES = ("schur", "sp", "o")
_SYMBOL = {"schur": "s", "sp": "sp", "o": "o"}


class BasisMismatchError(ValueError):
    """Raised when an operation mixes formal sums over different bases."""


def _normalize(c):
    if isinstance(c, Fraction) and c.denominator == 1:
        return c.numerator
    return c


def _integers(values) -> tuple[int, list[int]]:
    """(d, [d * x for x in values]) with d the lcm of the denominators of
    the int or ``Fraction`` values."""
    values = list(values)
    den = 1
    for x in values:
        if type(x) is not int:
            den = lcm(den, x.denominator)
    if den == 1:
        return 1, values
    return den, [x.numerator * (den // x.denominator) for x in values]


class FormalSum:
    """Sparse linear combination of partitions with exact coefficients.

    Coefficients are ints or ``Fraction``; zero coefficients are never
    stored.  Ring multiplication depends on the basis and lives in module
    functions (``schur_multiply`` here, ``bcd_multiply`` in :mod:`bcd`).
    """

    __slots__ = ("basis", "terms")

    def __init__(self, basis: str, terms=None):
        if basis not in BASES:
            raise ValueError(f"unknown basis {basis!r}")
        self.basis = basis
        self.terms: dict[Partition, object] = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for lam, c in items:
                if c:
                    cur = self.terms.get(lam, 0) + c
                    if cur:
                        self.terms[lam] = _normalize(cur)
                    else:
                        self.terms.pop(lam, None)

    @classmethod
    def zero(cls, basis: str) -> "FormalSum":
        return cls(basis)

    @classmethod
    def unit(cls, basis: str) -> "FormalSum":
        return cls(basis, {EMPTY: 1})

    @classmethod
    def single(cls, basis: str, lam: Partition, coeff=1) -> "FormalSum":
        return cls(basis, {lam: coeff})

    def coefficient(self, lam: Partition):
        return self.terms.get(lam, 0)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _check(self, other: "FormalSum") -> None:
        if self.basis != other.basis:
            raise BasisMismatchError(f"{self.basis} vs {other.basis}")

    def __add__(self, other: "FormalSum") -> "FormalSum":
        self._check(other)
        out = dict(self.terms)
        for lam, c in other.terms.items():
            cur = out.get(lam, 0) + c
            if cur:
                out[lam] = _normalize(cur)
            else:
                out.pop(lam, None)
        return FormalSum._raw(self.basis, out)

    def __sub__(self, other: "FormalSum") -> "FormalSum":
        return self + (-other)

    def __neg__(self) -> "FormalSum":
        return FormalSum._raw(self.basis, {lam: -c for lam, c in self.terms.items()})

    def scaled(self, factor) -> "FormalSum":
        if not factor:
            return FormalSum.zero(self.basis)
        return FormalSum._raw(
            self.basis, {lam: _normalize(c * factor) for lam, c in self.terms.items()}
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FormalSum)
            and self.basis == other.basis
            and self.terms == other.terms
        )

    def __hash__(self):
        raise TypeError("FormalSum is mutable in principle; not hashable")

    @classmethod
    def _raw(cls, basis: str, terms: dict) -> "FormalSum":
        out = cls.__new__(cls)
        out.basis = basis
        out.terms = terms
        return out

    def sorted_terms(self) -> list[tuple[Partition, object]]:
        """Terms ordered by size, largest first, then descending lex."""
        return sorted(
            self.terms.items(), key=lambda kv: (-kv[0].size, tuple(-p for p in kv[0]))
        )

    def map_partitions(self, fn: Callable[[Partition], Partition]) -> "FormalSum":
        out: dict[Partition, object] = {}
        for lam, c in self.terms.items():
            key = fn(lam)
            cur = out.get(key, 0) + c
            if cur:
                out[key] = cur
            else:
                out.pop(key, None)
        return FormalSum._raw(self.basis, out)

    def restricted(self, min_degree: int | None = None, max_degree: int | None = None) -> "FormalSum":
        out = {
            lam: c
            for lam, c in self.terms.items()
            if (min_degree is None or lam.size >= min_degree)
            and (max_degree is None or lam.size <= max_degree)
        }
        return FormalSum._raw(self.basis, out)

    def graded(self) -> dict[int, "FormalSum"]:
        slices: dict[int, dict] = {}
        for lam, c in self.terms.items():
            slices.setdefault(lam.size, {})[lam] = c
        return {d: FormalSum._raw(self.basis, t) for d, t in sorted(slices.items())}

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        sym = _SYMBOL[self.basis]
        pieces = []
        for lam, c in self.sorted_terms():
            body = f"{sym}[{','.join(str(p) for p in lam)}]"
            mag = abs(c)
            text = body if mag == 1 else f"{mag}*{body}"
            pieces.append(("-" if c < 0 else "+", text))
        sign, first = pieces[0]
        out = ("-" if sign == "-" else "") + first
        for sign, text in pieces[1:]:
            out += f" {sign} {text}"
        return out

    def __repr__(self) -> str:
        return f"FormalSum({self.basis!r}, {self.terms!r})"

    def to_json(self) -> dict:
        """Schema-1 JSON form: terms in ``sorted_terms`` order, coefficients
        as strings."""
        return {
            "schema": 1,
            "basis": self.basis,
            "terms": [
                {"mu": lam.to_json(), "coeff": str(c)} for lam, c in self.sorted_terms()
            ],
        }


# ---------------------------------------------------------------------------
# Lattice fillings of a fixed skew shape.
# ---------------------------------------------------------------------------

_skew_cache: dict[tuple, dict[int, int]] = cache.table("skew")
_product_cache: dict[tuple, dict[int, int]] = cache.table("product")


def _conjugate(parts: tuple) -> tuple:
    """The parts of the conjugate of the partition with these parts."""
    return _parts_of[_conjugate_id(_shape_id(parts))]


def _transposed(terms: dict[int, int], least: int = 0) -> dict[int, int]:
    """A memo entry's terms of degree >= ``least``, every shape conjugated."""
    return {_conjugate_id(t): c for t, c in terms.items() if not least or _size_of[t] >= least}


def _by_id(terms: dict[tuple, int]) -> dict[int, int]:
    """Terms keyed by parts, keyed by shape id instead: a memo entry."""
    return {_shape_id(t): c for t, c in terms.items()}


def _lattice_fillings(lamp: tuple, mup: tuple) -> dict[tuple, int]:
    """Count column-strict lattice fillings of lam/mu by their content.

    Cells are visited in reverse reading order so the lattice condition can
    be enforced as each entry is placed.
    """
    nrows = len(lamp)
    mup = mup + (0,) * (nrows - len(mup))
    counts = [0] * nrows  # entry values never exceed the row index + 1
    tally: dict[tuple, int] = {}

    def do_row(r: int, prev_row: tuple) -> None:
        if r == nrows:
            key = tuple(counts)
            while key and key[-1] == 0:
                key = key[:-1]
            tally[key] = tally.get(key, 0) + 1
            return
        width = lamp[r]
        inner = mup[r]
        cur = [0] * (width + 1)

        def do_cell(c: int) -> None:
            if c < inner:
                do_row(r + 1, tuple(cur))
                return
            vmin = 1
            if c < len(prev_row) and prev_row[c]:
                vmin = prev_row[c] + 1
            vmax = cur[c + 1] if c + 1 < width else r + 1
            for v in range(vmin, vmax + 1):
                idx = v - 1
                if v > 1 and counts[idx - 1] <= counts[idx]:
                    continue
                counts[idx] += 1
                cur[c] = v
                do_cell(c - 1)
                counts[idx] -= 1
            cur[c] = 0

        do_cell(width - 1)

    do_row(0, ())
    return tally


def lr_coefficient(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Littlewood-Richardson coefficient: multiplicity of lam in mu * nu,
    read off the skew expansion of lam/mu."""
    if lam.size != mu.size + nu.size:
        return 0
    return skew_expand(lam, mu).coefficient(nu)


def _skew(lam: tuple, mu: tuple) -> dict[int, int]:
    """The memo entry of lam/mu, for mu inside lam."""
    key = (lam, mu)
    cached = _skew_cache.get(key)
    if cached is None:
        conjugate = _skew_cache.get((_conjugate(lam), _conjugate(mu)))
        if conjugate is not None:
            cached = _transposed(conjugate)
        else:
            cached = _by_id(_lattice_fillings(lam, mu))
        _skew_cache[key] = cached
    return cached


def _skew_sum(lam: tuple, weights) -> dict[Partition, object]:
    """Terms of the sum of w * s_{lam/mu} over the (mu, w) pairs of
    ``weights``, every mu inside lam.  The memo entries are summed with the
    weights scaled to integers, in one accumulator, and divided once; a
    zero weight is skipped, so its skew expansion is never computed."""
    # Each skew is taken before the next weight is read: computing every
    # weight of lam first raised the peak RSS of `verify --prop oracle
    # --max-size 12` from 23.5 to 25.2 MB (CPython 3.11).
    entries = [(w, _skew(lam, mu)) for mu, w in weights if w]
    den, ints = _integers([w for w, _ in entries])
    acc: dict[int, int] = {}
    for (_, entry), w in zip(entries, ints):
        _accumulate(acc, entry.items(), w)
    return _terms(acc, den)


def skew_expand(lam: Partition, mu: Partition) -> FormalSum:
    """Schur expansion of the skew shape lam/mu (zero if mu is not inside)."""
    if not lam.contains(mu):
        return FormalSum.zero("schur")
    return FormalSum._raw(
        "schur", {_shape(t): c for t, c in _skew(lam.parts, mu.parts).items()}
    )


# ---------------------------------------------------------------------------
# Products by iterated horizontal strips.
# ---------------------------------------------------------------------------


def _strip_product(base_parts: tuple, content_parts: tuple) -> dict[tuple, int]:
    """Expand s_base * s_content by adding one horizontal strip per row of
    ``content``, subject to the prefix condition: cells of row t in the
    first r rows never exceed cells of row t-1 in the first r-1 rows.

    The strips are added level by level.  Level t holds
    ``{(shape, prefix of row t's strip): count of partial fillings}``, so
    partial fillings that agree on both are extended once; the last level
    keys on the shape alone.  A strip can put at most ``shape[r]`` cells in
    the rows below row r, so row r takes at least ``remaining - shape[r]``
    cells and no branch runs out of room.

    Strip t+1 holds content[t+1] <= content[t] cells, so a prefix count of
    strip t bounds it only while the count is below content[t+1].  The
    prefix counts, and the padding past the last row strip t reaches, are
    therefore stored clamped to content[t+1]: states that differ only above
    it are merged.
    """
    states: dict = {(base_parts, None): 1}
    last = len(content_parts) - 1
    for t, need in enumerate(content_parts):
        merged: dict = {}
        final = t == last
        clamp = 0 if final else content_parts[t + 1]
        for (base, prev), count in states.items():
            basez = base + (0,)
            if prev is None:  # row 0 of the content: no prefix condition
                prev = (need,) * len(basez)

            # new: rows 0..r-1 of the grown shape; prefix[i]: strip cells in
            # rows 0..i-1, clamped.  Rows with a single choice are taken in
            # the loop.
            def rows(r: int, remaining: int, cum: int, new: tuple, prefix: tuple) -> None:
                while remaining:
                    here = basez[r]
                    cap = prev[r] - cum
                    if r and cap > basez[r - 1] - here:
                        cap = basez[r - 1] - here
                    if cap > remaining:
                        cap = remaining
                    least = remaining - here if remaining > here else 0
                    if cap != least:
                        for a in range(cap, least - 1, -1):
                            c = cum + a
                            # The last level keys on the shape alone.
                            after = prefix if final else prefix + (c if c < clamp else clamp,)
                            rows(r + 1, remaining - a, c, new + (here + a,), after)
                        return
                    cum += cap
                    remaining -= cap
                    new += (here + cap,)
                    if not final:
                        prefix += (cum if cum < clamp else clamp,)
                    r += 1
                shape = new + base[r:]
                if final:
                    merged[shape] = merged.get(shape, 0) + count
                else:
                    key = (shape, prefix + (clamp,) * (len(shape) - r))
                    merged[key] = merged.get(key, 0) + count

            rows(0, need, 0, (), (0,))
        states = merged
    return states


def _product_order(mu: tuple, nu: tuple) -> tuple[tuple, tuple]:
    """(base, content) of s_mu * s_nu: the strip recursion branches over
    rows of the content, so the content is the factor with fewer rows.  The
    parts break ties, so that both orders of a pair give one memo key."""
    if (len(nu), sum(nu), nu) > (len(mu), sum(mu), mu):
        return nu, mu
    return mu, nu


def _schur_basis_product(mu: tuple, nu: tuple) -> dict[int, int]:
    """s_mu * s_nu for nonempty parts mu and nu, as a memo entry."""
    mu, nu = _product_order(mu, nu)
    key = (mu, nu)
    cached = _product_cache.get(key)
    if cached is None:
        mu_t, nu_t = _product_order(_conjugate(mu), _conjugate(nu))
        conjugate = _product_cache.get((mu_t, nu_t))
        if conjugate is not None:
            cached = _transposed(conjugate)
        elif len(nu_t) < len(nu):  # the conjugate pair has the shorter content
            cached = _transposed(_by_id(_strip_product(mu_t, nu_t)))
        else:
            cached = _by_id(_strip_product(mu, nu))
        _product_cache[key] = cached
    return cached


def _accumulate(acc: dict[int, int], items, factor: int, min_degree: int | None = None) -> None:
    """Add factor * mult into ``acc`` for each (shape id, mult) of degree >=
    min_degree.  The sums are divided by a common denominator once, by
    ``_terms``."""
    get = acc.get
    if min_degree is None:
        for key, mult in items:
            acc[key] = get(key, 0) + factor * mult
    else:
        sizes = _size_of
        for key, mult in items:
            if sizes[key] >= min_degree:
                acc[key] = get(key, 0) + factor * mult


def _terms(acc: dict[int, int], den: int = 1) -> dict[Partition, object]:
    """The nonzero sums of ``acc``, each divided by ``den``, keyed by the
    shared ``Partition`` of each shape id."""
    if den == 1:
        return {_shape(key): c for key, c in acc.items() if c}
    return {_shape(key): _normalize(Fraction(c, den)) for key, c in acc.items() if c}


def _combination(pairs) -> dict:
    """Terms of the sum of c * x over the (int c, FormalSum x) in ``pairs``."""
    scaled = [(c, *_integers(x.terms.values()), x.terms) for c, x in pairs]
    den = 1
    for _, d, _, _ in scaled:
        den = lcm(den, d)
    acc: dict[int, int] = {}
    for c, d, ints, terms in scaled:
        _accumulate(acc, zip([_shape_id(lam.parts) for lam in terms], ints), c * (den // d))
    return _terms(acc, den)


def _pair_products(pairs: dict, basis_product, min_degree: int | None = None) -> dict[int, int]:
    """The sum of factor * basis_product(p, q) over ``{(p, q): factor}``.

    p and q are shape ids and ``basis_product`` takes their parts.  Each
    pair is unordered, stored with p <= q, so the empty shape (id 0) can
    only come first; a product with it is the other factor.  With
    ``min_degree`` set, ``basis_product`` gets the floor as a third argument
    and terms below it are dropped.
    """
    acc: dict[int, int] = {}
    for (p, q), factor in pairs.items():
        if not factor:
            continue
        if not p:
            products = {q: 1}
        elif min_degree is None:
            products = basis_product(_parts_of[p], _parts_of[q])
        else:
            products = basis_product(_parts_of[p], _parts_of[q], min_degree)
        _accumulate(acc, products.items(), factor, min_degree)
    return acc


def _bilinear(a: FormalSum, b: FormalSum, basis_product, min_degree: int | None = None) -> dict:
    """Terms of the bilinear extension of a commutative ``basis_product``.

    Both operands are scaled to integer coefficients first, and (mu, nu)
    and (nu, mu) are merged into one pair before any basis product is
    looked up, so the inner loop adds ints; each output coefficient is
    divided once at the end.  With ``min_degree`` set, pairs and terms of
    lower degree are dropped.
    """
    den_a, coeffs_a = _integers(a.terms.values())
    den_b, coeffs_b = _integers(b.terms.values())
    terms_b = [(_shape_id(nu.parts), nu.size, cn) for nu, cn in zip(b.terms, coeffs_b)]
    pairs: dict[tuple, int] = {}
    for mu, cm in zip(a.terms, coeffs_a):
        p, size = _shape_id(mu.parts), mu.size
        for q, nu_size, cn in terms_b:
            if min_degree is not None and size + nu_size < min_degree:
                continue
            pair = (p, q) if p <= q else (q, p)
            pairs[pair] = pairs.get(pair, 0) + cm * cn
    return _terms(_pair_products(pairs, basis_product, min_degree), den_a * den_b)


def schur_multiply(a: FormalSum, b: FormalSum) -> FormalSum:
    """Bilinear extension of the Littlewood-Richardson product."""
    if a.basis != "schur" or b.basis != "schur":
        raise BasisMismatchError("schur_multiply needs both operands in the schur basis")
    return FormalSum._raw("schur", _bilinear(a, b, _schur_basis_product))


def omega(a: FormalSum) -> FormalSum:
    """Transpose every indexing partition, keeping coefficients and basis.

    On the schur basis this is the classical degree-preserving involution;
    on sp/o tags it is a plain relabeling utility.
    """
    return a.map_partitions(Partition.transpose)


# ---------------------------------------------------------------------------
# Generic dual Jacobi-Trudi determinant.
# ---------------------------------------------------------------------------


def dual_jacobi_trudi(
    lam: Partition,
    gen: Callable[[int], FormalSum],
    mult: Callable[[FormalSum, FormalSum], FormalSum],
    max_deficit: int | None = None,
    memo: dict | None = None,
) -> FormalSum:
    """Determinant of the matrix with (i, j) entry gen(lam'_i - i + j).

    ``gen(0)`` must be the ring unit and ``gen(n) = 0`` for n < 0 is implied
    (such entries prune the expansion).  ``mult`` supplies the ring product.
    With ``max_deficit`` set, every minor is truncated to terms of degree at
    least (its generator weight) - max_deficit; minors are homogeneous in
    that weight, so this computes the top ``max_deficit`` degrees of the
    full determinant exactly.  In that mode ``mult`` is called with a third
    argument, the degree floor of the product, so it can skip dead terms.

    The determinant is expanded along its first column, the recursion of
    :func:`stablechar.series._minor`.  With u = lam' the entries are
    gen(u_i - i + j); deleting row k and the first column leaves the matrix
    of u^(k) = (u_0+1, ..., u_{k-1}+1, u_{k+1}, ...), again a partition, so
    det(u) = sum_k (-1)^k gen(u_k - k) det(u^(k)), and the loop stops at the
    first k with u_k < k.  A minor is keyed by (u, max_deficit): it is the
    determinant of the shape u', its weight is |u| and its degree floor
    |u| - max_deficit.  A minor that several shapes share is thus computed
    once per ``memo``.  Pass a dict to share minors across calls; one memo
    serves one ``gen`` and one ``mult``.  Without it each call starts a
    fresh one.
    """
    unit = gen(0)
    if memo is None:
        memo = {}

    def minor(u: tuple) -> FormalSum:
        if not u:
            return unit
        key = (u, max_deficit)
        got = memo.get(key)
        if got is not None:
            return got
        floor = None if max_deficit is None else sum(u) - max_deficit
        expansion = []
        head = ()
        for k, uk in enumerate(u):
            if uk < k:
                break
            g = gen(uk - k)
            sub = minor(head + u[k + 1 :]) if g else None
            if sub:
                term = mult(g, sub) if floor is None else mult(g, sub, floor)
                expansion.append((-1 if k & 1 else 1, term))
            head += (uk + 1,)
        got = memo[key] = FormalSum._raw(unit.basis, _combination(expansion))
        return got

    return minor(lam.transpose().parts)
