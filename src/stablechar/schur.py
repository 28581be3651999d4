"""The type-A ring: Littlewood-Richardson combinatorics on formal sums.

Two independent tableau algorithms live here and are cross-checked by the
test suite:

* ``skew_expand`` enumerates column-strict fillings of a fixed skew shape
  whose reverse reading word (right to left, top to bottom) is a lattice
  word, counting them by content; its coefficients are the
  Littlewood-Richardson coefficients c^lam_{mu,nu}.
* ``schur_multiply`` expands a product by growing the first shape with
  successive horizontal strips, one strip per row of the second shape,
  keeping the prefix condition that makes the combined filling a lattice
  filling.  ``_strip_product`` adds the strips level by level, and partial
  fillings that agree on the shape and on the last strip's prefix, clamped
  to the length of the next strip, are merged and extended once.  Two
  module-level recursions place the cells of one strip, taking the state as
  arguments: ``_strip_states`` for every level but the last, keyed on
  (shape, prefix), and ``_last_strip`` for the last, which carries no
  prefix and keys on the shape alone.

The memo entries are keyed by shape ids (see :mod:`stablechar.partitions`):
lam/mu by (lam, mu), and the product of p and q by the unordered pair (p,
q) with p <= q.  One entry serves a key and its conjugate key (lam'/mu',
or the sorted pair of p' and q'), stored under the key of the orientation
it was computed in.
Each entry is a pair of equal length, (ids, mults): a tuple of the shape
ids of its terms and their nonzero multiplicities, as ``bytes`` when every
one is below 256 and as a tuple of ints otherwise.  A term thus costs one
pointer and one byte, where a dict slot costs several pointers; the ids
are the registry's ints, and iterating over ``bytes`` yields the shared
small ints, so both layouts read alike.  Only this module knows the
layout: ``_entry`` builds an entry and ``_pair_products``, the one reader,
reads its (id, mult) terms through ``_entry_items``, in the order it was
built.
Every sum is taken on ids: CPython caches no tuple's hash, so a key or an
accumulator made of parts tuples would hash whole tuples on every lookup.
``_lattice_fillings`` and ``_strip_product`` still compute on parts; their
results are converted to ids once, by ``_by_id``, when they are stored.

A rectangle (w^h) needs no tableaux: it skews by mu to the single shape
(w - mu_h, ..., w - mu_1), the complement of mu turned by 180 degrees, with
multiplicity 1, which ``_complement`` computes.  ``_skew`` answers such a
skew from the parts alone, before any memo lookup, and stores nothing;
``_lattice_fillings``, which the tests hold it against, serves every other
shape.  ``_skew_sum`` over a rectangle takes no ids at all: distinct mu
have distinct complements, so it builds one ``Partition`` per mu of its
summed weights, registering none.

Sums are taken in one integer form, the integer sum (den, {shape id:
int}), each with its own denominator.  ``_sum_of`` reads a ``FormalSum``
into one, ``_terms`` is the one writer of ``FormalSum`` terms, and between
them ``_sum_product`` multiplies two integer sums and ``_sum_linear`` takes
an integer combination of them, in lowest terms.  ``schur_multiply`` and
``bcd.bcd_multiply`` are ``_sum_product`` between ``_sum_of`` and
``_terms``: it merges (mu, nu) and (nu, mu) into one unordered pair of ids
before any basis product is looked up, adds ints, and the result is
divided once per output term.  The minors of ``dual_jacobi_trudi`` stay
integer sums from the generators to the result, and ``checks.ringhom``
sums both sides of each product in them.  The kernel slices of
``series.kappa_expansion`` and the weighted skew sums of ``_skew_sum`` are
summed in ints the same way.  The last is one sum for both skewing
routes: ``embeddings.image_by_skewing`` weights each subdiagram mu of lam
by its kappa coefficient, ``kr.kr_decomposition`` weights the even-row or
even-column mu by 1, and ``skew_expand`` weights its one mu by 1.

``Partition`` objects are built only for the ``FormalSum`` a public
function returns, and each is the one the registry keeps for its id
(``partitions._shape``), except the terms of a rectangle's skew sum,
which have no id.

Littlewood-Richardson coefficients are invariant under conjugating all
three shapes, c^lam_{mu,nu} = c^{lam'}_{mu',nu'}.  So ``_skew`` and
``_schur_basis_product`` return (entry, flipped): they look up the
requested key first, and on a miss the conjugate key, its ids read from
the registry.  An entry found there is returned as it is, flipped: its
terms are the conjugates of the requested ones.  No read copies an entry.
Every entry is read by ``_pair_products``, which sums the flipped entries
in an accumulator of their own and moves each sum to the conjugate shape
once; ``_skew_sum``, ``skew_expand`` and the Newell-Littlewood pair loop
of :mod:`bcd` take their skews through it.
An entry neither key answers is computed once and stored under the key of
the orientation it was computed in, so no entry is ever transposed.  A
skew is computed as requested.  A product is built by ``_strip_product``
in the orientation whose content (the factor with fewer rows) is shorter:
on mu' * nu', returned flipped, when min(mu_1, nu_1) is less than
min(len(mu), len(nu)).

``dual_jacobi_trudi`` is the determinant evaluator used to rebuild images
of arbitrary shapes from images of single columns (the e-basis
Jacobi-Trudi identity, Macdonald I.(3.5)); the basis of its unit picks the
ring product.  It expands along the first column, as ``series._minor``
does, so every minor is the determinant of a smaller shape and is memoized
under that shape's conjugate parts, in a memo the caller may own and share
across the shapes of one generator family.  ``_determinant`` runs the
recursion on integer sums, each minor stored in lowest terms, and
``embeddings.image_from_table`` calls it directly.  It can truncate every
minor below a degree floor (each minor is homogeneous in the generator
grading, so the floor is well defined).

The memo tables of skew expansions and basis products (``skew`` and
``product``) live in :mod:`cache`, one entry per conjugate class.
Conjugate ids are read from the registry, which fills each in on first
use.  No entry is transposed, so the conjugate of a term's shape is
registered only when a flipped read moves a sum to it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Callable

from . import cache
from .partitions import EMPTY, Partition, _conjugate_id, _parts_of, _shape, _shape_id, _size_of

__all__ = [
    "BASES",
    "BasisMismatchError",
    "FormalSum",
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

# A memo entry: the shape ids of its terms and their multiplicities, as
# bytes when all are below 256.
Entry = tuple[tuple[int, ...], bytes | tuple[int, ...]]

_skew_cache: dict[tuple, Entry] = cache.table("skew")
_product_cache: dict[tuple, Entry] = cache.table("product")


def _entry(ids, mults) -> Entry:
    """The memo entry of the terms with these shape ids and multiplicities,
    given in one order: a tuple of ids and, of equal length, the
    multiplicities as ``bytes`` if each fits in a byte, else as a tuple."""
    mults = tuple(mults)
    try:
        mults = bytes(mults)
    except ValueError:  # a multiplicity of 256 or more
        pass
    return tuple(ids), mults


def _entry_items(entry: Entry):
    """The (shape id, mult) terms of a memo entry, in its order, each mult
    an int whichever layout holds it."""
    return zip(*entry)


def _by_id(terms: dict[tuple, int]) -> Entry:
    """Terms keyed by parts, as a memo entry over their shape ids."""
    return _entry(map(_shape_id, terms), terms.values())


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


def _complement(box: tuple, inner: tuple) -> tuple:
    """The parts of the single shape of the rectangle ``box`` = (w^h) skewed
    by ``inner`` = mu inside it: the complement of mu in the h x w box
    turned by 180 degrees, (w - mu_h, ..., w - mu_1) with zeros dropped.
    Its multiplicity is 1."""
    width = box[0]
    rest = tuple(width - m for m in reversed(inner) if m < width)
    return (width,) * (len(box) - len(inner)) + rest


def _skew(lam: int, mu: int, min_degree: int | None = None) -> tuple[Entry, bool]:
    """(entry, flipped): the memo entry of lam/mu for shape ids lam and mu,
    mu inside lam, and whether it is the entry of lam'/mu', whose terms are
    the conjugates of those of lam/mu.  Every term has degree |lam| - |mu|,
    so a degree floor (``_pair_products`` passes one) is ignored.

    A rectangle lam skews to its ``_complement`` of mu alone; that entry is
    built on each call and never stored."""
    parts = _parts_of[lam]
    if parts and parts[0] == parts[-1]:
        return ((_shape_id(_complement(parts, _parts_of[mu])),), b"\x01"), False
    key = (lam, mu)
    cached = _skew_cache.get(key)
    if cached is not None:
        return cached, False
    cached = _skew_cache.get((_conjugate_id(lam), _conjugate_id(mu)))
    if cached is not None:
        return cached, True
    cached = _skew_cache[key] = _by_id(_lattice_fillings(parts, _parts_of[mu]))
    return cached, False


def _skew_sum(lam: Partition, weights) -> dict[Partition, object]:
    """Terms of the sum of w * s_{lam/mu} over the (mu, w) pairs of
    ``weights``, every mu the parts of a partition inside lam; the weights
    of a repeated mu add up, and a zero sum is dropped, so its skew
    expansion is never computed.  The memo entries are summed by
    ``_pair_products`` with the weights scaled to integers, and divided
    once.

    A rectangle lam skews by each mu to a distinct ``_complement``, so its
    sum is built from parts, one ``Partition`` per mu, and registers no
    shape id."""
    sums: dict[tuple, object] = {}
    for mu, w in weights:
        if w:
            sums[mu] = sums.get(mu, 0) + w
    parts = lam.parts
    if parts and parts[0] == parts[-1]:
        return {
            Partition._trusted(_complement(parts, mu)): _normalize(c)
            for mu, c in sums.items()
            if c
        }
    outer = _shape_id(parts)
    den, ints = _integers(sums.values())
    pairs = {(outer, _shape_id(mu)): w for mu, w in zip(sums, ints)}
    return _terms(_pair_products(pairs, _skew), den)


def skew_expand(lam: Partition, mu: Partition) -> FormalSum:
    """Schur expansion of the skew shape lam/mu (zero if mu is not inside)."""
    if not lam.contains(mu):
        return FormalSum.zero("schur")
    return FormalSum._raw("schur", _skew_sum(lam, ((mu.parts, 1),)))


# ---------------------------------------------------------------------------
# Products by iterated horizontal strips.
# ---------------------------------------------------------------------------


def _strip_product(base_parts: tuple, content_parts: tuple) -> dict[tuple, int]:
    """Expand s_base * s_content, content nonempty, by adding one horizontal
    strip per row of ``content``, subject to the prefix condition: cells of
    row t in the first r rows never exceed cells of row t-1 in the first r-1
    rows.

    The strips are added level by level.  Every level but the last holds
    ``{(shape, prefix of row t's strip): count of partial fillings}``, so
    partial fillings that agree on both are extended once; ``_strip_states``
    places its strips.  The last level keys on the shape alone, and
    ``_last_strip``, which carries no prefix, places its strips.

    Strip t+1 holds content[t+1] <= content[t] cells, so a prefix count of
    strip t bounds it only while the count is below content[t+1].  The
    prefix counts, and the padding past the last row strip t reaches, are
    therefore stored clamped to content[t+1]: states that differ only above
    it are merged.  Row 0 of the content has no prefix condition: its bound
    is content[0] in every row, which no strip exceeds.
    """
    states = {(base_parts, (content_parts[0],) * (len(base_parts) + 1)): 1}
    for need, clamp in zip(content_parts, content_parts[1:]):
        merged: dict = {}
        for (base, prev), count in states.items():
            _strip_states(merged, count, base, base + (0,), prev, clamp, 0, need, 0, (), (0,))
        states = merged
    shapes: dict = {}
    need = content_parts[-1]
    for (base, prev), count in states.items():
        _last_strip(shapes, count, base, base + (0,), prev, 0, need, 0, ())
    return shapes


# The two helpers place the ``remaining`` cells of one strip in rows r, r+1,
# ... of ``base``, ``basez`` being base with a zero row appended.  ``cum``
# counts the strip's cells in rows 0..r-1, ``new`` holds rows 0..r-1 of the
# grown shape, and ``prev[r]`` bounds the cells of the strip in rows 0..r
# (the prefix condition).  ``prev`` was stored clamped to the length of the
# strip it bounds (level 0's is that length), so ``prev[r] - cum`` never
# exceeds ``remaining``.  A strip can put at most ``base[r]`` cells in the
# rows below row r, so row r takes at least ``remaining - base[r]`` cells and
# no branch runs out of room.  Rows with a single choice are taken in the
# loop, and the choice that places every remaining cell in row r adds its
# shape at once.  Each adds ``count`` into ``merged`` per completed strip,
# in the order of the choices, largest first.


def _strip_states(merged, count, base, basez, prev, clamp, r, remaining, cum, new, prefix):
    """Place a strip of a middle level; ``prefix[i]`` is the strip's cell
    count in rows 0..i-1, clamped to ``clamp``, and a completed strip keys
    on (shape, prefix)."""
    while True:
        here = basez[r]
        cap = prev[r] - cum
        if r and cap > basez[r - 1] - here:
            cap = basez[r - 1] - here
        least = remaining - here if remaining > here else 0
        if cap != least:
            break
        cum += cap
        remaining -= cap
        new += (here + cap,)
        prefix += (cum if cum < clamp else clamp,)
        r += 1
        if not remaining:  # the strip ends in the zero row: base[r:] is empty
            key = (new, prefix)
            merged[key] = merged.get(key, 0) + count
            return
    if cap == remaining:  # the strip ends in row r, where its count reaches clamp
        shape = new + (here + cap,) + base[r + 1 :]
        key = (shape, prefix + (clamp,) * (len(shape) - r))
        merged[key] = merged.get(key, 0) + count
        cap -= 1
    for a in range(cap, least - 1, -1):
        c = cum + a
        _strip_states(
            merged, count, base, basez, prev, clamp, r + 1, remaining - a, c,
            new + (here + a,), prefix + (c if c < clamp else clamp,),
        )


def _last_strip(merged, count, base, basez, prev, r, remaining, cum, new):
    """Place a strip of the last level; a completed strip keys on its shape."""
    while True:
        here = basez[r]
        cap = prev[r] - cum
        if r and cap > basez[r - 1] - here:
            cap = basez[r - 1] - here
        least = remaining - here if remaining > here else 0
        if cap != least:
            break
        cum += cap
        remaining -= cap
        new += (here + cap,)
        r += 1
        if not remaining:  # the strip ends in the zero row
            merged[new] = merged.get(new, 0) + count
            return
    if cap == remaining:  # the strip ends in row r
        shape = new + (here + cap,) + base[r + 1 :]
        merged[shape] = merged.get(shape, 0) + count
        cap -= 1
    for a in range(cap, least - 1, -1):
        _last_strip(merged, count, base, basez, prev, r + 1, remaining - a, cum + a, new + (here + a,))


def _product_order(mu: tuple, nu: tuple) -> tuple[tuple, tuple]:
    """(base, content) of s_mu * s_nu: the strip recursion branches over
    rows of the content, so the content is the factor with fewer rows.  The
    size and then the parts break ties, so each pair has one orientation."""
    if (len(nu), sum(nu), nu) > (len(mu), sum(mu), mu):
        return nu, mu
    return mu, nu


def _schur_basis_product(p: int, q: int, min_degree: int | None = None) -> tuple[Entry, bool]:
    """(entry, flipped): s_p * s_q for the ids p <= q of nonempty shapes, as
    a memo entry, and whether it is the entry of s_p' * s_q', whose terms
    are the conjugates of those of s_p * s_q.  Every term has degree |p| +
    |q|, so a degree floor is ignored: ``_sum_product`` skips a pair below
    it before the product is looked up.

    A product neither orientation has stored is built, and stored, in the
    orientation whose content is shorter, the requested one on a tie."""
    key = (p, q)
    cached = _product_cache.get(key)
    if cached is not None:
        return cached, False
    pt, qt = _conjugate_id(p), _conjugate_id(q)
    key_t = (pt, qt) if pt <= qt else (qt, pt)
    cached = _product_cache.get(key_t)
    if cached is not None:
        return cached, True
    mu, nu = _product_order(_parts_of[p], _parts_of[q])
    mu_t, nu_t = _product_order(_parts_of[pt], _parts_of[qt])
    if len(nu_t) < len(nu):  # the conjugate pair has the shorter content
        key, mu, nu = key_t, mu_t, nu_t
    cached = _product_cache[key] = _by_id(_strip_product(mu, nu))
    return cached, key != (p, q)


def _accumulate(acc: dict[int, int], items, factor: int) -> None:
    """Add factor * mult into ``acc`` for each (shape id, mult) of ``items``.
    The sums are divided by a common denominator once, by ``_terms``.  A
    factor of 1, the most common, skips the multiply."""
    get = acc.get
    if factor == 1:
        for key, mult in items:
            acc[key] = get(key, 0) + mult
    else:
        for key, mult in items:
            acc[key] = get(key, 0) + factor * mult


def _terms(acc: dict[int, int], den: int = 1) -> dict[Partition, object]:
    """The nonzero sums of ``acc``, each divided by ``den``, keyed by the
    shared ``Partition`` of each shape id."""
    if den == 1:
        return {_shape(key): c for key, c in acc.items() if c}
    return {_shape(key): _normalize(Fraction(c, den)) for key, c in acc.items() if c}


def _pair_products(pairs: dict, basis_product, min_degree: int | None = None) -> dict[int, int]:
    """The sum of factor * basis_product(p, q, min_degree) over ``{(p, q):
    factor}``, the one reader of memo entries.

    p and q are shape ids, and so are the arguments of ``basis_product``,
    which returns (entry, flipped) as ``_skew`` and the basis products do.
    A pair with p = 0 needs no entry: a product pair is stored with p <= q,
    so the empty shape (id 0) can only come first and the product is the
    other factor, and the only skew of the empty shape is empty/empty.
    The entries read flipped are summed apart, and each of those sums is
    moved to the conjugate shape once.  With ``min_degree`` set, the terms
    below it are then dropped, once: ``basis_product`` may use the floor to
    bound its work, but an entry it returns may hold lower terms (a full
    Newell-Littlewood product answers a floored request).
    """
    acc: dict[int, int] = {}
    flipped_acc: dict[int, int] = {}
    for (p, q), factor in pairs.items():
        if not factor:
            continue
        if p:
            products, flipped = basis_product(p, q, min_degree)
        else:
            products, flipped = ((q,), b"\x01"), False
        _accumulate(flipped_acc if flipped else acc, _entry_items(products), factor)
    if flipped_acc:
        _accumulate(acc, zip(map(_conjugate_id, flipped_acc), flipped_acc.values()), 1)
    if min_degree is not None:
        acc = {key: c for key, c in acc.items() if _size_of[key] >= min_degree}
    return acc


# An integer sum (den, {shape id: int}) stands for the sum of int / den *
# s_id (sp_id, o_id): each sum carries its own denominator.  ``_sum_of``
# reads a ``FormalSum`` into one and ``_terms`` writes one back.
IntSum = tuple[int, dict[int, int]]


def _sum_of(x) -> IntSum:
    """The integer sum of the terms of x, a ``FormalSum`` or a
    ``Decomposition``, its denominator the lcm of theirs."""
    den, ints = _integers(x.terms.values())
    return den, dict(zip([_shape_id(lam.parts) for lam in x.terms], ints))


def _sum_product(a: IntSum, b: IntSum, basis_product, min_degree: int | None = None) -> IntSum:
    """The bilinear extension of a commutative ``basis_product`` to two
    integer sums, over the product of their denominators.

    (mu, nu) and (nu, mu) are merged into one pair before any basis product
    is looked up, so the inner loop adds ints.  With ``min_degree`` set,
    pairs and terms of lower degree are dropped.  Zero sums are kept.
    """
    sizes = _size_of
    terms_b = [(q, sizes[q], cq) for q, cq in b[1].items()]
    pairs: dict[tuple, int] = {}
    for p, cp in a[1].items():
        size = sizes[p]
        for q, q_size, cq in terms_b:
            if min_degree is not None and size + q_size < min_degree:
                continue
            pair = (p, q) if p <= q else (q, p)
            pairs[pair] = pairs.get(pair, 0) + cp * cq
    return a[0] * b[0], _pair_products(pairs, basis_product, min_degree)


def _sum_linear(pairs) -> IntSum:
    """The sum of c * x over the (int c, integer sum x) in ``pairs``, in
    lowest terms: zero sums dropped and the denominator the least one, so
    that equal values are equal integer sums."""
    pairs = list(pairs)
    den = lcm(*(d for _, (d, _) in pairs))
    acc: dict[int, int] = {}
    for c, (d, terms) in pairs:
        _accumulate(acc, terms.items(), c * (den // d))
    acc = {key: c for key, c in acc.items() if c}
    g = gcd(den, *acc.values())
    if g == 1:
        return den, acc
    return den // g, {key: c // g for key, c in acc.items()}


def schur_multiply(a: FormalSum, b: FormalSum) -> FormalSum:
    """Bilinear extension of the Littlewood-Richardson product."""
    if a.basis != "schur" or b.basis != "schur":
        raise BasisMismatchError("schur_multiply needs both operands in the schur basis")
    den, acc = _sum_product(_sum_of(a), _sum_of(b), _schur_basis_product)
    return FormalSum._raw("schur", _terms(acc, den))


def omega(a: FormalSum) -> FormalSum:
    """Transpose every indexing partition, keeping coefficients and basis.

    On the schur basis this is the classical degree-preserving involution;
    on sp/o tags it is a plain relabeling utility.
    """
    return a.map_partitions(Partition.transpose)


# ---------------------------------------------------------------------------
# Generic dual Jacobi-Trudi determinant.
# ---------------------------------------------------------------------------


def _determinant(u: tuple, gen, basis_product, max_deficit: int | None, memo: dict) -> IntSum:
    """The integer sum of the determinant with (i, j) entry gen(u_i - i + j),
    the dual Jacobi-Trudi determinant of the shape u'; ``gen(n)`` is an
    integer sum and ``basis_product`` the ring's (see ``dual_jacobi_trudi``,
    which documents the recursion, the truncation and the memo)."""
    if not u:
        return gen(0)
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
        sub = _determinant(head + u[k + 1 :], gen, basis_product, max_deficit, memo)
        expansion.append((-1 if k & 1 else 1, _sum_product(gen(uk - k), sub, basis_product, floor)))
        head += (uk + 1,)
    got = memo[key] = _sum_linear(expansion)
    return got


def dual_jacobi_trudi(
    lam: Partition,
    gen: Callable[[int], FormalSum],
    max_deficit: int | None = None,
    memo: dict | None = None,
) -> FormalSum:
    """Determinant of the matrix with (i, j) entry gen(lam'_i - i + j).

    ``gen(0)`` must be the ring unit and ``gen(n) = 0`` for n < 0 is implied
    (such entries prune the expansion).  The basis of ``gen(0)`` fixes the
    product: Littlewood-Richardson on schur, Newell-Littlewood on sp and o.
    With ``max_deficit`` set, every minor is truncated to terms of degree at
    least (its generator weight) - max_deficit; minors are homogeneous in
    that weight, so this computes the top ``max_deficit`` degrees of the
    full determinant exactly.  Each product then skips the terms below the
    minor's degree floor (on schur, whose basis products are homogeneous,
    it skips whole pairs of terms).

    The determinant is expanded along its first column, the recursion of
    :func:`stablechar.series._minor`.  With u = lam' the entries are
    gen(u_i - i + j); deleting row k and the first column leaves the matrix
    of u^(k) = (u_0+1, ..., u_{k-1}+1, u_{k+1}, ...), again a partition, so
    det(u) = sum_k (-1)^k gen(u_k - k) det(u^(k)), and the loop stops at the
    first k with u_k < k.  A minor is keyed by (u, max_deficit): it is the
    determinant of the shape u', its weight is |u| and its degree floor
    |u| - max_deficit.  A minor that several shapes share is thus computed
    once per ``memo``.  Every minor is an integer sum in lowest terms, so it
    carries the denominator its value needs.  Pass a dict to share minors
    across calls; one memo serves one ``gen``.  Without it each call starts
    a fresh one.
    """
    from .bcd import _nl_basis_product  # bcd imports this module

    basis = gen(0).basis
    basis_product = _schur_basis_product if basis == "schur" else _nl_basis_product
    u, memo = lam.transpose().parts, {} if memo is None else memo
    den, acc = _determinant(u, lambda n: _sum_of(gen(n)), basis_product, max_deficit, memo)
    return FormalSum._raw(basis, _terms(acc, den))
