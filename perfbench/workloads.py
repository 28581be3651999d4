"""The in-process ``library`` workload: three families of cases, ``identity``,
``square`` and ``kernel``, that stress different layers of the engine.

Each family takes the seed and returns its cases.  A
case calls the engine and asserts its exact verdict; it raises on a wrong
answer.  Cases of one pass may share results through a dict, so a failure
in an early case also fails the cases that depend on it.

The engine is called through module attributes (``embeddings.verify_...``),
never through names bound here, so that the tracer's rebinding of those
attributes sees every call.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from functools import partial
from typing import Callable, NamedTuple

from stablechar import embeddings, kr, schur, series
from stablechar.partitions import Partition

import oracles


class Case(NamedTuple):
    label: str
    run: Callable[[], None]


# ---------------------------------------------------------------------------
# identity: the row/rectangle identities on seeded random tables (the
# acceptance-07 family).  d = 3, k = 9 alone costs more than the rest of the
# pass together, so the pass stops d = 3 at k = 8 to leave room for several
# passes in one run.
# ---------------------------------------------------------------------------

IDENTITY_TOP_K = {1: 9, 2: 9, 3: 8}
TABLE_CUTOFF = 12


def _linear(table, d: int, k: int) -> None:
    report = embeddings.verify_linear_identity(table, d, k)
    second = table.entry(k, k - d) - 2 * table.entry(k - 1, k - 1 - d) + table.entry(k - 2, k - 2 - d)
    want = second if (k - 1) % 2 == 0 else -second
    assert report.second_difference == want, (report.second_difference, want)
    assert report.row_coefficient == want, (report.row_coefficient, want)
    assert report.rectangle_coefficient == -want, (report.rectangle_coefficient, -want)
    assert report.equal


def _constant(table, d: int, k: int) -> None:
    report = embeddings.verify_constant_identity(table, d, k)
    want = k * table.entry(d, 0) - (k - 1) * table.entry(d + 1, 1)
    assert report.table_combination == want, (report.table_combination, want)
    assert report.rectangle_coefficient == want, (report.rectangle_coefficient, want)
    assert report.equal


def identity(seed: int) -> list[Case]:
    rng = random.Random(seed)
    cases = []
    for d, top in IDENTITY_TOP_K.items():
        table = embeddings.random_table(TABLE_CUTOFF, d, rng)
        digest = hashlib.sha256(repr(table.to_json()).encode()).hexdigest()[:12]
        for k in range(d + 2, top + 1):
            cases.append(Case(f"linear d={d} k={k} table={digest}", partial(_linear, table, d, k)))
            cases.append(Case(f"constant d={d} k={k} table={digest}", partial(_constant, table, d, k)))
    return cases


# ---------------------------------------------------------------------------
# square: rectangle decompositions through 5x5 and the square identity
# through 4x4, both families (the acceptance-10 family).  The cases have no
# random inputs; the seed shuffles their order.
# ---------------------------------------------------------------------------

RECT_BOUND = 5
SQUARE_BOUND = 4


def _rectangle(height: int, width: int, family: str) -> None:
    report = kr.rectangle_check(height, width, family)
    got = {lam.parts: c for lam, c in report.decomposition.terms.items()}
    assert got == {shape: 1 for shape in oracles.domino_closure(height, width, family)}
    assert report.matches


def _square(height: int, width: int, family: str) -> None:
    report = kr.quadratic_identity_check(height, width, family)
    # The top-degree part of W^2 holds sp[(2w)^h] exactly once.
    assert report.lhs.coefficient(Partition([2 * width] * height)) == 1
    assert report.lhs == report.rhs
    assert report.holds


def square(seed: int) -> list[Case]:
    cases = []
    for family in ("C", "BD"):
        for h in range(1, RECT_BOUND + 1):
            for w in range(1, RECT_BOUND + 1):
                cases.append(Case(f"rectangle {family} {h}x{w}", partial(_rectangle, h, w, family)))
        for h in range(1, SQUARE_BOUND + 1):
            for w in range(1, SQUARE_BOUND + 1):
                cases.append(Case(f"square {family} {h}x{w}", partial(_square, h, w, family)))
    random.Random(seed).shuffle(cases)
    return cases


# ---------------------------------------------------------------------------
# kernel: kappa expansions to degree 18, cross-checked against the
# skew-shaped determinant route, the quadratic scan at degree 11 on seeded
# grid points, duals and exact root location on seeded polynomials.  No case
# reaches the Newell-Littlewood product.
# ---------------------------------------------------------------------------

KAPPA_DEGREE = 18
SCAN_DEGREE = 11
CRITICAL = Partition((3, 2, 2, 1, 1))


def _small_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def _text(coeffs) -> str:
    return ",".join(str(c) for c in coeffs)


def _poly_mul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _preset(name: str, predicate) -> None:
    p = {
        "one": series.Series.one(),
        "geom2": series.Series.geom2(KAPPA_DEGREE),
        "geom": series.Series.geom(KAPPA_DEGREE),
    }[name]
    kappa = series.kappa_expansion(p, KAPPA_DEGREE)
    for d in range(KAPPA_DEGREE + 1):
        got = {lam.parts: c for lam, c in kappa.graded[d].terms.items()}
        want = {shape: 1 for shape in oracles.partitions(d) if predicate(shape)}
        assert got == want, (name, d)


def _expand(p, results: dict) -> None:
    results["kappa"] = series.kappa_expansion(p, KAPPA_DEGREE)


def _coefficient(p, lam: Partition, results: dict) -> None:
    got = embeddings.kappa_coefficient(p, lam)
    want = results["kappa"].coefficient(lam)
    assert got == want, (got, want)


def _image(p, lam: Partition, results: dict) -> None:
    """The skew route must equal the sum of skews weighted by the kernel
    coefficients read off the product-route expansion."""
    got = embeddings.image_by_skewing(p, lam).terms
    want: dict = {}
    for mu in oracles.subdiagrams(lam.parts):
        c = results["kappa"].coefficient(Partition(mu))
        if c:
            for nu, mult in schur.skew_expand(lam, Partition(mu)).terms.items():
                want[nu] = want.get(nu, 0) + c * mult
    assert got == {nu: c for nu, c in want.items() if c}


def _scan(a: Fraction, b: Fraction) -> None:
    report = series.quadratic_scan(a, b, SCAN_DEGREE)
    want = embeddings.kappa_coefficient(series.Series((1, b, a)), CRITICAL)
    assert report.critical_coefficient == want, (report.critical_coefficient, want)
    assert report.binding_coefficient == min(c for _, _, c in report.per_degree_minimum)
    assert report.binding_coefficient <= want


def _dual(coeffs: list) -> None:
    order = 12
    p = series.Series(coeffs)
    q = series.dual(p, order=order)
    # q (1 - x^2) p(-x) = 1 through the truncation order.
    p_neg = [c if k % 2 == 0 else -c for k, c in enumerate(coeffs)]
    check = _poly_mul(_poly_mul(list(q.coeffs), [1, 0, -1]), p_neg)[: order + 1]
    assert check == [1] + [0] * order, check
    assert series.dual(q).coeffs == tuple(p.coeff(k) for k in range(order + 1))


def _roots(coeffs: list, expected: bool) -> None:
    assert series.real_negative_roots(series.Series(coeffs)) is expected


def kernel(seed: int) -> list[Case]:
    rng = random.Random(seed)
    results: dict = {}
    cases = [
        Case("preset one", partial(_preset, "one", oracles.even_columns)),
        Case("preset geom2", partial(_preset, "geom2", oracles.even_rows)),
        Case("preset geom", partial(_preset, "geom", lambda shape: True)),
    ]
    p = series.Series([1] + [_small_rational(rng) for _ in range(3)])
    text = _text(p.coeffs)
    cases.append(Case(f"kappa p={text} degree={KAPPA_DEGREE}", partial(_expand, p, results)))
    pool = [shape for n in range(6, 13) for shape in oracles.partitions(n)]
    for shape in rng.sample(pool, 24):
        lam = Partition(shape)
        cases.append(Case(f"coefficient p={text} {lam}", partial(_coefficient, p, lam, results)))
    pool = [shape for n in range(7, 10) for shape in oracles.partitions(n)]
    for shape in rng.sample(pool, 5):
        lam = Partition(shape)
        cases.append(Case(f"image p={text} {lam}", partial(_image, p, lam, results)))
    grid = [Fraction(i, 8) for i in range(17)]  # [0, 2] in steps of 1/8
    for index in rng.sample(range(len(grid) ** 2), 12):
        a, b = grid[index // len(grid)], grid[index % len(grid)]
        cases.append(Case(f"scan a={a} b={b}", partial(_scan, a, b)))
    for _ in range(10):
        coeffs = [1] + [_small_rational(rng) for _ in range(4)]
        cases.append(Case(f"dual p={_text(coeffs)}", partial(_dual, coeffs)))
    for trial in range(12):
        coeffs = [1]
        for _ in range(4):  # (1 + r x) with r > 0 has the root -1/r
            coeffs = _poly_mul(coeffs, [1, Fraction(rng.randint(1, 9), rng.randint(1, 9))])
        real = trial % 2 == 0
        if not real:  # 1 + x + c x^2 with c > 1/4 has a complex pair
            coeffs = _poly_mul(coeffs, [1, 1, Fraction(rng.randint(2, 9), 4)])
        cases.append(Case(f"roots p={_text(coeffs)} expect={real}", partial(_roots, coeffs, real)))
    return cases


def library(seed: int) -> list[Case]:
    return identity(seed) + square(seed) + kernel(seed)


# One workload holds all three families: a run has to last about a minute
# to average out the machine's slow swings in speed, and only two
# workloads of that length fit the time a full benchmark may take.
BUILDERS = {"library": library}
