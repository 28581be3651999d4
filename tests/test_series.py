import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from oracles import bareiss_det, kappa_by_slices, leibniz_det

from stablechar import cache
from stablechar.embeddings import kappa_coefficient
from stablechar.partitions import (
    EMPTY,
    Partition,
    all_even_columns,
    all_even_rows,
    partitions_of,
    partitions_through,
)
from stablechar.schur import FormalSum, omega, schur_multiply
from stablechar.series import (
    _det,
    KappaExpansion,
    PositivityVerdict,
    Series,
    TruncationError,
    dual,
    is_kappa_positive,
    is_product_s_positive,
    kappa_expansion,
    product_expansion,
    quadratic_boundary,
    quadratic_scan,
    random_rational,
    real_negative_roots,
    root_of_critical_cubic,
)

rationals = st.fractions(
    min_value=Fraction(-3), max_value=Fraction(3), max_denominator=8
)


def test_series_validation_and_coeffs():
    with pytest.raises(ValueError):
        Series((2, 1))
    p = Series.geom2(4)
    assert [p.coeff(k) for k in range(5)] == [1, 0, 1, 0, 1]
    with pytest.raises(TruncationError):
        p.coeff(5)
    poly = Series.from_text("1,1/2,0,3")
    assert poly.coeff(1) == Fraction(1, 2)
    assert poly.coeff(17) == 0  # exact polynomials extend by zero
    assert Series.one().is_even()
    assert not poly.is_even()


def test_series_text_errors():
    with pytest.raises(ValueError):
        Series.from_text("1,abc")
    with pytest.raises(ValueError):
        Series.from_text("1,1/0")


def test_det_matches_leibniz_oracle():
    rng = random.Random(2024)

    def entry():
        if rng.random() < 0.25:
            return 0
        if rng.random() < 0.3:
            return rng.randint(-9, 9)
        return random_rational(rng, 12)

    cases = [[]]
    for n in range(1, 7):
        for _ in range(12):
            cases.append([[entry() for _ in range(n)] for _ in range(n)])
        pivot_zero = [[entry() for _ in range(n)] for _ in range(n)]
        pivot_zero[0][0] = 0
        pivot_zero[-1][0] = Fraction(3, 7)  # a row swap is needed
        cases.append(pivot_zero)
    singular = [[entry() for _ in range(6)] for _ in range(6)]
    singular[-1] = [2 * x for x in singular[0]]
    cases.append(singular)
    cases.append([[0, 1, 2], [0, 3, Fraction(1, 2)], [Fraction(5, 3), 1, 1]])
    for rows in cases:
        assert bareiss_det(rows) == leibniz_det(rows), rows
    assert bareiss_det([]) == 1
    assert bareiss_det(singular) == 0


def _jacobi_trudi_rows(p, u, v):
    n = len(u)
    v = v + (0,) * (n - len(v))
    return [[p.coeff(u[i] - v[j] - i + j) for j in range(n)] for i in range(n)]


def _random_skew_pair(rng, n, width):
    u = tuple(sorted((rng.randint(1, width) for _ in range(n)), reverse=True))
    v = []
    for part in u:
        v.append(min(v[-1] if v else part, rng.randint(0, part)))
    while v and not v[-1]:
        v.pop()
    return u, tuple(v)


def test_kernel_det_matches_determinant_oracles():
    rng = random.Random(41)
    width = 5
    order = width + 10  # the largest matrix index for 11 rows
    series = [
        Series((1, 3, -2, 5, 1, -4)),
        Series([1] + [random_rational(rng, 9) for _ in range(6)]),
        Series((1, 0, Fraction(2, 3), 0, 0, -1, 0, Fraction(-7, 4))),
        Series.geom(order),
        Series.geom2(order),
    ]
    pairs = [((), ()), ((3, 1), (2, 2)), ((2, 2, 1), (3,)), ((4, 1, 1), (2, 2, 2))]
    pairs += [_random_skew_pair(rng, n, width) for n in range(1, 12) for _ in range(4)]
    expected = {}
    for p in series:
        for u, v in pairs:
            rows = _jacobi_trudi_rows(p, u, v)
            oracle = leibniz_det(rows) if len(u) <= 6 else bareiss_det(rows)
            cache.clear_all()
            assert _det(p, u, v) == oracle, (p, u, v)
            expected[p, u, v] = oracle
    # Neither a memo warmed by other shapes of the same series nor one left
    # behind by another series changes a value.
    for p in series:
        for u, v in pairs:
            assert _det(p, u, v) == expected[p, u, v]
    for u, v in pairs:
        for p in series:
            assert _det(p, u, v) == expected[p, u, v]


def test_kernel_det_edge_cases():
    p = Series.geom(3)
    with pytest.raises(TruncationError):
        kappa_coefficient(p, Partition((3, 2)))
    assert kappa_coefficient(p, Partition((2, 2))) == 1
    with pytest.raises(TruncationError):
        product_expansion(p, 4)
    assert product_expansion(p, 3).coefficient(Partition((1, 1, 1))) == 0
    # v lowers the largest index of the matrix, u_0 - v_{n-1} + n - 1.
    with pytest.raises(TruncationError):
        _det(p, (3, 2), (1,))
    assert _det(p, (3, 2), (1, 1)) == 0
    quad = Series((1, Fraction(1, 2), 3))
    for q in (p, quad):
        assert _det(q, (2, 1), (3,)) == 0
        assert _det(q, (2,), (1, 1)) == 0
        assert _det(q, (), (1,)) == 0
        assert _det(q, ()) == 1
        assert kappa_coefficient(q, EMPTY) == 1


def test_product_expansion_elementary_series():
    # prod (1 + x_i) puts coefficient 1 on every single column.
    exp = product_expansion(Series.from_text("1,1"), 6)
    for d in range(7):
        for lam in partitions_of(d):
            expected = 1 if all(p == 1 for p in lam.parts) else 0
            assert exp.graded[d].coefficient(lam) == expected


def test_product_expansion_negative_determinant():
    exp = product_expansion(Series.from_text("1,1,1"), 3)
    assert exp.coefficient(Partition((1, 1, 1))) == -1


def test_product_expansion_trivial_series():
    exp = product_expansion(Series.one(), 5)
    assert exp.graded[0] == FormalSum.unit("schur")
    for d in range(1, 6):
        assert exp.graded[d].is_zero


def test_kappa_littlewood_identities_small():
    cases = [
        (Series.one(), all_even_columns),
        (Series.geom2(6), all_even_rows),
        (Series.geom(6), lambda lam: True),
    ]
    for p, predicate in cases:
        kappa = kappa_expansion(p, 6)
        for d in range(7):
            for lam in partitions_of(d):
                expected = 1 if predicate(lam) else 0
                assert kappa.graded[d].coefficient(lam) == expected


KAPPA_ORACLE_SERIES = [
    Series.one(),
    Series.geom2(14),
    Series((1, Fraction(1, 2), Fraction(-2, 3), Fraction(3, 5))),
    # Quadratics 1 + b x + a x^2 at scan points (a, b).
    Series((1, Fraction(3, 10), Fraction(1, 4))),
    Series((1, Fraction(7, 5), 1)),
    Series((1, Fraction(-1, 3), Fraction(-1, 2))),
]


@pytest.mark.parametrize("p", KAPPA_ORACLE_SERIES, ids=repr)
def test_kappa_expansion_matches_slice_oracle(p):
    got = kappa_expansion(p, 14)
    cache.clear_all()
    want = kappa_by_slices(p, 14)
    assert got.cutoff == want.cutoff
    assert got.graded == want.graded


def test_kappa_expansion_truncation_matches_slice_oracle():
    for order in range(6):
        p = Series.geom(order)
        for cutoff in range(order + 3):
            outcomes = []
            for route in (kappa_expansion, kappa_by_slices):
                cache.clear_all()
                try:
                    outcomes.append(route(p, cutoff).graded)
                except TruncationError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1], (order, cutoff)
            assert isinstance(outcomes[0], str) == (cutoff > order)


def test_kappa_expansion_requires_enough_coefficients():
    with pytest.raises(TruncationError):
        kappa_expansion(Series.geom(3), 5)


def test_dual_examples():
    assert dual(Series.one(), order=6).coeffs == (1, 0, 1, 0, 1, 0, 1)
    assert dual(Series.geom(5)).coeffs == (1, 1, 1, 1, 1, 1)
    assert dual(Series.geom2(5)).coeffs == (1, 0, 0, 0, 0, 0)


def test_dual_involution_seeded():
    rng = random.Random(11)
    for _ in range(10):
        coeffs = [1] + [random_rational(rng, 9) for _ in range(8)]
        p = Series(coeffs, polynomial=False)
        assert dual(dual(p)).coeffs == p.coeffs


def test_dual_truncation_guard():
    with pytest.raises(TruncationError):
        dual(Series.geom(4), order=9)


@settings(max_examples=25, deadline=None)
@given(st.lists(rationals, min_size=0, max_size=6))
def test_dual_involution_random(tail):
    p = Series([1] + tail, polynomial=False)
    assert dual(dual(p)).coeffs == p.coeffs


def test_kappa_of_dual_is_omega_of_kappa():
    rng = random.Random(17)
    quad = Series((1, random_rational(rng), random_rational(rng)))
    for p in [Series.one(), Series.geom(6), Series.from_text("1,1"), quad]:
        q = dual(p, order=6)
        kp = kappa_expansion(p if p.polynomial else p.truncated(6), 6)
        kq = kappa_expansion(q, 6)
        for d in range(7):
            assert kq.graded[d] == omega(kp.graded[d])


def test_kappa_coefficient_cross_route():
    # The skew-determinant route used by the embeddings must agree with the
    # graded product route, coefficient by coefficient.
    rng = random.Random(23)
    quad = Series((1, random_rational(rng), random_rational(rng)))
    cubic = Series((1, random_rational(rng), random_rational(rng), random_rational(rng)))
    for p in [Series.one(), Series.geom2(9), quad, Series.geom(9), cubic]:
        kappa = kappa_expansion(p, 9)
        for lam in partitions_through(9):
            assert kappa_coefficient(p, lam) == kappa.coefficient(lam)


def test_generator_duality_recovers_unit():
    # The product kernel of p times the sign-twisted kernel of 1/p(-x)
    # multiplies back to the trivial character, slice by slice.
    rng = random.Random(31)
    for p in [Series.from_text("1,1"), Series((1, random_rational(rng), random_rational(rng)))]:
        n = 6
        inverse = p.negated_argument().reciprocal(n)
        left = product_expansion(p.truncated(n), n)
        right = product_expansion(inverse, n)
        for d in range(n + 1):
            acc = FormalSum.zero("schur")
            for d1 in range(d + 1):
                twisted = right.graded[d - d1].scaled((-1) ** (d - d1))
                acc = acc + schur_multiply(left.graded[d1], twisted)
            expected = FormalSum.unit("schur") if d == 0 else FormalSum.zero("schur")
            assert acc == expected


def test_positivity_verdicts():
    assert is_kappa_positive(Series.geom(10), 10).positive
    verdict = is_kappa_positive(Series.from_text("1,0,2"), 2)
    assert not verdict.positive
    assert verdict.violation == (Partition((1, 1)), -1)
    assert str(verdict) == "violation: s[1,1] coeff -1"
    assert is_kappa_positive(Series.one(), 8).positive

    assert is_product_s_positive(Series.from_text("1,3,2"), 10).positive
    verdict = is_product_s_positive(Series.from_text("1,1,1"), 3)
    assert verdict.violation == (Partition((1, 1, 1)), -1)
    assert is_product_s_positive(Series.one(), 6).positive


def test_real_negative_roots():
    assert real_negative_roots(Series.from_text("1,3,2"))  # roots -1, -1/2
    assert not real_negative_roots(Series.from_text("1,1,1"))  # complex pair
    assert not real_negative_roots(Series.from_text("1,-1"))  # root +1
    assert real_negative_roots(Series.from_text("1,2,1"))  # double root -1
    assert not real_negative_roots(Series.from_text("1,0,1"))  # roots +-i
    assert not real_negative_roots(Series.from_text("1,0,-1"))  # roots +-1
    assert real_negative_roots(Series.one())  # no roots at all
    with pytest.raises(ValueError):
        real_negative_roots(Series.geom(4))


def test_real_negative_roots_implies_product_positivity():
    for text in ("1,1", "1,3,2", "1,3,3,1"):
        p = Series.from_text(text)
        assert real_negative_roots(p)
        assert is_product_s_positive(p, 8).positive


def test_quadratic_scan_trivial_point():
    report = quadratic_scan(0, 0, 9)
    assert report.all_nonnegative
    assert report.binding_coefficient >= 0
    assert report.critical_coefficient == 0


def test_quadratic_scan_boundary_triple():
    a = Fraction(1, 4)
    zero = quadratic_scan(a, Fraction(3, 10), 11)
    below = quadratic_scan(a, Fraction(1, 4), 11)
    above = quadratic_scan(a, Fraction(1, 2), 11)
    assert zero.critical_coefficient == 0
    assert below.critical_coefficient < 0
    assert above.critical_coefficient > 0
    assert below.binding_shape == Partition((3, 2, 2, 1, 1))


def test_quadratic_scan_below_degree_nine():
    report = quadratic_scan(0, 0, 6)
    assert report.critical_coefficient is None
    assert report.all_nonnegative
    with pytest.raises(ValueError):
        quadratic_scan(0, 0, -1)


def test_quadratic_boundary_values():
    exact, approx = quadratic_boundary(Fraction(1, 4))
    assert exact == Fraction(3, 10)
    assert abs(approx - 0.3) < 1e-12
    exact, approx = quadratic_boundary(Fraction(1, 3))
    assert exact is None
    assert approx == pytest.approx((1 / 3) * (7 / 3) ** 0.5 / (4 / 3))


def test_root_of_critical_cubic():
    root = root_of_critical_cubic(Fraction(1, 10**8))
    assert Fraction(398155, 10**6) < root < Fraction(398165, 10**6)


def test_kappa_expansion_grading_invariants():
    rng = random.Random(37)
    kappa = kappa_expansion(Series((1, random_rational(rng), random_rational(rng))), 6)
    assert kappa.graded[0] == FormalSum.unit("schur")
    for d in range(7):
        assert all(lam.size == d for lam in kappa.graded[d].terms)


def test_kappa_expansion_slice_access():
    kappa = kappa_expansion(Series.one(), 4)
    assert isinstance(kappa, KappaExpansion)
    assert kappa.slice(2) == FormalSum.single("schur", Partition((1, 1)))
    with pytest.raises(ValueError):
        kappa.slice(5)
    assert kappa.coefficient(Partition((2, 2))) == 1
    assert isinstance(is_kappa_positive(Series.one(), 2), PositivityVerdict)
