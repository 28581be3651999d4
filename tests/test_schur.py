import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import jt_product, leibniz_dual_jacobi_trudi
from stablechar import cache, schur
from stablechar.partitions import EMPTY, Partition, partitions_of, partitions_through, subpartitions
from stablechar.schur import (
    BasisMismatchError,
    FormalSum,
    dual_jacobi_trudi,
    lr_coefficient,
    omega,
    schur_multiply,
    skew_expand,
)


def s(*parts):
    return FormalSum.single("schur", Partition(parts))


def test_lr_classic_multiplicity_two():
    lam, mu, nu = Partition((3, 2, 1)), Partition((2, 1)), Partition((2, 1))
    assert lr_coefficient(lam, mu, nu) == 2
    assert jt_product(mu, nu).get(lam.parts) == 2


def test_lr_unit_law():
    for lam in partitions_through(6):
        assert lr_coefficient(lam, EMPTY, lam) == 1
        assert lr_coefficient(lam, lam, EMPTY) == 1


def test_lr_vanishing():
    assert lr_coefficient(Partition((2, 2)), Partition((2,)), Partition((1, 1))) == 0
    # size mismatch and non-containment
    assert lr_coefficient(Partition((3,)), Partition((1,)), Partition((1,))) == 0
    assert lr_coefficient(Partition((2, 2)), Partition((3,)), Partition((1,))) == 0


def test_schur_multiply_pieri_examples():
    assert schur_multiply(s(1), s(1)) == s(2) + s(1, 1)
    assert schur_multiply(s(2), s(1, 1)) == s(3, 1) + s(2, 1, 1)
    a = s(3, 1) + s(2).scaled(5)
    assert schur_multiply(s(), a) == a


def test_schur_multiply_matches_determinant_oracle():
    shapes = list(partitions_through(4))
    for mu in shapes:
        for nu in shapes:
            got = schur_multiply(
                FormalSum.single("schur", mu), FormalSum.single("schur", nu)
            )
            expected = jt_product(mu, nu)
            assert {lam.parts: c for lam, c in got.terms.items()} == expected, (mu, nu)


SPOT_CHECK_PAIRS = [((3, 2), (2, 2, 1)), ((4, 1), (3, 2)), ((2, 2, 1), (2, 2, 1))]
# Contents of three and four rows, where merged strip states and the
# row-capacity bound first matter.
SPOT_CHECK_PAIRS += [
    ((3, 2, 1), (2, 2, 1, 1)),
    ((4, 2), (2, 2, 1)),
    ((3, 1, 1), (2, 1, 1)),
    ((3, 2, 1), (1, 1, 1)),
    ((2, 2, 1), (2, 1, 1, 1)),
    ((2, 1, 1, 1), (2, 1, 1, 1)),
    ((3, 3), (2, 1, 1, 1)),
]


def _product(mu, nu):
    got = schur_multiply(FormalSum.single("schur", mu), FormalSum.single("schur", nu))
    return {lam.parts: c for lam, c in got.terms.items()}


def test_schur_multiply_oracle_spot_checks_size_five():
    for mp, np_ in SPOT_CHECK_PAIRS:
        mu, nu = Partition(mp), Partition(np_)
        assert _product(mu, nu) == jt_product(mu, nu)


def _random_partition(rng, rows, largest):
    return tuple(sorted((rng.randint(1, largest) for _ in range(rows)), reverse=True))


def test_strip_product_matches_oracle_on_deep_contents():
    # Contents of 4 to 6 rows, where strip prefixes are clamped to the next
    # row's length and states that differ only above it merge.
    rng = random.Random(4646)
    for _ in range(60):
        content = _random_partition(rng, rng.randint(4, 6), 4)
        base = _random_partition(rng, rng.randint(1, 4), 4)
        got = schur._strip_product(base, content)
        # The oracle expands its determinant over the rows of the base.
        assert got == jt_product(Partition(content), Partition(base)), (base, content)


def _pairwise_product(a, b, product):
    """The bilinear extension of ``product``, one pair of terms at a time."""
    out = FormalSum.zero(a.basis)
    for mu, cm in a.terms.items():
        for nu, cn in b.terms.items():
            out = out + FormalSum(a.basis, product(mu, nu)).scaled(cm * cn)
    return out


def test_schur_multiply_where_swapped_pairs_cancel():
    # a * b with a = x + y and b = x - y: the (x, y) and (y, x) terms cancel.
    rng = random.Random(808)
    pool = list(partitions_through(5))
    for _ in range(10):
        x, y, z = rng.sample(pool, 3)
        c = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        a = FormalSum("schur", {x: c, y: c, z: 2})
        b = FormalSum("schur", {x: 1, y: -1, z: Fraction(1, 3)})
        oracle = _pairwise_product(
            a, b, lambda mu, nu: {Partition(t): k for t, k in jt_product(mu, nu).items()}
        )
        assert schur_multiply(a, b) == oracle == schur_multiply(b, a), (x, y, z)
        cache.clear_all()


def _record_calls(monkeypatch, name):
    """Record the arguments of every call of ``schur.<name>``."""
    calls = []
    original = getattr(schur, name)

    def recorded(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(schur, name, recorded)
    return calls


def test_products_derived_from_conjugate_entries(monkeypatch):
    strips = _record_calls(monkeypatch, "_strip_product")
    shapes = list(partitions_through(5))
    pairs = [(mu, nu) for mu in shapes for nu in shapes]
    pairs += [(Partition(mp), Partition(np_)) for mp, np_ in SPOT_CHECK_PAIRS]
    conjugate_orientation = set()
    for mu, nu in pairs:
        cache.clear_all()
        strips.clear()
        fresh = _product(mu, nu)
        if strips and set(strips[0]) != {mu.parts, nu.parts}:
            conjugate_orientation.add((mu.parts, nu.parts))
        cache.clear_all()
        _product(mu.transpose(), nu.transpose())
        strips.clear()
        derived = _product(mu, nu)
        assert not strips, (mu, nu)
        # The oracle expands a determinant over the rows of its second shape.
        short, long_ = sorted((mu, nu), key=len)
        assert derived == fresh == jt_product(long_, short), (mu, nu)
    assert ((1, 1, 1), (1, 1, 1, 1)) in conjugate_orientation
    assert ((2, 1, 1, 1), (1, 1, 1)) in conjugate_orientation


def test_skew_expand_examples():
    assert skew_expand(Partition((3, 2, 2)), Partition((1, 1))) == s(3, 1, 1) + s(2, 2, 1)
    assert skew_expand(Partition((3, 2, 2)), Partition((2, 2))) == s(3) + s(2, 1)
    lam = Partition((3, 1))
    assert skew_expand(lam, lam) == s()
    assert skew_expand(Partition((2,)), Partition((1, 1))).is_zero


def test_skew_product_adjointness_exhaustive():
    # <s_{lam/mu}, s_nu> equals the coefficient of s_lam in s_mu s_nu.
    for lam in partitions_through(8):
        for mu in subpartitions(lam):
            expansion = skew_expand(lam, mu)
            for nu in partitions_of(lam.size - mu.size):
                prod = schur_multiply(
                    FormalSum.single("schur", mu), FormalSum.single("schur", nu)
                )
                assert expansion.coefficient(nu) == prod.coefficient(lam)


def test_skew_expansions_derived_from_conjugate_entries(monkeypatch):
    fillings = _record_calls(monkeypatch, "_lattice_fillings")
    oracle_products = {}

    def oracle_coefficient(lam, mu, nu):
        # c^lam_{mu,nu}; the oracle expands over the rows of its second shape.
        short, long_ = sorted((mu, nu), key=len)
        if (long_, short) not in oracle_products:
            oracle_products[long_, short] = jt_product(long_, short)
        return oracle_products[long_, short].get(lam.parts, 0)

    for lam in partitions_through(8):
        for mu in subpartitions(lam):
            cache.clear_all()
            fresh = skew_expand(lam, mu)
            cache.clear_all()
            skew_expand(lam.transpose(), mu.transpose())
            fillings.clear()
            derived = skew_expand(lam, mu)
            assert not fillings, (lam, mu)
            assert derived == fresh, (lam, mu)
            expected = {}
            for nu in partitions_of(lam.size - mu.size):
                c = oracle_coefficient(lam, mu, nu)
                if c:
                    expected[nu] = c
            assert fresh.terms == expected, (lam, mu)


def test_lr_symmetry_and_conjugation():
    for lam in partitions_through(8):
        lam_t = lam.transpose()
        for mu in subpartitions(lam):
            left = skew_expand(lam, mu)
            cache.clear_all()  # the conjugate side from its own fillings
            right = skew_expand(lam_t, mu.transpose())
            assert omega(left) == right
            for nu, c in left.terms.items():
                assert lr_coefficient(lam, nu, mu) == c


def test_multiply_commutative_associative_random():
    rng = random.Random(99)
    pool = list(partitions_through(5))
    for _ in range(20):
        a, b, c = (FormalSum.single("schur", rng.choice(pool)) for _ in range(3))
        ab = schur_multiply(a, b)
        assert ab == schur_multiply(b, a)
        assert schur_multiply(ab, c) == schur_multiply(a, schur_multiply(b, c))


def test_omega_examples_and_automorphism():
    assert omega(s(3)) == s(1, 1, 1)
    assert omega(s(2, 1)) == s(2, 1)
    rng = random.Random(5)
    pool = list(partitions_through(5))
    for _ in range(15):
        a = FormalSum.single("schur", rng.choice(pool))
        b = FormalSum.single("schur", rng.choice(pool))
        assert omega(omega(a)) == a
        product = schur_multiply(a, b)
        cache.clear_all()  # the conjugate side from its own strip products
        assert omega(product) == schur_multiply(omega(a), omega(b))


def column_gen(n):
    if n < 0:
        return FormalSum.zero("schur")
    return FormalSum.single("schur", Partition([1] * n))


def test_dual_jacobi_trudi_reproduces_schur_basis():
    for lam in partitions_through(8):
        got = dual_jacobi_trudi(lam, column_gen, schur_multiply)
        assert got == FormalSum.single("schur", lam), lam


def test_dual_jacobi_trudi_single_column_is_generator():
    for k in range(5):
        lam = Partition([1] * k)
        assert dual_jacobi_trudi(lam, column_gen, schur_multiply) == column_gen(k)


def test_dual_jacobi_trudi_row_example():
    # det [[e1, e2], [1, e1]] = s_2
    assert dual_jacobi_trudi(Partition((2,)), column_gen, schur_multiply) == s(2)


def test_dual_jacobi_trudi_matches_leibniz_oracle():
    # Every shape with at most five columns through size 8, each from an
    # empty memo and again with one memo shared by the whole sequence.
    shapes = [lam for lam in partitions_through(8) if lam.part(0) <= 5]
    shared: dict = {}
    for lam in shapes + shapes[::-1]:
        expected = leibniz_dual_jacobi_trudi(lam, column_gen, schur_multiply)
        assert expected == FormalSum.single("schur", lam), lam
        assert dual_jacobi_trudi(lam, column_gen, schur_multiply) == expected, lam
        assert dual_jacobi_trudi(lam, column_gen, schur_multiply, memo=shared) == expected, lam


def test_formal_sum_arithmetic_and_validation():
    a = s(2) + s(1, 1)
    assert a - s(1, 1) == s(2)
    assert (a - a).is_zero
    assert a.scaled(0).is_zero
    assert a.coefficient(Partition((3,))) == 0
    with pytest.raises(BasisMismatchError):
        schur_multiply(a, FormalSum.single("sp", Partition((1,))))
    with pytest.raises(BasisMismatchError):
        a + FormalSum.single("sp", Partition((1,)))
    with pytest.raises(ValueError):
        FormalSum("nope")


def test_formal_sum_rendering():
    assert str(s(2) + s(1, 1)) == "s[2] + s[1,1]"
    assert str(FormalSum.zero("schur")) == "0"
    assert str(FormalSum.unit("sp")) == "sp[]"
    assert str(s(2) - s(1, 1)) == "s[2] - s[1,1]"
    assert str(s(2, 1).scaled(-3)) == "-3*s[2,1]"
    mixed = s(3) + s(2, 1).scaled(-1) + s(1, 1, 1).scaled(2)
    assert str(mixed) == "s[3] - s[2,1] + 2*s[1,1,1]"


def test_formal_sum_graded_and_restricted():
    a = s(2) + s(1) + s(3, 1)
    grades = a.graded()
    assert set(grades) == {1, 2, 4}
    assert a.restricted(min_degree=2) == s(2) + s(3, 1)
    assert a.restricted(max_degree=2) == s(2) + s(1)


small_partitions = st.lists(st.integers(1, 4), max_size=4).map(
    lambda parts: Partition(sorted(parts, reverse=True))
)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(small_partitions, st.integers(-5, 5), max_size=4))
def test_omega_is_an_involution(terms):
    a = FormalSum("schur", terms)
    assert omega(omega(a)) == a


@settings(max_examples=60, deadline=None)
@given(small_partitions, small_partitions, st.data())
def test_skew_product_adjointness(mu, nu, data):
    # <s_lam, s_mu s_nu> = <s_{lam/mu}, s_nu>: strip products on one side,
    # lattice fillings of the skew shape on the other, each from an empty memo.
    lam = data.draw(st.sampled_from(partitions_of(mu.size + nu.size)), label="lam")
    cache.clear_all()
    product = schur_multiply(FormalSum.single("schur", mu), FormalSum.single("schur", nu))
    cache.clear_all()
    skew = skew_expand(lam, mu).coefficient(nu)
    assert product.coefficient(lam) == skew == lr_coefficient(lam, mu, nu)
