import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from stablechar import bcd, cache
from stablechar.bcd import bcd_multiply, newell_littlewood
from stablechar.partitions import EMPTY, Partition, _parts_of, partitions_of, partitions_through
from stablechar.schur import BasisMismatchError, FormalSum, omega, schur_multiply


def sp(*parts):
    return FormalSum.single("sp", Partition(parts))


def test_examples():
    one = Partition((1,))
    assert newell_littlewood(EMPTY, one, one) == 1
    assert newell_littlewood(Partition((2,)), one, one) == 1
    # parity violation: |lam| and |mu|+|nu| differ by an odd number
    assert newell_littlewood(Partition((3, 1)), Partition((2, 1)), Partition((2,))) == 0


def test_product_of_single_boxes():
    assert bcd_multiply(sp(1), sp(1)) == sp(2) + sp(1, 1) + sp()


def test_unit_law():
    a = sp(3, 1) + sp(2).scaled(7)
    assert bcd_multiply(FormalSum.unit("sp"), a) == a
    assert bcd_multiply(a, FormalSum.unit("sp")) == a


def test_same_constants_for_o_basis():
    a = bcd_multiply(sp(2, 1), sp(1, 1))
    b = bcd_multiply(
        FormalSum.single("o", Partition((2, 1))), FormalSum.single("o", Partition((1, 1)))
    )
    assert b.basis == "o"
    assert a.terms == b.terms


def test_basis_validation():
    with pytest.raises(BasisMismatchError):
        bcd_multiply(sp(1), FormalSum.single("o", Partition((1,))))
    with pytest.raises(BasisMismatchError):
        bcd_multiply(
            FormalSum.single("schur", Partition((1,))),
            FormalSum.single("schur", Partition((1,))),
        )


def test_top_degree_matches_littlewood_richardson():
    shapes = list(partitions_through(8))
    for mu in shapes:
        for nu in shapes:
            if mu.size + nu.size > 8 or mu.parts > nu.parts:
                continue
            full = bcd_multiply(
                FormalSum.single("sp", mu), FormalSum.single("sp", nu)
            )
            top = full.restricted(min_degree=mu.size + nu.size)
            expected = schur_multiply(
                FormalSum.single("schur", mu), FormalSum.single("schur", nu)
            )
            assert top.terms == expected.terms, (mu, nu)


def test_degree_drop_is_even():
    shapes = list(partitions_through(5))
    for mu in shapes:
        for nu in shapes:
            full = bcd_multiply(FormalSum.single("sp", mu), FormalSum.single("sp", nu))
            for lam, c in full.terms.items():
                drop = mu.size + nu.size - lam.size
                assert drop >= 0 and drop % 2 == 0
                assert c > 0


def test_full_symmetry_sizes_through_five():
    shapes = list(partitions_through(5))
    for lam, mu, nu in itertools.combinations_with_replacement(shapes, 3):
        reference = newell_littlewood(lam, mu, nu)
        for a, b, c in itertools.permutations((lam, mu, nu)):
            assert newell_littlewood(a, b, c) == reference


def test_unit_coefficient_rule():
    shapes = list(partitions_through(5))
    for mu in shapes:
        for nu in shapes:
            expected = 1 if mu == nu else 0
            assert newell_littlewood(EMPTY, mu, nu) == expected


def test_direct_constants_match_product_route():
    shapes = list(partitions_through(4))
    for mu in shapes:
        for nu in shapes:
            full = bcd_multiply(FormalSum.single("sp", mu), FormalSum.single("sp", nu))
            for lam in partitions_through(mu.size + nu.size):
                assert full.coefficient(lam) == newell_littlewood(lam, mu, nu)


def test_associativity_seeded_random():
    rng = random.Random(4242)
    pool = list(partitions_through(4))
    for _ in range(30):
        a, b, c = (FormalSum.single("sp", rng.choice(pool)) for _ in range(3))
        assert bcd_multiply(bcd_multiply(a, b), c) == bcd_multiply(a, bcd_multiply(b, c))


def test_min_degree_filter():
    full = bcd_multiply(sp(2, 1), sp(2, 1))
    filtered = bcd_multiply(sp(2, 1), sp(2, 1), min_degree=6)
    assert filtered == full.restricted(min_degree=6)
    assert any(lam.size < 6 for lam in full.terms)


def _random_sp_sum(rng, pool):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        c = rng.choice([rng.randint(-5, 5), Fraction(rng.randint(-9, 9), rng.randint(1, 6))])
        terms[rng.choice(pool)] = c
    return FormalSum("sp", terms)


def test_truncated_rational_products_match_full_products():
    rng = random.Random(3131)
    pool = list(partitions_through(5))
    for _ in range(12):
        a, b = _random_sp_sum(rng, pool), _random_sp_sum(rng, pool)
        top = max(mu.size for mu in a.terms) + max(nu.size for nu in b.terms)
        truncated = {f: bcd_multiply(a, b, min_degree=f) for f in range(top + 1, -1, -1)}
        full = bcd_multiply(a, b)
        for floor, product in truncated.items():
            assert product == full.restricted(min_degree=floor), floor
    assert cache.table("nl_truncated")
    # Only full products reach the ``nl`` table, whose entries are keyed
    # by shape ids; the registry names their parts.
    stored = {
        key: {Partition(_parts_of[t]): c for t, c in value.items()}
        for key, value in cache.table("nl").items()
    }
    cache.clear_all()
    for (mp, np_), value in stored.items():
        mu, nu = Partition(mp), Partition(np_)
        again = bcd_multiply(FormalSum.single("sp", mu), FormalSum.single("sp", nu))
        assert again.terms == value, (mu, nu)


def _newell_littlewood_product(a, b, min_degree):
    """The bilinear extension of ``newell_littlewood``, one constant at a time."""
    out = {}
    for mu, cm in a.terms.items():
        for nu, cn in b.terms.items():
            for k in range(min(mu.size, nu.size) + 1):
                degree = mu.size + nu.size - 2 * k
                if degree < min_degree:
                    break
                for lam in partitions_of(degree):
                    out[lam] = out.get(lam, 0) + cm * cn * newell_littlewood(lam, mu, nu)
    return FormalSum("sp", out)


def test_products_where_swapped_pairs_cancel():
    # a * b with a = x + y and b = x - y: the (x, y) and (y, x) terms cancel.
    rng = random.Random(909)
    pool = [lam for lam in partitions_through(4) if lam.size]
    for _ in range(8):
        x, y, z = rng.sample(pool, 3)
        c = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        a = FormalSum("sp", {x: c, y: c, z: Fraction(2, 5)})
        b = FormalSum("sp", {x: 1, y: -1, z: 3})
        top = x.size + y.size + 2 * z.size
        for floor in (0, top // 2, top - 2):
            want = _newell_littlewood_product(a, b, floor)
            assert bcd_multiply(a, b, min_degree=floor or None) == want, (x, y, z, floor)
            assert bcd_multiply(b, a, min_degree=floor or None) == want, (x, y, z, floor)
        cache.clear_all()


def test_products_derived_from_conjugate_entries(monkeypatch):
    builds = []
    subpartitions = bcd.subpartitions

    def recorded(lam):
        builds.append(lam)
        return subpartitions(lam)

    monkeypatch.setattr(bcd, "subpartitions", recorded)
    rng = random.Random(2727)
    pool = list(partitions_through(4))
    for _ in range(8):
        a, b = _random_sp_sum(rng, pool), _random_sp_sum(rng, pool)
        top = max(mu.size for mu in a.terms) + max(nu.size for nu in b.terms)
        for floor in (None, top - 2, top - 4):
            cache.clear_all()
            fresh = bcd_multiply(a, b, floor)
            cache.clear_all()
            bcd_multiply(omega(a), omega(b), floor)
            builds.clear()
            derived = bcd_multiply(a, b, floor)
            assert not builds, floor
            assert derived == fresh, floor
            cache.clear_all()
            expected = _newell_littlewood_product(a, b, floor or 0)
            assert fresh == expected.restricted(min_degree=floor), floor


small_partitions = st.lists(st.integers(1, 3), max_size=3).map(
    lambda parts: Partition(sorted(parts, reverse=True))
)


@settings(max_examples=60, deadline=None)
@given(small_partitions, small_partitions, st.data())
def test_newell_littlewood_conjugation_symmetry(mu, nu, data):
    k = data.draw(st.integers(0, min(mu.size, nu.size)), label="k")
    lam = data.draw(st.sampled_from(partitions_of(mu.size + nu.size - 2 * k)), label="lam")
    cache.clear_all()
    direct = newell_littlewood(lam, mu, nu)
    cache.clear_all()
    assert newell_littlewood(lam.transpose(), mu.transpose(), nu.transpose()) == direct


small_coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def sp_sums(shapes):
    return st.dictionaries(shapes, small_coefficients, min_size=1, max_size=3).map(
        lambda terms: FormalSum("sp", terms)
    )


tiny_partitions = st.lists(st.integers(1, 2), max_size=2).map(
    lambda parts: Partition(sorted(parts, reverse=True))
)


@settings(max_examples=40, deadline=None)
@given(sp_sums(small_partitions), sp_sums(small_partitions))
def test_bcd_multiply_is_commutative(a, b):
    cache.clear_all()
    ab = bcd_multiply(a, b)
    cache.clear_all()
    assert bcd_multiply(b, a) == ab


@settings(max_examples=25, deadline=None)
@given(sp_sums(tiny_partitions), sp_sums(tiny_partitions), sp_sums(tiny_partitions))
def test_bcd_multiply_is_associative(a, b, c):
    cache.clear_all()
    left = bcd_multiply(bcd_multiply(a, b), c)
    cache.clear_all()
    assert bcd_multiply(a, bcd_multiply(b, c)) == left


@settings(max_examples=40, deadline=None)
@given(sp_sums(small_partitions), sp_sums(small_partitions), st.data())
def test_truncated_product_is_the_restricted_full_product(a, b, data):
    top = sum(max((lam.size for lam in x.terms), default=0) for x in (a, b))
    floor = data.draw(st.integers(0, top + 1), label="floor")
    cache.clear_all()
    truncated = bcd_multiply(a, b, min_degree=floor)
    cache.clear_all()
    assert truncated == bcd_multiply(a, b).restricted(min_degree=floor)
