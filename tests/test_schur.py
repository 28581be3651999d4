import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    jt_product,
    leibniz_dual_jacobi_trudi,
    lr_coefficient,
    newell_littlewood,
    rectangle_complement,
)
from stablechar import bcd, cache, partitions, schur
from stablechar.kr import kr_decomposition
from stablechar.partitions import (
    EMPTY,
    Partition,
    _conjugate_id,
    _parts_of,
    _shape_id,
    _size_of,
    partitions_of,
    partitions_through,
    subpartitions,
)
from stablechar.schur import (
    BasisMismatchError,
    FormalSum,
    dual_jacobi_trudi,
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


def test_strip_product_matches_oracle_on_every_small_pair():
    # Every ordered pair of nonempty shapes of total size at most 8 (301
    # pairs): rows with a single choice, and strips that end in the row
    # where the last cells go, occur throughout.
    shapes = [p.parts for p in partitions_through(7) if p]
    pairs = [(b, c) for b in shapes for c in shapes if sum(b) + sum(c) <= 8]
    assert len(pairs) == 301
    for base, content in pairs:
        got = schur._strip_product(base, content)
        assert got == jt_product(Partition(content), Partition(base)), (base, content)


def test_unit_factor_accumulates_as_any_other():
    # _accumulate adds a factor of 1 in a loop of its own; it adds what
    # factor * mult adds, in the same key order.
    ids = [_shape_id(p.parts) for p in partitions_through(5)]
    items = [(ids[i % len(ids)], m) for i, m in enumerate((1, 3, 255, 256, 7, 2, 1) * 5)]
    for factor in (1, -1, 2, 300):
        acc = {ids[4]: 5, ids[0]: -2}
        expected = dict(acc)
        for key, mult in items:
            expected[key] = expected.get(key, 0) + factor * mult
        schur._accumulate(acc, iter(items), factor)
        assert acc == expected and list(acc) == list(expected), factor


def test_pair_products_skip_a_zero_factor():
    asked = []

    def product(p, q, min_degree):
        asked.append((p, q))
        return ((q,), b"\x01"), False

    p, q = sorted((_shape_id((2, 1)), _shape_id((3,))))
    assert schur._pair_products({(p, q): 0, (0, q): 0}, product) == {}
    assert asked == []
    assert schur._pair_products({(p, q): 0, (p, p): 1}, product) == {p: 1}
    assert asked == [(p, p)]


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


def test_conjugate_reads_share_one_entry():
    # (p, q) and (p', q') read one stored entry, flipped on one side unless
    # the pair is its own conjugate; each read, conjugated when flipped, is
    # the product the oracles give.
    def conjugated(terms):
        return {lam.transpose(): c for lam, c in terms.items()}

    def read(entry, flipped):
        terms = {Partition(_parts_of[i]): c for i, c in schur._entry_items(entry)}
        return conjugated(terms) if flipped else terms

    shapes = [mu for mu in partitions_through(4) if mu]
    for mu in shapes:
        for nu in shapes:
            pair = sorted((_shape_id(mu.parts), _shape_id(nu.parts)))
            pair_t = sorted((_shape_id(mu.transpose().parts), _shape_id(nu.transpose().parts)))
            short, long_ = sorted((mu, nu), key=len)
            want_schur = {Partition(t): c for t, c in jt_product(long_, short).items()}
            want_nl = {}
            for k in range(min(mu.size, nu.size) + 1):
                for lam in partitions_of(mu.size + nu.size - 2 * k):
                    if c := newell_littlewood(lam, mu, nu):
                        want_nl[lam] = c
            for product, want in (
                (schur._schur_basis_product, want_schur),
                (bcd._nl_basis_product, want_nl),
            ):
                entry, flipped = product(*pair)
                entry_t, flipped_t = product(*pair_t)
                assert entry is entry_t, (mu, nu)
                assert flipped != flipped_t or pair == pair_t, (mu, nu)
                assert read(entry, flipped) == want, (product.__name__, mu, nu)
                assert read(entry_t, flipped_t) == conjugated(want), (product.__name__, mu, nu)


def _fresh_column_pair():
    """Ids p < q of (1^n) and (1^(n+1)) for the first n >= 20 whose rows and
    columns no test has registered, registered columns first: the column
    pair then has the smaller key, though the row pair has the shorter
    content."""
    n = 20
    while any(parts in partitions._ids for parts in ((n,), (n + 1,), (1,) * n, (1,) * (n + 1))):
        n += 1
    return _shape_id((1,) * n), _shape_id((1,) * (n + 1))


def test_a_miss_stores_one_entry_in_the_orientation_computed(monkeypatch):
    # An entry is stored under the key of the orientation it was computed
    # in, and never transposed: a product in the orientation whose content
    # (the factor with fewer rows) is shorter, the requested one on a tie,
    # and flipped exactly when that is the conjugate key; a skew and a
    # Newell-Littlewood product as requested, never flipped.
    strips = _record_calls(monkeypatch, "_strip_product")
    shapes = [_shape_id(mu.parts) for mu in partitions_through(4) if mu]
    pairs = {tuple(sorted((p, q))) for p in shapes for q in shapes}
    columns = _fresh_column_pair()
    pairs.add(columns)
    not_the_smaller_key = []  # pairs whose stored key is the larger of the two
    for p, q in sorted(pairs):
        key_t = tuple(sorted((_conjugate_id(p), _conjugate_id(q))))
        content = len(schur._product_order(_parts_of[p], _parts_of[q])[1])
        content_t = len(schur._product_order(*(_parts_of[i] for i in key_t))[1])
        expected = key_t if content_t < content else (p, q)
        cache.clear_all()
        strips.clear()
        entry, flipped = schur._schur_basis_product(p, q)
        table = cache.table("product")
        assert list(table) == [expected] and table[expected] is entry, (p, q)
        assert flipped == (expected != (p, q)), (p, q)
        assert [tuple(sorted(map(_shape_id, args))) for args in strips] == [expected], (p, q)
        if expected != min((p, q), key_t):
            not_the_smaller_key.append((p, q))
        for top in (None, 1):
            cache.clear_all()
            floor = None if top is None else _size_of[p] + _size_of[q] - 2 * top
            entry, flipped = bcd._nl_basis_product(p, q, floor)
            meet = sum(map(min, _parts_of[p], _parts_of[q]))
            key = (p, q) if top is None or top >= meet else (p, q, top)
            assert list(cache.table("nl")) == [key] and not flipped, (p, q, top)
            assert cache.table("nl")[key] is entry
    assert columns in not_the_smaller_key
    for lam in partitions_through(5):
        if lam and lam.parts[0] != lam.parts[-1]:  # a rectangle's skew is never stored
            for mu in subpartitions(lam):
                cache.clear_all()
                key = (_shape_id(lam.parts), _shape_id(mu.parts))
                entry, flipped = schur._skew(*key)
                table = cache.table("skew")
                assert list(table) == [key] and table[key] is entry and not flipped, key


def test_kernel_tables_are_keyed_by_shape_ids(monkeypatch):
    # skew is keyed (lam, mu), the products by the unordered pair (p, q)
    # with p <= q, and a cut Newell-Littlewood product adds the largest
    # |alpha|: all ints.
    a = FormalSum("schur", {Partition((2, 1)): 1, Partition((3,)): 2, EMPTY: 1})
    b = FormalSum("schur", {Partition((2, 2)): Fraction(1, 2), Partition((1, 1)): -1})
    sp_a, sp_b = FormalSum("sp", a.terms), FormalSum("sp", b.terms)

    def products(x, y, sp_x, sp_y):
        return (  # the truncated products first: a full one would answer them
            schur_multiply(x, y),
            bcd.bcd_multiply(sp_x, sp_y, min_degree=5),
            bcd.bcd_multiply(sp_x, sp_y),
        )

    first = products(a, b, sp_a, sp_b)
    kr_decomposition(Partition((3, 2, 1)), "C")
    tables = {name: cache.table(name) for name in ("skew", "product", "nl")}
    assert {len(key) for key in tables["nl"]} == {2, 3}  # full and cut products
    for name, table in tables.items():
        assert table, name
        for key in table:
            assert type(key) is tuple and len(key) in ((2, 3) if name == "nl" else (2,))
            assert all(type(i) is int for i in key), (name, key)
            if name != "skew":
                assert key[0] <= key[1], (name, key)
            # One entry per conjugate class: its conjugate key is not stored.
            conjugate = tuple(_conjugate_id(i) for i in key[:2])
            if name != "skew":
                conjugate = tuple(sorted(conjugate))
            conjugate += key[2:]
            assert conjugate == key or conjugate not in table, (name, key)
            # Each entry is a tuple of the shape ids of its terms and, of
            # equal length, their multiplicities, none of them zero: bytes
            # when every one is below 256, else a tuple of ints.
            entry = table[key]
            assert type(entry) is tuple and len(entry) == 2, (name, key)
            ids, mults = entry
            assert type(ids) is tuple, (name, key)
            if max(mults) < 256:
                assert type(mults) is bytes, (name, key)
            else:
                assert type(mults) is tuple, (name, key)
            assert ids and len(ids) == len(mults), (name, key)
            assert all(type(i) is int for i in ids + tuple(mults)), (name, key)
            assert all(mults), (name, key)
    sizes = {name: len(table) for name, table in tables.items()}
    strips = _record_calls(monkeypatch, "_strip_product")
    assert products(b, a, sp_b, sp_a) == first
    assert not strips
    assert {name: len(table) for name, table in tables.items()} == sizes


def test_rectangle_skews_are_complements_without_fillings(monkeypatch):
    # A rectangle skews by mu to the complement of mu turned by 180 degrees;
    # _skew answers it without a lattice filling and stores nothing.
    fillings = schur._lattice_fillings
    calls = _record_calls(monkeypatch, "_lattice_fillings")
    for height in range(1, 7):
        for width in range(1, 7):
            rect = Partition((width,) * height)
            lam = _shape_id(rect.parts)
            for mu in subpartitions(rect):
                entry, flipped = schur._skew(lam, _shape_id(mu.parts))
                got = {_parts_of[i]: c for i, c in schur._entry_items(entry)}
                assert not flipped
                assert got == {rectangle_complement(height, width, mu).parts: 1}, (rect, mu)
                assert got == fillings(rect.parts, mu.parts), (rect, mu)
    assert not calls
    assert not cache.table("skew")
    # The empty shape is no rectangle to the rule: its skew is filled.
    entry, flipped = schur._skew(0, 0)
    assert list(schur._entry_items(entry)) == [(0, 1)] and not flipped
    assert calls == [((), ())]


def test_entry_multiplicities_are_bytes_below_256():
    a, b = _shape_id((2, 1)), _shape_id((3,))
    small = schur._entry((a, b), (3, 1))
    large = schur._entry((a, b), (300, 1))
    assert small == ((a, b), b"\x03\x01")
    assert large == ((a, b), (300, 1))
    for entry, expected in ((small, [(a, 3), (b, 1)]), (large, [(a, 300), (b, 1)])):
        items = list(schur._entry_items(entry))
        assert items == expected
        assert all(type(i) is int and type(c) is int for i, c in items)


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
        got = dual_jacobi_trudi(lam, column_gen)
        assert got == FormalSum.single("schur", lam), lam


def test_dual_jacobi_trudi_single_column_is_generator():
    for k in range(5):
        lam = Partition([1] * k)
        assert dual_jacobi_trudi(lam, column_gen) == column_gen(k)


def test_dual_jacobi_trudi_row_example():
    # det [[e1, e2], [1, e1]] = s_2
    assert dual_jacobi_trudi(Partition((2,)), column_gen) == s(2)


def test_dual_jacobi_trudi_on_schur_generators_takes_a_deficit():
    # Every minor on schur columns is homogeneous of its weight, so no
    # deficit drops a term: the truncated determinant is the full one.
    for lam in partitions_through(6):
        full = dual_jacobi_trudi(lam, column_gen)
        for deficit in range(3):
            assert dual_jacobi_trudi(lam, column_gen, deficit) == full, (lam, deficit)


def test_dual_jacobi_trudi_matches_leibniz_oracle():
    # Every shape with at most five columns through size 8, each from an
    # empty memo and again with one memo shared by the whole sequence.
    shapes = [lam for lam in partitions_through(8) if lam.part(0) <= 5]
    shared: dict = {}
    for lam in shapes + shapes[::-1]:
        expected = leibniz_dual_jacobi_trudi(lam, column_gen, schur_multiply)
        assert expected == FormalSum.single("schur", lam), lam
        assert dual_jacobi_trudi(lam, column_gen) == expected, lam
        assert dual_jacobi_trudi(lam, column_gen, memo=shared) == expected, lam


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
