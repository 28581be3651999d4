import argparse
import gc
import json
import random
from fractions import Fraction
from math import gcd

import pytest

from oracles import leibniz_dual_jacobi_trudi, skewing_by_terms
from stablechar import checks, cli, kr, schur, series
from stablechar.bcd import bcd_multiply
from stablechar.embeddings import (
    CutoffError,
    Decomposition,
    EmbeddingTable,
    image_by_skewing,
    image_from_table,
    kappa_coefficient,
    parity_coefficient,
    random_table,
    table_from_series,
    verify_constant_identity,
    verify_linear_identity,
)
from stablechar.partitions import EMPTY, Partition, partitions_through
from stablechar.schur import FormalSum, dual_jacobi_trudi
from stablechar.series import Series, TruncationError, kappa_expansion, random_rational

EX_322 = {
    Partition((3, 2, 2)): 1,
    Partition((3, 1, 1)): 1,
    Partition((2, 2, 1)): 1,
    Partition((3,)): 1,
    Partition((2, 1)): 1,
}


def test_table_from_series_examples():
    t_one = table_from_series(Series.one(), 6)
    assert all(
        t_one.entry(i, j) == (1 if (i - j) % 2 == 0 else 0)
        for i in range(7)
        for j in range(i + 1)
    )
    t_geom = table_from_series(Series.geom(6), 6)
    assert all(t_geom.entry(i, j) == 1 for i in range(7) for j in range(i + 1))
    t_geom2 = table_from_series(Series.geom2(6), 6)
    assert all(
        t_geom2.entry(i, j) == (1 if i == j else 0)
        for i in range(7)
        for j in range(i + 1)
    )


def test_image_by_skewing_worked_example():
    dec = image_by_skewing(Series.one(), Partition((3, 2, 2)))
    assert dec.terms == EX_322
    assert dec.basis == "sp"


def test_image_by_skewing_matches_term_by_term_skews():
    # Kappa coefficients with several denominators, some of them zero.
    p = Series.from_text("1,1/2,-2/3,0,3/5,1/7")
    for lam in partitions_through(6):
        expected = skewing_by_terms(lam, lambda mu: kappa_coefficient(p, mu), "sp")
        assert image_by_skewing(p, lam).as_sum() == expected, lam


def test_image_by_skewing_even_rows_kernel():
    dec = image_by_skewing(Series.geom2(2), Partition((2,)))
    assert dec.terms == {Partition((2,)): 1, EMPTY: 1}


def test_image_by_skewing_empty_shape():
    dec = image_by_skewing(Series.geom(0), EMPTY)
    assert dec.terms == {EMPTY: 1}


def test_image_by_skewing_truncation_guard():
    with pytest.raises(TruncationError):
        image_by_skewing(Series.geom(2), Partition((2, 2)))


def test_coefficient_accessors():
    dec = image_by_skewing(Series.one(), Partition((3, 2, 2)))
    assert dec.coefficient(Partition((2, 1))) == 1
    assert dec.coefficient(dec.source) == 1
    assert dec.coefficient(Partition((1, 1, 1))) == 0


def test_image_from_table_identity():
    table = EmbeddingTable.identity(6)
    dec = image_from_table(table, Partition((2,)))
    assert dec.terms == {Partition((2,)): 1, EMPTY: 1}
    for k in range(4):
        dec = image_from_table(table, Partition([1] * k))
        assert dec.terms == {Partition([1] * k): 1}


def test_image_from_table_single_column_reads_off_entries():
    rng = random.Random(3)
    table = random_table(6, 1, rng)
    for k in range(1, 5):
        dec = image_from_table(table, Partition([1] * k))
        for j in range(k + 1):
            assert dec.coefficient(Partition([1] * j)) == table.entry(k, j)


def test_dual_jacobi_trudi_even_parity_generators():
    # Generators with every lower column of matching parity: the image of a
    # single row keeps only its top term (the identity embedding table of
    # the trivial kernel).
    table = table_from_series(Series.one(), 4)
    result = dual_jacobi_trudi(Partition((2,)), table.generator_image)
    assert result == FormalSum.single("sp", Partition((2,)))


# Shapes with at most four columns through size 7 whose determinant reads
# table entries through 8.
LEIBNIZ_SHAPES = [
    lam for lam in partitions_through(7) if lam.part(0) <= 4 and lam.part(0) + len(lam) <= 9
]


def test_dual_jacobi_trudi_bcd_matches_leibniz_oracle():
    # Seeded rational tables, full and top-degree determinants, each from an
    # empty memo and again with one memo per table shared by every shape
    # and deficit (the deficits interleave, so a key that ignored them
    # would hand a truncated minor to a full one).
    for seed, d in ((11, 1), (12, 2), (13, 3)):
        table = random_table(8, d, random.Random(seed))
        shared: dict = {}
        for n, lam in enumerate(LEIBNIZ_SHAPES):
            for deficit in ((None, 1, 2, 3) if n % 2 else (3, None, 2, 1)):
                gen = table.generator_image
                expected = leibniz_dual_jacobi_trudi(lam, gen, bcd_multiply, deficit)
                fresh = dual_jacobi_trudi(lam, gen, max_deficit=deficit)
                assert fresh == expected, (seed, lam, deficit)
                again = dual_jacobi_trudi(lam, gen, deficit, memo=shared)
                assert again == expected, (seed, lam, deficit)


def test_dual_jacobi_trudi_on_o_generators_relabels_the_sp_result():
    # The basis of gen(0) picks the product; sp and o share the
    # Newell-Littlewood constants, so only the label changes.
    table = random_table(8, 2, random.Random(14))

    def o_gen(n):
        return FormalSum("o", table.generator_image(n).terms)

    for lam in LEIBNIZ_SHAPES[::3]:
        for deficit in (None, 2):
            got = dual_jacobi_trudi(lam, o_gen, deficit)
            sp = dual_jacobi_trudi(lam, table.generator_image, deficit)
            assert got.basis == "o" and sp.basis == "sp" and got.terms == sp.terms, (lam, deficit)


def test_image_from_table_matches_leibniz_oracle():
    # Through the table's shared state, with entries of several
    # denominators, so that a minor with a wrong denominator changes the
    # result.
    table = random_table(8, 2, random.Random(21))
    assert len({Fraction(v).denominator for _, _, v in table.to_json()["m"]}) > 2
    for n, lam in enumerate(LEIBNIZ_SHAPES):
        for deficit in ((None, 2) if n % 2 else (1, None)):
            expected = leibniz_dual_jacobi_trudi(
                lam, table.generator_image, bcd_multiply, deficit
            )
            got = image_from_table(table, lam, max_deficit=deficit)
            assert got.as_sum() == expected, (lam, deficit)


# Wide shapes beyond the reach of the Leibniz oracle, each right after its
# conjugate, whose column-side minors have the same keys as the wide
# shape's row-side ones; then smaller shapes of both kinds.
SHORT_SIDE_SHAPES = [
    Partition(parts)
    for parts in (
        (2, 2, 2), (3, 3), (3, 3, 3, 3, 3, 3), (6, 6, 6), (2,) * 9, (9, 9),
        (1,) * 11, (11,), (4, 2, 1), (5, 3), (2, 2, 1, 1, 1), (7, 1),
    )
]


def test_truncated_image_from_table_matches_fresh_determinant():
    # Images, full or truncated, go through the row side when the shape has
    # fewer rows than columns; hold every one against the column-side
    # determinant on the generator images, from an empty memo.
    # Each table's state serves all shapes, full images and for d > 1 two
    # deficits, so that the row images of one deficit and the minors of the
    # other side are in its memos.
    for seed, d in ((41, 1), (42, 2), (43, 3)):
        table = random_table(12, d, random.Random(seed))
        assert len({Fraction(v).denominator for _, _, v in table.to_json()["m"]}) > 2
        for deficit in [None, *sorted({1, d}, reverse=d % 2 == 0)]:
            for lam in SHORT_SIDE_SHAPES:
                expected = dual_jacobi_trudi(lam, table.generator_image, deficit)
                got = image_from_table(table, lam, max_deficit=deficit)
                assert got.as_sum() == expected, (seed, lam, deficit)


@pytest.mark.parametrize("n", [8, 12])
def test_row_image_keeps_quadratically_many_minors(n):
    # The row (n) is the column-side determinant of the shape (1^n); along
    # its first column every minor is a hook (j, 1^m) with j + m <= n, so
    # n(n+1)/2 of them, where a first-row expansion keeps 2^n - 1.
    table = random_table(n, 2, random.Random(36))
    image_from_table(table, Partition((n,)), max_deficit=2)
    _, memo, _, _ = table._memo
    assert 0 < len(memo) <= n * (n + 1) // 2


def test_image_from_table_state_follows_the_table():
    table = random_table(8, 1, random.Random(31))
    copy = EmbeddingTable.from_json(json.loads(json.dumps(table.to_json())))
    assert copy == table and copy is not table and hash(copy) == hash(table)
    data = table.to_json()
    i, j, value = data["m"][5]
    data["m"][5] = [i, j, str(Fraction(value) + 1)]
    changed = EmbeddingTable.from_json(data)
    assert changed != table

    lam = Partition((3, 2, 1))
    first = image_from_table(table, lam)
    state = table._memo
    assert image_from_table(copy, lam) == first
    got = image_from_table(changed, lam)
    assert changed._memo is not state
    expected = leibniz_dual_jacobi_trudi(lam, changed.generator_image, bcd_multiply)
    assert got.as_sum() == expected != first.as_sum()
    # Back to the first table: it still lives, so its state was kept.
    assert image_from_table(table, lam) == first
    assert table._memo is state


def _live(cls) -> int:
    """The number of ``cls`` objects not yet freed."""
    return sum(type(o) is cls for o in gc.get_objects())


def test_streamed_tables_leave_no_state():
    # Each table, and the state it holds, is freed by reference counting
    # once its cases are checked, with no collection in between.
    gc.collect()
    before = _live(EmbeddingTable)
    rng = random.Random(33)
    tables = ((d, 0, random_table(d + 7, d, rng)) for d in (1, 2, 3))
    assert all(ok for _, ok in checks.identities("constant", tables, 6))
    assert _live(EmbeddingTable) == before


def test_streamed_series_leave_no_state():
    gc.collect()
    before = _live(Series), _live(EmbeddingTable)
    args = argparse.Namespace(series=["1,1/2,-1/3", "geom"])
    cases = checks.oracle(cli._series_set(args, 6), 4)
    assert next(cases) == ("oracle p=1,1/2,-1/3 max-size=4", True)
    assert (_live(Series), _live(EmbeddingTable)) == before
    assert next(cases) == ("oracle p=geom max-size=4", True)
    assert (_live(Series), _live(EmbeddingTable)) == before


def test_kept_table_makes_no_new_minor(monkeypatch):
    table = random_table(10, 2, random.Random(34))
    lam = Partition((4, 4))
    first = image_from_table(table, lam, max_deficit=2)
    image_from_table(random_table(10, 2, random.Random(35)), lam, max_deficit=2)
    _, memo, _, row_memo = table._memo
    sizes = len(memo), len(row_memo)
    products = []
    sum_product = schur._sum_product

    def counting(*args):
        products.append(args)
        return sum_product(*args)

    monkeypatch.setattr(schur, "_sum_product", counting)
    assert image_from_table(table, lam, max_deficit=2) == first
    assert products == [] and (len(memo), len(row_memo)) == sizes


def test_table_minors_keep_their_own_denominators():
    # Every stored minor is an integer sum in lowest terms with no zero, so
    # its ints are as large as its value needs: here at most 52 bits.  When
    # generator image n was scaled by L^n, L the lcm of all the table's
    # denominators, the largest on these tables had 1,859 to 2,065 bits.
    for seed in range(3):
        table = random_table(12, 3, random.Random(seed))
        assert verify_constant_identity(table, 3, 8).equal
        _, memo, _, row_memo = table._memo
        sums = [*memo.values(), *row_memo.values()]
        assert sums and all(all(acc.values()) and gcd(den, *acc.values()) == 1 for den, acc in sums)
        assert max(abs(c).bit_length() for den, acc in sums for c in (den, *acc.values())) < 100


def test_oracle_equivalence_through_size_six():
    rng = random.Random(29)
    quad = Series((1, random_rational(rng), random_rational(rng)))
    series = [
        ("one", Series.one()),
        ("geom2", Series.geom2(8)),
        ("geom", Series.geom(8)),
        ("1,1", Series.from_text("1,1")),
        ("quad", quad),
    ]
    assert [label for label, ok in checks.oracle(series, 6) if not ok] == []


def test_image_from_table_cutoff_guard():
    table = EmbeddingTable.identity(3)
    with pytest.raises(CutoffError):
        image_from_table(table, Partition((4,)))  # needs entries through 4
    # (2,2) needs entries through 2 + 2 - 1 = 3: exactly at the cutoff
    assert image_from_table(table, Partition((2, 2))).coefficient(Partition((2, 2))) == 1


def test_table_determination_bound():
    # Tables agreeing through a cutoff give identical decompositions for
    # every shape whose determinant stays inside that cutoff.
    p = Series.geom(12)
    small = table_from_series(p, 6)
    large = table_from_series(p, 12)
    for lam in partitions_through(5):
        lam_t = lam.transpose()
        if (lam_t.part(0) + len(lam_t) - 1 if len(lam_t) else 0) <= 6:
            assert image_from_table(small, lam).terms == image_from_table(large, lam).terms


def test_ring_homomorphism_small():
    series = [("one", Series.one()), ("geom2", Series.geom2(6))]
    assert [label for label, ok in checks.ringhom(series, 3) if not ok] == []


def test_support_containment_for_positive_kernels():
    for p in [Series.one(), Series.geom2(6), Series.geom(6)]:
        for lam in partitions_through(6):
            dec = image_by_skewing(p, lam)
            for mu, c in dec.terms.items():
                assert lam.contains(mu)
                assert c > 0


def test_conjugation_intertwines_dual_kernels():
    from stablechar.series import dual

    rng = random.Random(41)
    quad = Series((1, random_rational(rng), random_rational(rng)))
    for p in [Series.from_text("1,1"), quad]:
        q = dual(p, order=6)
        for lam in partitions_through(6):
            a = image_by_skewing(p, lam)
            b = image_by_skewing(q, lam.transpose())
            assert {mu.transpose(): c for mu, c in a.terms.items()} == b.terms


def test_integrality_and_parity_for_the_two_solutions():
    for p in [Series.one(), Series.geom2(6)]:
        for lam in partitions_through(6):
            for mu, c in image_by_skewing(p, lam).terms.items():
                assert isinstance(c, int) and c > 0
                assert (lam.size - mu.size) % 2 == 0


def test_verify_linear_identity_constant_table():
    table = table_from_series(Series.geom(8), 8)
    report = verify_linear_identity(table, 1, 4)
    assert report.equal
    assert report.row_coefficient == 0
    assert report.second_difference == 0
    assert report.rectangle_coefficient == 0


def test_verify_linear_identity_random_tables():
    rng = random.Random(53)
    tables = [(d, trial, random_table(9, d, rng)) for d in (1, 2) for trial in range(3)]
    # A case passes only if its rectangle coefficient is minus its row coefficient.
    assert [label for label, ok in checks.identities("linear", tables, 6) if not ok] == []


def test_verify_linear_identity_preconditions():
    rng = random.Random(7)
    table = random_table(9, 2, rng)
    with pytest.raises(ValueError):
        verify_linear_identity(table, 2, 3)  # k < d + 2
    with pytest.raises(ValueError):
        verify_linear_identity(table, 3, 6)  # diagonal 2 is not constant
    with pytest.raises(CutoffError):
        verify_linear_identity(table, 2, 12)
    with pytest.raises(ValueError):
        verify_linear_identity(table, 0, 4)


def test_verify_constant_identity_examples():
    table = table_from_series(Series.one(), 8)
    report = verify_constant_identity(table, 2, 4)
    assert report.equal
    assert report.rectangle_coefficient == 1  # 4*m[2][0] - 3*m[3][1] = 4 - 3
    rng = random.Random(61)
    table = random_table(9, 1, rng)
    for k in (3, 5):
        assert verify_constant_identity(table, 1, k).equal
    # every series table has constant diagonals, so the value is b1 for all k
    series_table = table_from_series(Series.from_text("1,2,1"), 10)
    b1 = series_table.entry(1, 0)
    for k in (3, 4, 6):
        report = verify_constant_identity(series_table, 1, k)
        assert report.equal
        assert report.rectangle_coefficient == b1


def test_verify_constant_identity_cutoff():
    rng = random.Random(67)
    table = random_table(6, 1, rng)
    with pytest.raises(CutoffError):
        verify_constant_identity(table, 1, 6)  # needs cutoff >= 7


def test_parity_coefficient_cases():
    assert parity_coefficient(Series.one(), 1).equal
    report = parity_coefficient(Series.geom2(4), 1)
    assert report.equal and report.computed == 0
    report = parity_coefficient(Series.from_text("1,0,2"), 0)
    assert report.equal and report.computed == -1
    with pytest.raises(ValueError):
        parity_coefficient(Series.from_text("1,1"), 0)
    with pytest.raises(TruncationError):
        parity_coefficient(Series.geom2(2), 1)  # needs coefficients through 4


def test_embedding_table_validation_and_json(tmp_path):
    with pytest.raises(ValueError):
        EmbeddingTable(3, {(1, 2): Fraction(1)})  # above the diagonal
    with pytest.raises(ValueError):
        EmbeddingTable(3, {(2, 2): Fraction(2)})  # diagonal must be 1
    with pytest.raises(CutoffError):
        EmbeddingTable(3, {(2, 1): Fraction(1, 2)}).entry(4, 1)

    table = EmbeddingTable(4, {(2, 1): Fraction(1, 2), (3, 0): Fraction(-2)})
    data = table.to_json()
    assert data["schema"] == 1
    rebuilt = EmbeddingTable.from_json(json.loads(json.dumps(data)))
    assert rebuilt == table
    assert rebuilt.entry(2, 2) == 1 and rebuilt.entry(2, 0) == 0

    path = tmp_path / "table.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert EmbeddingTable.load(path) == table


def test_random_table_shape():
    rng = random.Random(71)
    table = random_table(8, 3, rng)
    assert table.constant_below(3)
    assert table.entry(5, 5) == 1


def test_decomposition_support_respects_extended_dominance():
    from stablechar.partitions import leq_extended

    rng = random.Random(73)
    table = random_table(9, 1, rng)
    for lam in partitions_through(5):
        for mu in image_from_table(table, lam).terms:
            assert leq_extended(mu, lam)


def test_decomposition_json_round_trip():
    dec = image_by_skewing(Series.one(), Partition((3, 2, 2)))
    data = dec.to_json()
    assert data["schema"] == 1
    sizes = [sum(t["mu"]) for t in data["terms"]]
    assert sizes == sorted(sizes, reverse=True)
    rebuilt = Decomposition.from_json(json.loads(json.dumps(data)))
    assert rebuilt.source == dec.source
    assert rebuilt.basis == dec.basis
    assert rebuilt.terms == dec.terms


@pytest.mark.parametrize(
    "change, field",
    [
        (lambda data: data["terms"][0].update(coeff="1/0"), "'coeff'"),
        (lambda data: data["terms"][0].update(coeff=0.5), "'coeff'"),
        (lambda data: data.pop("terms"), "'terms'"),
        (lambda data: data["terms"][1].update(mu=[1, 2]), "'mu'"),
        (lambda data: data.pop("lambda"), "'lambda'"),
        (lambda data: data.update(basis="gl"), "'basis'"),
        (lambda data: data["terms"].append(dict(data["terms"][0])), "'terms'"),
    ],
)
def test_decomposition_from_json_names_the_bad_field(change, field):
    data = json.loads(json.dumps(image_by_skewing(Series.one(), Partition((2, 1))).to_json()))
    change(data)
    with pytest.raises(ValueError, match=field):
        Decomposition.from_json(data)


def test_decomposition_leading_coefficient_enforced():
    lam = Partition((2,))
    with pytest.raises(ValueError):
        Decomposition(lam, "sp", {lam: 2})
    dec = Decomposition(lam, "sp", {lam: 1})
    with pytest.raises(ValueError):
        dec._replace(terms={lam: 2, EMPTY: 1})
    with pytest.raises(ValueError):
        Decomposition._make((lam, "sp", {EMPTY: 1}))
    assert dec._replace(basis="o") == Decomposition(lam, "o", {lam: 1})


def test_reports_are_immutable_named_tuples():
    table = table_from_series(Series.geom(8), 8)
    reports = [
        (kappa_expansion(Series.one(), 2), ("cutoff", "graded")),
        (series.is_kappa_positive(Series.one(), 2), ("through", "violation")),
        (
            series.quadratic_scan(1, 1, 2),
            (
                "a", "b", "degree", "critical_coefficient", "hook_coefficients",
                "per_degree_minimum", "binding_shape", "binding_coefficient",
            ),
        ),
        (image_by_skewing(Series.one(), Partition((2,))), ("source", "basis", "terms")),
        (
            verify_linear_identity(table, 1, 3),
            ("d", "k", "row_coefficient", "second_difference", "rectangle_coefficient", "equal"),
        ),
        (
            verify_constant_identity(table, 1, 3),
            ("d", "k", "rectangle_coefficient", "table_combination", "equal"),
        ),
        (parity_coefficient(Series.one(), 0), ("k", "computed", "expected", "equal")),
        (
            kr.rectangle_check(1, 2, "C"),
            ("height", "width", "family", "matches", "decomposition", "expected"),
        ),
        (
            kr.quadratic_identity_check(1, 2, "C"),
            ("height", "width", "family", "holds", "lhs", "rhs"),
        ),
    ]
    for report, fields in reports:
        name = type(report).__name__
        assert report._fields == fields, name
        assert list(report._asdict()) == list(fields), name
        assert repr(report).startswith(f"{name}({fields[0]}="), name
        for attr in (fields[0], "extra"):
            with pytest.raises(AttributeError):
                setattr(report, attr, None)
