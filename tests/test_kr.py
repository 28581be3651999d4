import pytest

from oracles import rectangle_complement, skewing_by_terms
from stablechar import cache, checks, kr
from stablechar.embeddings import Decomposition, image_by_skewing
from stablechar.kr import (
    domino_removals,
    format_weight_decomposition,
    fundamental_weights,
    kr_decomposition,
    quadratic_identity_check,
    rectangle_check,
    weight_notation,
    weights_json,
    weights_to_partition,
)
from stablechar.partitions import (
    EMPTY,
    Partition,
    all_even_columns,
    all_even_rows,
    partitions_through,
    subpartitions,
)
from stablechar.schur import skew_expand
from stablechar.series import Series


def P(*parts):
    return Partition(parts)


def test_domino_removals_examples():
    assert domino_removals(P(2, 2), "horizontal") == {P(2, 2), P(2), EMPTY}
    assert domino_removals(P(2, 2), "vertical") == {P(2, 2), P(1, 1), EMPTY}
    assert domino_removals(P(2, 2, 2), "vertical") == {P(2, 2, 2), P(2, 1, 1), P(2)}
    with pytest.raises(ValueError):
        domino_removals(P(2, 2), "diagonal")


def test_domino_removals_conjugate_symmetry():
    for lam in partitions_through(7):
        horizontal = {m.transpose() for m in domino_removals(lam, "horizontal")}
        assert horizontal == domino_removals(lam.transpose(), "vertical")


def test_kr_decomposition_worked_example():
    dec = kr_decomposition(P(3, 2, 2), "BD")
    assert dec.basis == "o"
    assert dec.terms == {
        P(3, 2, 2): 1,
        P(3, 1, 1): 1,
        P(2, 2, 1): 1,
        P(3,): 1,
        P(2, 1): 1,
    }


def test_kr_decomposition_symplectic_square():
    dec = kr_decomposition(P(2, 2), "C")
    assert dec.basis == "sp"
    assert dec.terms == {P(2, 2): 1, P(2): 1, EMPTY: 1}


def test_kr_decomposition_empty():
    for family in ("C", "BD"):
        assert kr_decomposition(EMPTY, family).terms == {EMPTY: 1}
    with pytest.raises(ValueError):
        kr_decomposition(P(1), "A")


def test_rectangle_skews_match_rotated_complement():
    # On rectangles every skew expansion collapses to the single rotated
    # complement; this is the independent oracle for the rectangle check.
    for height, width in [(2, 2), (3, 2), (2, 3), (3, 3), (4, 2)]:
        rect = Partition([width] * height)
        for mu in subpartitions(rect):
            expansion = skew_expand(rect, mu)
            expected = rectangle_complement(height, width, mu)
            assert expansion.terms == {expected: 1}


def test_kr_decomposition_matches_kernel_route():
    # Littlewood's sums against the kernels they expand: 1/(1-x^2) for C
    # and 1 for BD, pushed through the skew Jacobi-Trudi coefficients.
    geom2, one = Series.geom2(12), Series.one()
    for lam in partitions_through(12):
        c_dec = image_by_skewing(geom2, lam)
        bd_dec = image_by_skewing(one, lam)
        assert kr_decomposition(lam, "C") == Decomposition(lam, "sp", c_dec.terms)
        assert kr_decomposition(lam, "BD") == Decomposition(lam, "o", bd_dec.terms)


def test_kr_decomposition_matches_term_by_term_skews():
    for lam in partitions_through(7):
        for family, basis, even in (("C", "sp", all_even_rows), ("BD", "o", all_even_columns)):
            expected = skewing_by_terms(lam, lambda mu: int(even(mu)), basis)
            assert kr_decomposition(lam, family).as_sum() == expected, (lam, family)


def test_skew_sums_expand_no_shape_of_weight_zero():
    # A skew expansion of a zero weight would be work, and a memo entry,
    # that the sum never needed.
    lam = Partition((4, 3, 2, 1))
    image_by_skewing(Series.one(), lam)  # kappa of p = 1: the even-column sum
    assert set(cache.table("skew")) == {
        (lam.parts, mu.parts) for mu in subpartitions(lam) if all_even_columns(mu)
    }
    kr_decomposition(lam, "C")
    assert set(cache.table("skew")) == {
        (lam.parts, mu.parts)
        for mu in subpartitions(lam)
        if all_even_columns(mu) or all_even_rows(mu)
    }


def test_rectangle_check_small():
    # A rectangle passes only if its decomposition has the expected shapes.
    assert [label for label, ok in checks.kr(8) if not ok] == []


def test_rectangle_check_single_box():
    for family in ("C", "BD"):
        report = rectangle_check(1, 1, family)
        assert report.matches
        assert set(report.expected) == {P(1)}


def test_quadratic_identity_base_and_generic():
    assert quadratic_identity_check(1, 1, "C").holds
    assert quadratic_identity_check(2, 2, "BD").holds
    assert quadratic_identity_check(3, 3, "C").holds
    report = quadratic_identity_check(2, 1, "BD")
    assert report.holds and report.lhs == report.rhs
    with pytest.raises(ValueError):
        quadratic_identity_check(0, 1, "C")


def test_decompositions_conjugate_between_families():
    for lam in partitions_through(6):
        c_terms = kr_decomposition(lam, "C").terms
        cache.clear_all()  # the BD side from its own products
        bd_terms = kr_decomposition(lam.transpose(), "BD").terms
        assert {mu.transpose(): c for mu, c in c_terms.items()} == bd_terms


def test_general_shapes_nonnegative_integral_parity():
    for lam in partitions_through(8):
        for family in ("C", "BD"):
            dec = kr_decomposition(lam, family)
            for mu, c in dec.terms.items():
                assert isinstance(c, int) and c > 0
                assert (lam.size - mu.size) % 2 == 0


def test_weight_notation():
    assert weight_notation(P(3, 2, 2)) == "w1 + 2*w3"
    assert weight_notation(P(4, 4)) == "4*w2"
    assert weight_notation(EMPTY) == "0"
    assert fundamental_weights(P(3, 2, 2)) == [(1, 1), (3, 2)]
    assert weights_json(P(3, 2, 2)) == {"fundamental": [[1, 1], [3, 2]]}


def test_weight_notation_round_trip():
    for lam in partitions_through(8):
        assert weights_to_partition(fundamental_weights(lam)) == lam


def test_format_weight_decomposition():
    line = format_weight_decomposition(kr_decomposition(P(3, 2, 2), "BD"))
    assert line == (
        "W(w1 + 2*w3) = V(w1 + 2*w3) + V(2*w1 + w3) + V(w2 + w3) "
        "+ V(3*w1) + V(w1 + w2)"
    )


def test_eqquad_builds_each_w_character_once(monkeypatch):
    built = []

    def counting(lam, family):
        built.append((lam.parts, family))
        return kr_decomposition(lam, family)

    monkeypatch.setattr(kr, "kr_decomposition", counting)
    assert all(ok for _, ok in checks.eqquad(4))
    # One per distinct rectangle and family, the empty one included; the
    # grid asks for 192.
    assert len(built) == len(set(built)) == 50
    assert len(kr._w_characters) == 50
    cache.clear_all()
    assert not kr._w_characters
