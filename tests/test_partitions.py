import re

import pytest
from hypothesis import given, strategies as st

from oracles import all_even_columns, all_even_rows, canonical_key, partition_count
from stablechar import cache
from stablechar.bcd import bcd_multiply
from stablechar.partitions import (
    EMPTY,
    Partition,
    _conjugate_id,
    _parts_of,
    _shape,
    _shape_id,
    _size_of,
    even_subshapes,
    leq_extended,
    partitions_of,
    partitions_through,
    subpartitions,
)
from stablechar.schur import FormalSum, _entry_items

partition_strategy = st.lists(st.integers(1, 6), max_size=6).map(
    lambda parts: Partition(sorted(parts, reverse=True))
)


def test_construction_strips_trailing_zeros():
    assert Partition((3, 2, 0, 0)) == Partition((3, 2))
    assert Partition(()) == EMPTY
    assert len(EMPTY) == 0 and EMPTY.size == 0


def test_construction_rejects_bad_input():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, -1))
    with pytest.raises(ValueError):
        Partition((2, 0, 1))


@pytest.mark.parametrize(
    "parts, bad", [((2.5, 1), 2.5), (("3", True), "3"), ((3, True), True), ((2.0,), 2.0)]
)
def test_construction_rejects_parts_that_are_not_ints(parts, bad):
    # int() used to truncate 2.5 to 2 and read "3" and True as 3 and 1.
    with pytest.raises(ValueError, match=re.escape(f"got {bad!r}")):
        Partition(parts)


def test_transpose_examples():
    assert Partition((3, 2, 2)).transpose() == Partition((3, 3, 1))
    assert EMPTY.transpose() == EMPTY
    assert Partition((5,)).transpose() == Partition((1, 1, 1, 1, 1))


def test_transpose_involution_exhaustive():
    for lam in partitions_through(12):
        assert lam.transpose().transpose() == lam


def test_leq_extended_examples():
    assert leq_extended(Partition((2,)), Partition((3, 1)))
    assert not leq_extended(Partition((2, 2)), Partition((3,)))
    assert leq_extended(Partition((1, 1, 1)), Partition((2, 1)))


def test_leq_extended_reflexive_transitive():
    shapes = list(partitions_through(8))
    rel = {
        (a, b): leq_extended(a, b) for a in shapes for b in shapes
    }
    for a in shapes:
        assert rel[(a, a)]
    for (a, b), ab in rel.items():
        if not ab:
            continue
        for c in shapes:
            if rel[(b, c)]:
                assert rel[(a, c)], (a, b, c)


def test_contains_examples():
    assert Partition((3, 2, 2)).contains(Partition((2, 2)))
    assert not Partition((2,)).contains(Partition((1, 1)))
    assert Partition((4, 1)).contains(EMPTY)


def test_contains_implies_leq_extended():
    shapes = list(partitions_through(8))
    for lam in shapes:
        for mu in subpartitions(lam):
            assert leq_extended(mu, lam)


def test_partitions_of_basics():
    assert partitions_of(0) == [EMPTY]
    assert [p.parts for p in partitions_of(4)] == [
        (4,),
        (3, 1),
        (2, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
    ]
    assert len(partitions_of(8)) == 22


def test_partitions_of_matches_pentagonal_recurrence():
    for n in range(13):
        shapes = partitions_of(n)
        assert len(shapes) == partition_count(n)
        assert len(set(shapes)) == len(shapes)
        keys = [canonical_key(p) for p in shapes]
        assert keys == sorted(keys)


def test_even_columns_rows():
    assert all_even_columns(Partition((2, 2))) and all_even_rows(Partition((2, 2)))
    assert all_even_columns(Partition((1, 1))) and not all_even_rows(Partition((1, 1)))
    assert not all_even_columns(Partition((3, 1))) and not all_even_rows(
        Partition((3, 1))
    )
    assert not all_even_columns(Partition((2, 2, 1)))
    assert all_even_columns(Partition((3, 3, 1, 1)))
    assert not all_even_columns(Partition((1,)))
    for lam in partitions_through(10):
        assert all_even_columns(lam) == all_even_rows(lam.transpose())


def test_even_subshapes_match_the_predicates():
    # The generated shapes are exactly the subdiagrams that pass the
    # predicate, each once and in the order of subpartitions.
    for lam in partitions_through(12):
        for columns, even in ((False, all_even_rows), (True, all_even_columns)):
            want = [mu.parts for mu in subpartitions(lam) if even(mu)]
            assert list(even_subshapes(lam, columns)) == want, (lam, columns)


def test_subpartitions_count_for_box():
    # shapes inside a 2x2 box: -, 1, 1,1, 2, 2,1, 2,2
    assert len(subpartitions(Partition((2, 2)))) == 6


def test_text_forms():
    assert Partition((3, 2, 2)).to_text() == "3,2,2"
    assert EMPTY.to_text() == "-"
    assert Partition.from_text("3,2,2") == Partition((3, 2, 2))
    assert Partition.from_text("-") == EMPTY
    with pytest.raises(ValueError):
        Partition.from_text("2,3")


def test_json_forms():
    assert Partition((3, 1)).to_json() == [3, 1]
    assert Partition.from_json([]) == EMPTY


@pytest.mark.parametrize("data", [[2.5], [True], "21", [2, "1"]])
def test_from_json_rejects_anything_but_a_list_of_ints(data):
    with pytest.raises(ValueError, match=re.escape(repr(data))):
        Partition.from_json(data)


@given(partition_strategy)
def test_text_round_trip(lam):
    assert Partition.from_text(lam.to_text()) == lam
    assert Partition.from_json(lam.to_json()) == lam


@given(partition_strategy)
def test_transpose_involution_random(lam):
    assert lam.transpose().transpose() == lam
    assert lam.transpose().size == lam.size


def test_the_empty_shape_is_id_zero():
    assert _shape_id(()) == 0
    assert _parts_of[0] == () and _size_of[0] == 0
    assert _shape(0) is EMPTY
    assert _conjugate_id(0) == 0


def test_shape_ids_survive_clearing_the_memo_tables():
    product = bcd_multiply(
        FormalSum.single("sp", Partition((3, 1))), FormalSum.single("sp", Partition((2, 2)))
    )
    named = {
        i: _parts_of[i] for entry in cache.table("nl").values() for i, _ in _entry_items(entry)
    }
    assert named and all(i for i in named)
    shared = {lam.parts: lam for lam in product.terms}
    cache.clear_all()
    for i, parts in named.items():
        assert _parts_of[i] == parts and _shape_id(parts) == i
        assert _size_of[i] == sum(parts)
        assert _shape(i) is shared[parts]  # the same shared Partition
    assert bcd_multiply(
        FormalSum.single("sp", Partition((2, 2))), FormalSum.single("sp", Partition((3, 1)))
    ) == product


@given(partition_strategy)
def test_conjugate_id_names_the_transpose(lam):
    i = _shape_id(lam.parts)
    assert _parts_of[_conjugate_id(i)] == lam.transpose().parts
    assert _conjugate_id(_conjugate_id(i)) == i
