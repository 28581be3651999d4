"""Every ``checks`` generator turns a wrong engine result into a failed case.

The acceptance tests assert that the generators report no failure on the
real engine; these tests substitute one engine function at a time, so a
generator that could never fail is caught too.
"""

import pytest

from stablechar import checks
from stablechar.embeddings import Decomposition, table_from_series
from stablechar.partitions import EMPTY, Partition, _shape_id
from stablechar.series import Series

SERIES = [("one", Series.one()), ("geom", Series.geom(6))]
TABLES = [(1, 0, table_from_series(Series.geom(8), 8))]


@pytest.mark.parametrize(
    "name, field, cases",
    [
        ("rectangle_check", "matches", lambda: checks.kr(2)),
        ("quadratic_identity_check", "holds", lambda: checks.eqquad(2)),
        ("parity_coefficient", "equal", lambda: checks.parity(SERIES[:1], 2)),
        ("verify_linear_identity", "equal", lambda: checks.identities("linear", TABLES, 5)),
        ("verify_constant_identity", "equal", lambda: checks.identities("constant", TABLES, 5)),
    ],
)
def test_a_failed_report_is_a_failed_case(monkeypatch, name, field, cases):
    engine = getattr(checks, name)
    assert all(ok for _, ok in cases())
    monkeypatch.setattr(
        checks, name, lambda *args: engine(*args)._replace(**{field: False})
    )
    results = list(cases())
    assert results and not any(ok for _, ok in results)


def test_oracle_fails_when_the_routes_differ(monkeypatch):
    image_from_table = checks.image_from_table

    def one_wrong_image(table, lam):
        dec = image_from_table(table, lam)
        if lam != Partition((2, 1)):
            return dec
        return Decomposition(lam, dec.basis, {**dec.terms, EMPTY: dec.coefficient(EMPTY) + 1})

    monkeypatch.setattr(checks, "image_from_table", one_wrong_image)
    assert [ok for _, ok in checks.oracle(SERIES, 2)] == [True, True]
    assert [ok for _, ok in checks.oracle(SERIES, 3)] == [False, False]


def test_ringhom_fails_when_a_product_differs(monkeypatch):
    sum_product = checks._sum_product
    box = _shape_id((1,))

    def one_wrong_product(a, b, *args):
        den, product = sum_product(a, b, *args)
        if a[1].keys() == b[1].keys() == {box}:
            return den, {**product, 0: product.get(0, 0) + den}  # plus sp[]
        return den, product

    monkeypatch.setattr(checks, "_sum_product", one_wrong_product)
    one = SERIES[:1]  # the image of s[1] is sp[1] only for this series
    assert [ok for _, ok in checks.ringhom(one, 1)] == [False]
    assert [ok for _, ok in checks.ringhom(one, 0)] == [True]
