"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
complete.  Every expected value is exact; the time bounds are asserted too.
"""

import contextlib
import io
import itertools
import random
import time
from fractions import Fraction

from oracles import (
    all_even_columns,
    all_even_rows,
    canonical_key,
    newell_littlewood,
    root_of_critical_cubic,
)
from stablechar import checks
from stablechar.bcd import bcd_multiply
from stablechar.cli import main as cli_main
from stablechar.embeddings import image_by_skewing, parity_coefficient, random_table
from stablechar.kr import format_weight_decomposition, kr_decomposition
from stablechar.partitions import (
    EMPTY,
    Partition,
    partitions_of,
    partitions_through,
)
from stablechar.schur import FormalSum, omega, schur_multiply
from stablechar.series import (
    Series,
    dual,
    is_kappa_positive,
    is_product_s_positive,
    kappa_expansion,
    quadratic_scan,
    random_rational,
    real_negative_roots,
)


@contextlib.contextmanager
def criterion(number: int, label: str, budget_seconds: float | None = None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL: {label}")
        raise
    elapsed = time.monotonic() - start
    print(f"ACCEPTANCE {number:02d} PASS ({elapsed:.2f}s): {label}")
    if budget_seconds is not None:
        assert elapsed < budget_seconds, f"criterion {number} took {elapsed:.2f}s"


def run_cli(*args) -> tuple[int, str]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli_main(list(args))
    return code, buffer.getvalue()


def test_criterion_01_worked_example_exact():
    with criterion(1, "embed --series one --lambda 3,2,2 matches the worked example", 1.0):
        code, out = run_cli("embed", "--series", "one", "--lambda", "3,2,2")
        assert code == 0
        assert out.strip() == "sp[3,2,2] + sp[3,1,1] + sp[2,2,1] + sp[3] + sp[2,1]"
        dec = image_by_skewing(Series.one(), Partition((3, 2, 2)))
        assert dec.terms == {
            Partition((3, 2, 2)): 1,
            Partition((3, 1, 1)): 1,
            Partition((2, 2, 1)): 1,
            Partition((3,)): 1,
            Partition((2, 1)): 1,
        }


def test_criterion_02_littlewood_identities_degree_12():
    with criterion(2, "kappa presets one/geom2/geom match their shape classes to degree 12", 30.0):
        cases = [
            (Series.one(), all_even_columns),
            (Series.geom2(12), all_even_rows),
            (Series.geom(12), lambda lam: True),
        ]
        for p, predicate in cases:
            kappa = kappa_expansion(p, 12)
            for d in range(13):
                for lam in partitions_of(d):
                    expected = 1 if predicate(lam) else 0
                    assert kappa.graded[d].coefficient(lam) == expected, (p, lam)


def test_criterion_03_duality():
    with criterion(3, "kappa of the dual equals omega of kappa; dual is an involution", 30.0):
        rng = random.Random(20240317)
        quad = Series((1, random_rational(rng), random_rational(rng)))
        for p in [Series.one(), Series.geom(8), Series.from_text("1,1"), quad]:
            q = dual(p, order=8)
            kp = kappa_expansion(p.truncated(8) if p.polynomial else p, 8)
            kq = kappa_expansion(q, 8)
            for d in range(9):
                assert kq.graded[d] == omega(kp.graded[d])
            assert dual(q).coeffs == tuple(p.coeff(k) for k in range(9))


def test_criterion_04_oracle_equivalence_size_8():
    with criterion(4, "skew-route and table-route images agree for |lam| <= 8", 120.0):
        series = [
            ("one", Series.one()),
            ("geom2", Series.geom2(10)),
            ("geom", Series.geom(10)),
            ("1,1", Series.from_text("1,1")),
        ]
        assert [label for label, ok in checks.oracle(series, 8) if not ok] == []


def test_criterion_05_ring_homomorphism():
    with criterion(5, "images respect products for |mu|,|nu| <= 4", 120.0):
        series = [("one", Series.one()), ("geom2", Series.geom2(8))]
        assert [label for label, ok in checks.ringhom(series, 4) if not ok] == []


def test_criterion_06_newell_littlewood_structure():
    with criterion(6, "structure constants: top degree, parity, symmetry, unit, associativity", 120.0):
        shapes8 = list(partitions_through(8))
        for mu in shapes8:
            for nu in shapes8:
                if mu.size + nu.size > 8 or mu.parts > nu.parts:
                    continue
                product = bcd_multiply(
                    FormalSum.single("sp", mu), FormalSum.single("sp", nu)
                )
                top = product.restricted(min_degree=mu.size + nu.size)
                expected = schur_multiply(
                    FormalSum.single("schur", mu), FormalSum.single("schur", nu)
                )
                assert top.terms == expected.terms, (mu, nu)
                for lam in product.terms:
                    assert (mu.size + nu.size - lam.size) % 2 == 0

        shapes5 = list(partitions_through(5))
        for lam, mu, nu in itertools.combinations_with_replacement(shapes5, 3):
            reference = newell_littlewood(lam, mu, nu)
            for a, b, c in itertools.permutations((lam, mu, nu)):
                assert newell_littlewood(a, b, c) == reference

        for mu in shapes5:
            for nu in shapes5:
                assert newell_littlewood(EMPTY, mu, nu) == (1 if mu == nu else 0)

        rng = random.Random(606)
        pool = list(partitions_through(4))
        for _ in range(100):
            a, b, c = (FormalSum.single("sp", rng.choice(pool)) for _ in range(3))
            assert bcd_multiply(bcd_multiply(a, b), c) == bcd_multiply(
                a, bcd_multiply(b, c)
            )


def test_criterion_07_identity_pit():
    with criterion(7, "row/rectangle coefficient identities on seeded random tables", 300.0):
        tables = []
        for d in (1, 2, 3):
            rng = random.Random(7000 + d)
            tables += [(d, trial, random_table(12, d, rng)) for trial in range(5)]
        # A linear case passes only if its rectangle coefficient is minus its
        # row coefficient.
        for prop in ("linear", "constant"):
            failing = [label for label, ok in checks.identities(prop, tables, 9) if not ok]
            assert failing == []


def test_criterion_08_parity_formula():
    with criterion(8, "empty-shape coefficient of (2k+1,1) equals a_2k - a_{2k+2}", 120.0):
        rng = random.Random(808)
        series = []
        for trial in range(3):
            coeffs = [1] + [0] * 8
            for i in range(2, 9, 2):
                coeffs[i] = random_rational(rng)
            series.append((f"trial {trial}", Series(coeffs)))
        assert [label for label, ok in checks.parity(series, 3) if not ok] == []
        hand = parity_coefficient(Series.from_text("1,0,2"), 0)
        assert hand.equal and hand.computed == -1


def test_criterion_09_main_theorem_consequences():
    with criterion(9, "integrality/parity constraints isolate the two integral kernels", 120.0):
        verdict = is_kappa_positive(Series.from_text("1,0,2"), 2)
        assert verdict.violation == (Partition((1, 1)), -1)

        # First negative coefficient for p = 1 + x^2, scanning shapes and
        # then inner shapes canonically; witness pinned from the first run.
        p = Series.from_text("1,0,1")
        witness = None
        for lam in partitions_through(8):
            dec = image_by_skewing(p, lam)
            negatives = [
                (mu, c)
                for mu, c in sorted(dec.terms.items(), key=lambda kv: canonical_key(kv[0]))
                if c < 0
            ]
            if negatives:
                witness = (lam, *negatives[0])
                break
        assert witness == (Partition((2, 1, 1)), EMPTY, -1)

        for p in [Series.one(), Series.geom2(8)]:
            for lam in partitions_through(8):
                for mu, c in image_by_skewing(p, lam).terms.items():
                    assert isinstance(c, int) and c > 0, (p, lam, mu, c)
                    assert (lam.size - mu.size) % 2 == 0, (p, lam, mu)


def test_criterion_10_kr_rectangles_and_quadratic_identity():
    with criterion(10, "rectangle decompositions and the square identity", 120.0):
        # A rectangle passes only if every multiplicity is one.
        assert [label for label, ok in checks.kr(5) if not ok] == []
        assert [label for label, ok in checks.eqquad(4) if not ok] == []


def test_criterion_11_weight_notation_worked_example():
    with criterion(11, "type B/D decomposition of (3,2,2) in weight notation", 30.0):
        line = format_weight_decomposition(kr_decomposition(Partition((3, 2, 2)), "BD"))
        assert line == (
            "W(w1 + 2*w3) = V(w1 + 2*w3) + V(2*w1 + w3) + V(w2 + w3) "
            "+ V(3*w1) + V(w1 + w2)"
        )
        code, out = run_cli("embed", "--family", "BD", "--lambda", "3,2,2", "--weights")
        assert code == 0 and out.strip() == line


def test_criterion_12_quadratic_boundary():
    with criterion(12, "s[3,2,2,1,1] coefficient crosses zero exactly on the boundary", 120.0):
        a = Fraction(1, 4)
        assert quadratic_scan(a, Fraction(3, 10), 11).critical_coefficient == 0
        assert quadratic_scan(a, Fraction(1, 4), 11).critical_coefficient < 0
        assert quadratic_scan(a, Fraction(1, 2), 11).critical_coefficient > 0

        cubic = lambda z: 2 * z**3 + 3 * z**2 + z - 1
        lo, hi = Fraction(398155, 10**6), Fraction(398165, 10**6)
        assert cubic(lo) < 0 < cubic(hi)
        root = root_of_critical_cubic(Fraction(1, 10**8))
        assert lo < root < hi


def test_criterion_13_positivity_criteria():
    with criterion(13, "real negative roots imply product positivity through degree 8", 120.0):
        cube = Series.from_text("1,3,3,1")  # (1+x)^3
        for p in [Series.from_text("1,1"), Series.from_text("1,3,2"), cube]:
            assert real_negative_roots(p)
            assert is_product_s_positive(p, 8).positive
        verdict = is_product_s_positive(Series.from_text("1,1,1"), 8)
        assert verdict.violation == (Partition((1, 1, 1)), -1)
