"""Batch command line for the stable-character engine.

Five subcommands: ``expand`` (Schur products and skews), ``kappa`` (kernel
expansions and positivity verdicts), ``embed`` (decompositions), ``verify``
(the identity checkers, exit 1 on failure), ``scan`` (the quadratic kernel
scan, single point or CSV grid).  Exit codes: 0 success / all checks pass,
1 a verification or positivity check failed, 2 usage or parse error.

``verify`` prints each case of :mod:`stablechar.checks` as soon as it is
decided, then a summary line; a run whose bounds select no case exits 2.

Rationals print as ``p/q`` (or a bare integer); output ordering is fixed, so
byte-identical inputs and seeds give byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import sys
from fractions import Fraction

from . import checks
from .embeddings import EmbeddingTable, image_by_skewing, image_from_table, random_table
from .kr import format_weight_decomposition, kr_decomposition, weights_json
from .partitions import Partition
from .schur import FormalSum, schur_multiply, skew_expand
from .series import (
    Series,
    is_kappa_positive,
    is_product_s_positive,
    kappa_expansion,
    product_expansion,
    quadratic_boundary,
    quadratic_scan,
)


def _parse_series(text: str, order: int) -> Series:
    text = text.strip()
    if text == "one":
        return Series.one()
    if text == "geom":
        return Series.geom(order)
    if text == "geom2":
        return Series.geom2(order)
    return Series.from_text(text)


def _count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _rational(text: str) -> Fraction:
    """The rational ``text``; ValueError names the text, a zero denominator
    included."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _parse_pair(text: str) -> tuple[Partition, Partition]:
    if "/" not in text:
        raise ValueError(f"expected LAMBDA/MU, got {text!r}")
    left, right = text.split("/", 1)
    return Partition.from_text(left), Partition.from_text(right)


# ---------------------------------------------------------------------------
# Subcommand handlers.
# ---------------------------------------------------------------------------


def _cmd_expand(args) -> int:
    if (args.multiply is None) == (args.skew is None):
        raise ValueError("expand needs exactly one of --multiply or --skew")
    if args.multiply is not None:
        lam, mu = _parse_pair(args.multiply)
        result = schur_multiply(
            FormalSum.single("schur", lam), FormalSum.single("schur", mu)
        )
    else:
        lam, mu = _parse_pair(args.skew)
        result = skew_expand(lam, mu)
    if args.json:
        print(json.dumps(result.to_json()))
    else:
        print(result)
    return 0


def _cmd_kappa(args) -> int:
    p = _parse_series(args.series, args.degree)
    if args.product:
        expansion_fn, verdict_fn = product_expansion, is_product_s_positive
    else:
        expansion_fn, verdict_fn = kappa_expansion, is_kappa_positive
    if args.check_positivity:
        verdict = verdict_fn(p, args.degree)
        print(verdict)
        return 0 if verdict.positive else 1
    expansion = expansion_fn(p, args.degree)
    if args.json:
        print(
            json.dumps(
                {
                    "schema": 1,
                    "degree": args.degree,
                    "graded": {
                        str(d): expansion.graded[d].to_json()["terms"]
                        for d in range(args.degree + 1)
                    },
                }
            )
        )
    else:
        for d in range(args.degree + 1):
            print(f"deg {d}: {expansion.graded[d]}")
    return 0


def _cmd_embed(args) -> int:
    lam = Partition.from_text(args.lam)
    sources = [s for s in (args.series, args.table, args.family) if s is not None]
    if len(sources) != 1:
        raise ValueError("embed needs exactly one of --series, --table, --family")
    if args.family is not None:
        dec = kr_decomposition(lam, args.family)
    elif args.series is not None:
        dec = image_by_skewing(_parse_series(args.series, lam.size), lam)
    else:
        dec = image_from_table(EmbeddingTable.load(args.table), lam)
    if args.json:
        payload = dec.to_json()
        if args.family is not None:
            # Stable-range caveat: the decomposition is meaningful for ranks
            # exceeding the number of parts by more than two.
            payload["family"] = args.family
            payload["valid_for_rank_above"] = len(lam) + 2
        if args.weights:
            payload["weights"] = weights_json(lam)
            for term in payload["terms"]:
                term["weights"] = weights_json(Partition(term["mu"]))
        print(json.dumps(payload))
    elif args.weights:
        print(format_weight_decomposition(dec))
    else:
        print(dec)
    return 0


def _series_set(args, order: int, default=("one", "geom2", "geom", "1,1")):
    """The selected ``(name, Series)`` pairs, parsed again one at a time as
    they are reached, so that no series outlives its case.  Every text is
    parsed once up front, so a bad one fails before the first case line."""
    names = args.series or default
    for name in names:
        _parse_series(name, order)
    return ((name, _parse_series(name, order)) for name in names)


def _verify_cases(args):
    """The generator of ``(label, passed)`` cases that the arguments select."""
    if args.prop == "kr":
        return checks.kr(args.max)
    if args.prop == "eqquad":
        return checks.eqquad(args.max)
    if args.prop == "parity":
        return checks.parity(_series_set(args, 2 * args.k + 2, ["1,0,2"]), args.k)
    if args.prop == "oracle":
        return checks.oracle(_series_set(args, args.max_size + 2), args.max_size)
    if args.prop == "ringhom":
        return checks.ringhom(_series_set(args, 2 * args.max_size), args.max_size)
    # Tables are drawn as they are reached, in (d, trial) order, as the seed fixes.
    ds, rng = args.d or [1, 2, 3], random.Random(args.seed)
    cutoff = args.k + max(ds) + 1
    tables = ((d, t, random_table(cutoff, d, rng)) for d in ds for t in range(args.trials))
    return checks.identities(args.prop, tables, args.k)


def _cmd_verify(args) -> int:
    total = passed = 0
    for label, ok in _verify_cases(args):
        print(f"{label}: {'PASS' if ok else 'FAIL'}", flush=True)
        total += 1
        passed += ok
    if not total:  # only kr, eqquad, linear and constant can select no case
        if args.prop in ("kr", "eqquad"):
            raise ValueError(f"no case to check within --max {args.max}")
        raise ValueError(
            f"no case to check within --trials {args.trials} and --k {args.k} (k starts at d + 2)"
        )
    suffix = f" (seed {args.seed})" if args.prop in ("linear", "constant") else ""
    print(f"verify: {passed}/{total} checks passed{suffix}")
    return 0 if passed == total else 1


_CSV_COLUMNS = [
    "schema",
    "a",
    "b",
    "degree",
    "coeff_s32211",
    "sign_s32211",
    "min_coeff",
    "min_shape",
    "signs_2t1t",
]


def _sign_char(value) -> str:
    return "+" if value > 0 else ("-" if value < 0 else "0")


def _schur_text(lam) -> str:
    """s[parts] as the text output of ``scan`` prints a shape, s[] when empty."""
    return f"s[{lam.to_text() if not lam.is_empty else ''}]"


def _scan_row(report) -> dict:
    critical = report.critical_coefficient
    return {
        "schema": 1,
        "a": str(report.a),
        "b": str(report.b),
        "degree": report.degree,
        "coeff_s32211": "n/a" if critical is None else str(critical),
        "sign_s32211": "?" if critical is None else _sign_char(critical),
        "min_coeff": str(report.binding_coefficient),
        "min_shape": report.binding_shape.to_text(),
        "signs_2t1t": ",".join(_sign_char(c) for _, c in report.hook_coefficients),
    }


def _parse_grid(spec: str) -> tuple[list[Fraction], list[Fraction]]:
    ranges = {}
    for piece in spec.split(","):
        name, _, body = piece.partition("=")
        name = name.strip()
        if name not in ("a", "b") or not body:
            raise ValueError(f"bad grid component {piece!r}")
        span, _, step = body.partition(":")
        lo, _, hi = span.partition("..")
        if not step or not hi:
            raise ValueError(f"bad grid component {piece!r}")
        lo, hi, step = _rational(lo), _rational(hi), _rational(step)
        if step <= 0 or hi < lo:
            raise ValueError(f"bad grid range {piece!r}")
        values = []
        cur = lo
        while cur <= hi:
            values.append(cur)
            cur += step
        ranges[name] = values
    if "a" not in ranges or "b" not in ranges:
        raise ValueError("grid needs both a=lo..hi:step and b=lo..hi:step")
    return ranges["a"], ranges["b"]


def _cmd_scan(args) -> int:
    if args.grid is not None:
        if args.csv is None:
            raise ValueError("--grid requires --csv OUT")
        a_values, b_values = _parse_grid(args.grid)
        with open(args.csv, "w", encoding="utf-8", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=_CSV_COLUMNS)
            writer.writeheader()
            for a in a_values:
                for b in b_values:
                    writer.writerow(_scan_row(quadratic_scan(a, b, args.degree)))
        print(f"wrote {len(a_values) * len(b_values)} rows to {args.csv}")
        return 0
    if args.a is None or args.b is None:
        raise ValueError("scan needs --a and --b (or --grid)")
    report = quadratic_scan(_rational(args.a), _rational(args.b), args.degree)
    if args.json:
        payload = _scan_row(report)
        payload["per_degree_min"] = [
            {"degree": d, "shape": lam.to_text(), "coeff": str(c)}
            for d, lam, c in report.per_degree_minimum
        ]
        print(json.dumps(payload))
        return 0
    exact, approx = quadratic_boundary(report.a)
    print(f"a = {report.a}  b = {report.b}  degree = {report.degree}")
    critical = report.critical_coefficient
    print(
        "coefficient of s[3,2,2,1,1]: "
        + ("n/a (degree < 9)" if critical is None else str(critical))
    )
    hooks = "  ".join(f"t={t}:{c}" for t, c in report.hook_coefficients)
    print(f"coefficients of s[2^t,1^t]: {hooks}")
    for d, lam, c in report.per_degree_minimum:
        print(f"deg {d} min: {c} at {_schur_text(lam)}")
    print(f"binding shape: {_schur_text(report.binding_shape)} coeff {report.binding_coefficient}")
    exact_text = str(exact) if exact is not None else "irrational"
    print(f"boundary b(a) = {approx:.6f} ({exact_text})")
    return 0


# ---------------------------------------------------------------------------
# Parser wiring.
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stablechar",
        description="Exact computations in the stable character rings of the classical groups.",
        epilog=(
            "Series syntax: comma-separated rationals with leading 1 "
            "(e.g. 1,1/2,0,3), or a preset: one, geom (all ones), geom2 "
            "(1,0,1,0,...). Partitions: comma-separated parts, '-' for the "
            "empty partition."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_expand = sub.add_parser("expand", help="Schur products and skew expansions")
    p_expand.add_argument("--multiply", metavar="LAM/MU", help="expand s_LAM * s_MU")
    p_expand.add_argument("--skew", metavar="LAM/MU", help="expand the skew shape LAM/MU")
    p_expand.add_argument("--json", action="store_true")
    p_expand.set_defaults(func=_cmd_expand)

    p_kappa = sub.add_parser("kappa", help="kappa kernel expansion / positivity verdict")
    p_kappa.add_argument("--series", required=True)
    p_kappa.add_argument("--degree", type=_count, required=True)
    p_kappa.add_argument(
        "--check-positivity",
        action="store_true",
        help="print only the verdict; exit 1 on a violation",
    )
    p_kappa.add_argument(
        "--product",
        action="store_true",
        help="expand the plain product kernel instead of kappa",
    )
    p_kappa.add_argument("--json", action="store_true")
    p_kappa.set_defaults(func=_cmd_kappa)

    p_embed = sub.add_parser("embed", help="image of a Schur function in the sp/o basis")
    p_embed.add_argument("--series")
    p_embed.add_argument("--table", metavar="FILE", help="JSON embedding table")
    p_embed.add_argument(
        "--family", choices=["C", "BD"], help="use the named rectangle family kernel"
    )
    p_embed.add_argument("--lambda", dest="lam", required=True)
    p_embed.add_argument("--weights", action="store_true", help="fundamental-weight rendering")
    p_embed.add_argument("--json", action="store_true")
    p_embed.set_defaults(func=_cmd_embed)

    p_verify = sub.add_parser(
        "verify", help="identity checkers; exit 0 iff every case passes"
    )
    p_verify.add_argument(
        "--prop",
        required=True,
        choices=["linear", "constant", "parity", "oracle", "ringhom", "eqquad", "kr"],
    )
    p_verify.add_argument("--max", type=_count, default=4, help="rectangle bound (kr/eqquad)")
    p_verify.add_argument(
        "--max-size", type=_count, default=8, help="largest shape size (oracle/ringhom)"
    )
    p_verify.add_argument("--d", type=int, action="append", help="diagonal(s) for linear/constant")
    p_verify.add_argument("--k", type=_count, default=9, help="largest k (linear/constant/parity)")
    p_verify.add_argument("--series", action="append", help="series under test (repeatable)")
    p_verify.add_argument("--trials", type=_count, default=5)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=_cmd_verify)

    p_scan = sub.add_parser("scan", help="quadratic kernel scan 1 + b x + a x^2")
    p_scan.add_argument("--a")
    p_scan.add_argument("--b")
    p_scan.add_argument("--degree", type=_count, default=11)
    p_scan.add_argument("--grid", metavar="SPEC", help="a=lo..hi:step,b=lo..hi:step")
    p_scan.add_argument("--csv", metavar="OUT", help="write one CSV row per grid point")
    p_scan.add_argument("--json", action="store_true")
    p_scan.set_defaults(
        func=_cmd_scan,
    )
    p_scan.epilog = (
        "CSV columns: " + ",".join(_CSV_COLUMNS) + ". signs_2t1t lists the "
        "signs of the s[2^t,1^t] coefficients for t = 1, 2, ..."
    )

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
