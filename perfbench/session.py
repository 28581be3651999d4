"""The ``session`` workload: a short sequence of fresh ``stablechar`` command
line processes that share one ``STABLECHAR_CACHE_DIR``.

This module does not import the engine; the benchmark's parent process uses
it to build the command sequence and to check each process's output.

The order is fixed because it sets the cost: ``verify --prop constant``
leaves a cache file of several hundred kilobytes, and the process started
after it loads that file and writes it back.  The seed picks the tables of
the ``constant`` check and the family and rectangle of the final ``embed``;
all choices cost about the same.
"""

from __future__ import annotations

import json
import random
from typing import Callable, NamedTuple

from oracles import domino_closure

RECT_BOUND = 4  # --max of the kr check
SQUARE_BOUND = 3  # --max of the eqquad check
CONSTANT_K = 7  # --k of the constant check, over d = 1, 2, 3


class Command(NamedTuple):
    label: str
    args: list[str]  # arguments after the program name
    check: Callable[[str], None]  # raises AssertionError on wrong output


def _all_passed(expected: int, suffix: str = "") -> Callable[[str], None]:
    def check(stdout: str) -> None:
        lines = stdout.splitlines()
        verdicts = [line for line in lines[:-1] if line.endswith((": PASS", ": FAIL"))]
        assert len(verdicts) == expected, f"{len(verdicts)} verdict lines, want {expected}"
        assert all(line.endswith(": PASS") for line in verdicts), "a check failed"
        want = f"verify: {expected}/{expected} checks passed{suffix}"
        assert lines and lines[-1] == want, f"last line {lines[-1:]!r}, want {want!r}"

    return check


def _rectangle_embedding(height: int, width: int, family: str) -> Callable[[str], None]:
    def check(stdout: str) -> None:
        payload = json.loads(stdout)
        assert payload["basis"] == ("sp" if family == "C" else "o"), payload["basis"]
        assert payload["lambda"] == [width] * height, payload["lambda"]
        got = {tuple(t["mu"]): t["coeff"] for t in payload["terms"]}
        want = {shape: "1" for shape in domino_closure(height, width, family)}
        assert got == want, f"terms {sorted(got)} differ from the domino closure"

    return check


def commands(seed: int) -> list[Command]:
    rng = random.Random(seed)
    table_seed = rng.randrange(10**6)
    family = rng.choice(("C", "BD"))
    height, width = rng.randint(2, 4), rng.randint(2, 4)
    constant_checks = sum(CONSTANT_K - d - 1 for d in (1, 2, 3))  # k = d+2 .. CONSTANT_K
    return [
        Command(
            f"verify kr --max {RECT_BOUND}",
            ["verify", "--prop", "kr", "--max", str(RECT_BOUND)],
            _all_passed(2 * RECT_BOUND**2),
        ),
        Command(
            f"verify eqquad --max {SQUARE_BOUND}",
            ["verify", "--prop", "eqquad", "--max", str(SQUARE_BOUND)],
            _all_passed(2 * SQUARE_BOUND**2),
        ),
        Command(
            f"verify constant --k {CONSTANT_K} --seed {table_seed}",
            ["verify", "--prop", "constant", "--k", str(CONSTANT_K), "--trials", "1",
             "--seed", str(table_seed)],
            _all_passed(constant_checks, f" (seed {table_seed})"),
        ),
        Command(
            f"embed --family {family} rect={height}x{width}",
            ["embed", "--family", family, "--lambda", ",".join([str(width)] * height), "--json"],
            _rectangle_embedding(height, width, family),
        ),
    ]
