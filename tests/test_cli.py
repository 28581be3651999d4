import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import stablechar
from stablechar import checks, cli
from stablechar.embeddings import Decomposition, random_table

# The child processes import the same copy of the package as this one.
_SRC = str(Path(stablechar.__file__).resolve().parents[1])


def run_cli(*args, env_extra=None, expect_code=0):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, env.get("PYTHONPATH"))))
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "stablechar", *args],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == expect_code, (args, proc.returncode, proc.stderr)
    return proc


def test_expand_skew():
    proc = run_cli("expand", "--skew", "3,2,2/1,1")
    assert proc.stdout.strip() == "s[3,1,1] + s[2,2,1]"


def test_expand_multiply():
    proc = run_cli("expand", "--multiply", "1/1")
    assert proc.stdout.strip() == "s[2] + s[1,1]"


def test_expand_non_containment_gives_zero():
    proc = run_cli("expand", "--skew", "2/1,1")
    assert proc.stdout.strip() == "0"


def test_expand_usage_errors():
    run_cli("expand", expect_code=2)
    run_cli("expand", "--skew", "3,2/1", "--multiply", "1/1", expect_code=2)
    run_cli("expand", "--skew", "2,3/1", expect_code=2)


def test_expand_is_deterministic():
    first = run_cli("expand", "--multiply", "2,1/2,1").stdout
    second = run_cli("expand", "--multiply", "2,1/2,1").stdout
    assert first == second


def test_kappa_listing():
    proc = run_cli("kappa", "--series", "one", "--degree", "4")
    assert proc.stdout.splitlines() == [
        "deg 0: s[]",
        "deg 1: 0",
        "deg 2: s[1,1]",
        "deg 3: 0",
        "deg 4: s[2,2] + s[1,1,1,1]",
    ]


def test_kappa_positivity_violation_exits_one():
    proc = run_cli(
        "kappa",
        "--series",
        "1,0,2",
        "--degree",
        "2",
        "--check-positivity",
        expect_code=1,
    )
    assert proc.stdout.strip() == "violation: s[1,1] coeff -1"


def test_kappa_positive_preset():
    proc = run_cli("kappa", "--series", "geom", "--degree", "3", "--check-positivity")
    assert proc.stdout.strip() == "positive-through-3"


def test_kappa_geom_listing_has_all_shapes():
    proc = run_cli("kappa", "--series", "geom", "--degree", "3")
    assert proc.stdout.splitlines()[3] == "deg 3: s[3] + s[2,1] + s[1,1,1]"


def test_kappa_product_flag():
    proc = run_cli(
        "kappa", "--series", "1,1,1", "--degree", "3", "--product", "--check-positivity",
        expect_code=1,
    )
    assert proc.stdout.strip() == "violation: s[1,1,1] coeff -1"


def test_embed_series():
    proc = run_cli("embed", "--series", "one", "--lambda", "3,2,2")
    assert proc.stdout.strip() == "sp[3,2,2] + sp[3,1,1] + sp[2,2,1] + sp[3] + sp[2,1]"


def test_embed_geom2():
    proc = run_cli("embed", "--series", "geom2", "--lambda", "2")
    assert proc.stdout.strip() == "sp[2] + sp[]"


def test_embed_table(tmp_path):
    path = tmp_path / "id.json"
    path.write_text(json.dumps({"schema": 1, "cutoff": 6, "m": []}), encoding="utf-8")
    proc = run_cli("embed", "--table", str(path), "--lambda", "1,1,1")
    assert proc.stdout.strip() == "sp[1,1,1]"


def test_embed_json_round_trip():
    proc = run_cli("embed", "--series", "one", "--lambda", "3,2,2", "--json")
    data = json.loads(proc.stdout)
    assert data["schema"] == 1
    assert data["basis"] == "sp"
    dec = Decomposition.from_json(data)
    assert dec.coefficient(dec.source) == 1
    assert len(dec.terms) == 5


def test_embed_family_weights():
    proc = run_cli("embed", "--family", "BD", "--lambda", "3,2,2", "--weights")
    assert proc.stdout.strip() == (
        "W(w1 + 2*w3) = V(w1 + 2*w3) + V(2*w1 + w3) + V(w2 + w3) "
        "+ V(3*w1) + V(w1 + w2)"
    )


def test_embed_family_weights_json():
    proc = run_cli(
        "embed", "--family", "BD", "--lambda", "3,2,2", "--weights", "--json"
    )
    data = json.loads(proc.stdout)
    assert data["family"] == "BD"
    assert data["valid_for_rank_above"] == 5
    assert data["weights"] == {"fundamental": [[1, 1], [3, 2]]}
    assert data["terms"][0]["weights"] == {"fundamental": [[1, 1], [3, 2]]}


def test_embed_source_flags_are_exclusive():
    run_cli("embed", "--series", "one", "--family", "C", "--lambda", "2", expect_code=2)
    run_cli("embed", "--lambda", "2", expect_code=2)


@pytest.mark.parametrize(
    "content, fragment",
    [
        ({"schema": 1}, "'cutoff'"),
        ([1, 2], "JSON object"),
        ({"schema": 1, "cutoff": 4, "m": [[1, 0, None]]}, "entry [1, 0, None]"),
        ({"schema": 1, "cutoff": "4"}, "'cutoff'"),
        ({"schema": 1, "cutoff": True}, "'cutoff'"),
        ({"schema": 1, "cutoff": 4, "m": [[1.5, 0, "1"]]}, "entry [1.5, 0, '1']"),
        ({"schema": 1, "cutoff": 4, "m": [[5, 0, "1"]]}, "entry (5,0) outside"),
        ("[" * 100000, "nested too deeply"),
        ({"schema": 1, "cutoff": 4, "m": [[1, 0, "1"], [1, 0, "2"]]}, "two entries for (1,0)"),
        ({"schema": 7, "cutoff": 4, "m": []}, "'schema' must be 1, got 7"),
        ({"cutoff": 4, "m": []}, "'schema' must be 1, got None"),
    ],
    ids=[
        "no-cutoff",
        "not-an-object",
        "null-value",
        "string-cutoff",
        "bool-cutoff",
        "float-index",
        "out-of-bounds",
        "deep-nesting",
        "duplicate-entry",
        "wrong-schema",
        "no-schema",
    ],
)
def test_malformed_table_is_a_usage_error(tmp_path, content, fragment):
    path = tmp_path / "bad.json"
    path.write_text(
        content if isinstance(content, str) else json.dumps(content), encoding="utf-8"
    )
    proc = run_cli("embed", "--table", str(path), "--lambda", "1", expect_code=2)
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and fragment in proc.stderr
    assert "Traceback" not in proc.stderr


def test_embed_cutoff_error_surfaces(tmp_path):
    path = tmp_path / "small.json"
    path.write_text(json.dumps({"schema": 1, "cutoff": 2, "m": []}), encoding="utf-8")
    proc = run_cli("embed", "--table", str(path), "--lambda", "4", expect_code=2)
    assert "cutoff" in proc.stderr


def test_verify_kr():
    proc = run_cli("verify", "--prop", "kr", "--max", "5")
    assert proc.stdout.splitlines()[-1] == "verify: 50/50 checks passed"


def test_verify_parity():
    proc = run_cli("verify", "--prop", "parity", "--series", "1,0,2", "--k", "0")
    lines = proc.stdout.splitlines()
    assert lines[0] == "parity p=1,0,2 k=0: -1 = -1: PASS"
    assert lines[-1] == "verify: 1/1 checks passed"


def test_verify_oracle_default_size_eight():
    proc = run_cli("verify", "--prop", "oracle", "--max-size", "8")
    assert proc.stdout.splitlines()[-1] == "verify: 4/4 checks passed"


def test_verify_ringhom_small():
    proc = run_cli(
        "verify", "--prop", "ringhom", "--max-size", "2", "--series", "one"
    )
    assert proc.stdout.splitlines()[-1] == "verify: 1/1 checks passed"


def test_verify_linear_seeded():
    proc = run_cli(
        "verify", "--prop", "linear", "--d", "1", "--k", "4", "--trials", "2",
        "--seed", "7",
    )
    lines = proc.stdout.splitlines()
    assert lines[-1] == "verify: 4/4 checks passed (seed 7)"
    again = run_cli(
        "verify", "--prop", "linear", "--d", "1", "--k", "4", "--trials", "2",
        "--seed", "7",
    )
    assert proc.stdout == again.stdout


def test_verify_eqquad_small():
    proc = run_cli("verify", "--prop", "eqquad", "--max", "2")
    assert proc.stdout.splitlines()[-1] == "verify: 8/8 checks passed"


KR_MAX_2 = """\
kr family=C rect=1x1: PASS
kr family=C rect=1x2: PASS
kr family=C rect=2x1: PASS
kr family=C rect=2x2: PASS
kr family=BD rect=1x1: PASS
kr family=BD rect=1x2: PASS
kr family=BD rect=2x1: PASS
kr family=BD rect=2x2: PASS
verify: 8/8 checks passed
"""


@pytest.mark.parametrize(
    "args, stdout",
    [
        (["--prop", "kr", "--max", "2"], KR_MAX_2),
        (
            ["--prop", "parity"],
            "parity p=1,0,2 k=0: -1 = -1: PASS\n"
            "parity p=1,0,2 k=1: 2 = 2: PASS\n"
            + "".join(f"parity p=1,0,2 k={k}: 0 = 0: PASS\n" for k in range(2, 10))
            + "verify: 10/10 checks passed\n",
        ),
        (
            ["--prop", "linear", "--d", "2", "--k", "6", "--trials", "1", "--seed", "0"],
            "linear d=2 k=4 trial=0: PASS\n"
            "linear d=2 k=5 trial=0: PASS\n"
            "linear d=2 k=6 trial=0: PASS\n"
            "verify: 3/3 checks passed (seed 0)\n",
        ),
        (
            ["--prop", "oracle", "--max-size", "3", "--series", "1,1/2"],
            "oracle p=1,1/2 max-size=3: PASS\nverify: 1/1 checks passed\n",
        ),
        (
            ["--prop", "constant", "--d", "1", "--d", "3", "--k", "7", "--trials", "1",
             "--seed", "0"],
            "".join(f"constant d=1 k={k} trial=0: PASS\n" for k in range(3, 8))
            + "".join(f"constant d=3 k={k} trial=0: PASS\n" for k in range(5, 8))
            + "verify: 8/8 checks passed (seed 0)\n",
        ),
    ],
)
def test_verify_full_output(args, stdout):
    proc = run_cli("verify", *args)
    assert proc.stdout == stdout
    assert proc.stderr == ""


def test_verify_failing_case_exits_one(monkeypatch, capsys):
    rectangle_check = checks.rectangle_check

    def one_wrong(height, width, family):
        report = rectangle_check(height, width, family)
        if (height, width, family) == (1, 2, "BD"):
            return report._replace(matches=False)
        return report

    monkeypatch.setattr(checks, "rectangle_check", one_wrong)
    assert cli.main(["verify", "--prop", "kr", "--max", "2"]) == 1
    expected = KR_MAX_2.replace("BD rect=1x2: PASS", "BD rect=1x2: FAIL")
    assert capsys.readouterr().out == expected.replace("8/8", "7/8")


def test_verify_prints_decided_cases_before_an_error():
    proc = run_cli(
        "verify", "--prop", "parity", "--series", "1,0,0,1", "--k", "2", expect_code=2
    )
    assert proc.stdout == "parity p=1,0,0,1 k=0: 1 = 1: PASS\n"
    assert proc.stderr == "error: parity_coefficient needs an even series\n"


@pytest.mark.parametrize(
    "args",
    [
        ["--prop", "kr", "--max", "-1"],
        ["--prop", "eqquad", "--max", "two"],
        ["--prop", "oracle", "--max-size", "-1"],
        ["--prop", "parity", "--k", "-1"],
        ["--prop", "linear", "--trials", "-3"],
    ],
)
def test_verify_rejects_negative_bounds(args):
    proc = run_cli("verify", *args, expect_code=2)
    assert proc.stdout == ""
    assert "expected a non-negative integer" in proc.stderr


@pytest.mark.parametrize(
    "args, bounds",
    [
        (["--prop", "kr", "--max", "0"], "--max 0"),
        (["--prop", "eqquad", "--max", "0"], "--max 0"),
        (["--prop", "linear", "--trials", "0"], "--trials 0"),
        (["--prop", "constant", "--d", "2", "--d", "3", "--k", "3"], "--k 3"),
    ],
)
def test_verify_without_cases_exits_two(args, bounds):
    proc = run_cli("verify", *args, expect_code=2)
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: no case to check") and bounds in proc.stderr


def test_verify_draws_no_table_for_a_d_without_cases(monkeypatch, capsys):
    # A d with d + 2 > k selects no case, and its table, of cutoff k + d + 1,
    # would take time and memory quadratic in d.
    drawn = []

    def recording(cutoff, d, rng):
        drawn.append((cutoff, d))
        if cutoff > 6:  # the table a d of 100000 asks for would not fit in memory
            raise ValueError(f"a table of cutoff {cutoff} was drawn")
        return random_table(cutoff, d, rng)

    monkeypatch.setattr(cli, "random_table", recording)
    verify = ["verify", "--prop", "constant", "--k", "4", "--trials", "1"]
    assert cli.main([*verify, "--d", "100000"]) == 2
    assert drawn == []
    assert capsys.readouterr().err.startswith("error: no case to check")
    assert cli.main([*verify, "--d", "1", "--d", "100000"]) == 0
    assert drawn == [(6, 1)]
    assert capsys.readouterr().out.endswith("verify: 2/2 checks passed (seed 0)\n")
    assert cli.main([*verify, "--d", "0", "--k", "1"]) == 2
    assert capsys.readouterr().err == "error: d must be at least 1\n"


def test_verify_rejects_a_repeated_d(monkeypatch, capsys):
    # Two tables drawn for one d would print the same labels twice.
    drawn = []
    monkeypatch.setattr(cli, "random_table", lambda *args: drawn.append(args))
    verify = ["verify", "--prop", "constant", "--k", "4", "--trials", "1"]
    assert cli.main([*verify, "--d", "1", "--d", "1"]) == 2
    assert drawn == []
    assert capsys.readouterr() == ("", "error: --d 1 given twice\n")


def test_scan_single_point():
    proc = run_cli("scan", "--a", "1/4", "--b", "3/10", "--degree", "11")
    lines = proc.stdout.splitlines()
    assert lines[0] == "a = 1/4  b = 3/10  degree = 11"
    assert lines[1] == "coefficient of s[3,2,2,1,1]: 0"
    assert any(line.startswith("binding shape:") for line in lines)
    assert lines[-1] == "boundary b(a) = 0.300000 (3/10)"


def test_scan_degree_zero_full_output():
    # The empty shape prints as s[] on both the per-degree and binding lines.
    proc = run_cli("scan", "--a", "1/4", "--b", "3/10", "--degree", "0")
    assert proc.stdout == (
        "a = 1/4  b = 3/10  degree = 0\n"
        "coefficient of s[3,2,2,1,1]: n/a (degree < 9)\n"
        "coefficients of s[2^t,1^t]: \n"
        "deg 0 min: 1 at s[]\n"
        "binding shape: s[] coeff 1\n"
        "boundary b(a) = 0.300000 (3/10)\n"
    )
    assert proc.stderr == ""
    # The JSON and CSV min_shape keep the text form of a partition.
    proc = run_cli("scan", "--a", "1/4", "--b", "3/10", "--degree", "0", "--json")
    assert json.loads(proc.stdout)["min_shape"] == "-"


def test_scan_trivial_point_nonnegative():
    proc = run_cli("scan", "--a", "0", "--b", "0", "--degree", "9", "--json")
    data = json.loads(proc.stdout)
    assert data["schema"] == 1
    assert data["sign_s32211"] == "0"
    assert all(item["coeff"][0] != "-" for item in data["per_degree_min"])


def test_scan_grid_csv(tmp_path):
    out = tmp_path / "grid.csv"
    proc = run_cli(
        "scan", "--grid", "a=0..1/4:1/4,b=0..1/4:1/8", "--csv", str(out),
        "--degree", "9",
    )
    assert f"wrote 6 rows to {out}" in proc.stdout
    rows = out.read_text(encoding="utf-8").strip().splitlines()
    assert rows[0].split(",")[:4] == ["schema", "a", "b", "degree"]
    assert len(rows) == 7
    assert rows[1].startswith("1,0,0,9,")


def test_scan_low_degree_reports_all_nonnegative():
    proc = run_cli("scan", "--a", "0", "--b", "0", "--degree", "6")
    lines = proc.stdout.splitlines()
    assert lines[1] == "coefficient of s[3,2,2,1,1]: n/a (degree < 9)"
    assert all(" min: -" not in line for line in lines)


def test_scan_usage():
    run_cli("scan", "--a", "1/4", expect_code=2)
    run_cli("scan", "--grid", "a=0..1:1/2", "--csv", "x.csv", expect_code=2)
    run_cli("scan", "--grid", "a=0..1:1/2,b=0..1:1/2", expect_code=2)


def test_scan_rejects_an_oversized_grid(tmp_path, capsys):
    # The points are counted before any is built: a list of 10^8 fractions
    # would take minutes and exhaust memory.
    out = tmp_path / "grid.csv"
    start = time.perf_counter()
    code = cli.main(["scan", "--grid", "a=0..1:1/100000000,b=0..0:1", "--csv", str(out)])
    assert time.perf_counter() - start < 1
    assert code == 2
    assert capsys.readouterr() == ("", "error: grid has 100000001 points, more than 10000\n")
    assert not out.exists()


def test_scan_rejects_a_repeated_grid_component(tmp_path, capsys):
    # A second a= used to replace the first silently.
    out = tmp_path / "grid.csv"
    code = cli.main(
        ["scan", "--grid", "a=0..1:1/2,a=1/4..1/4:1,b=0..0:1", "--csv", str(out), "--degree", "3"]
    )
    assert code == 2
    assert capsys.readouterr() == ("", "error: grid component 'a' given twice\n")
    assert not out.exists()


def test_scan_zero_denominator_is_a_parse_error(tmp_path):
    proc = run_cli("scan", "--a", "1/0", "--b", "1", expect_code=2)
    assert proc.stdout == ""
    assert proc.stderr == "error: zero denominator in '1/0'\n"
    out = tmp_path / "grid.csv"
    proc = run_cli(
        "scan", "--grid", "a=0..1:1/0,b=0..1:1", "--csv", str(out), expect_code=2
    )
    assert proc.stdout == ""
    assert proc.stderr == "error: zero denominator in '1/0'\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["kappa", "--series", "geom", "--degree", "-1"],
        ["scan", "--a", "1/4", "--b", "3/10", "--degree", "-1"],
    ],
)
def test_negative_degree_is_a_usage_error(args):
    proc = run_cli(*args, expect_code=2)
    assert proc.stdout == ""
    assert "--degree" in proc.stderr and "expected a non-negative integer" in proc.stderr


@pytest.mark.parametrize(
    "args, message",
    [
        (["expand", "--skew", "1500,1/-"], "input too large: recursion depth exceeded"),
        (["embed", "--lambda", "1500,1", "--family", "C"], "input too large: recursion depth exceeded"),
        (["scan", "--a", "1e400", "--b", "1", "--degree", "3"], "a is too large, or too close to -1"),
    ],
)
def test_inputs_too_large_exit_two(args, message):
    # These used to end in a RecursionError or OverflowError traceback and
    # exit 1, the code of a failed check.
    proc = run_cli(*args, expect_code=2)
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"error: {message}") and proc.stderr.count("\n") == 1


def test_cache_dir_variable_is_ignored(tmp_path, monkeypatch):
    # Earlier versions kept memo tables in a file in this directory.
    monkeypatch.delenv("STABLECHAR_CACHE_DIR", raising=False)
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    args = ("expand", "--skew", "3,2,2/1,1")
    plain = run_cli(*args)
    with_dir = run_cli(*args, env_extra={"STABLECHAR_CACHE_DIR": str(cache_dir)})
    assert (with_dir.stdout, with_dir.stderr) == (plain.stdout, plain.stderr)
    assert list(cache_dir.iterdir()) == []


def test_importing_the_cli_runs_no_code_generation():
    # Reports are named tuples: no engine module imports dataclasses, which
    # pulls in inspect, ast and dis at every start-up; nothing writes a
    # file, so nothing needs tempfile or shutil.
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import stablechar.cli; "
        "print([m for m in ('dataclasses', 'inspect', 'ast', 'dis', 'tempfile', 'shutil') "
        "if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, _SRC], capture_output=True, text=True, check=True
    )
    assert proc.stdout == "[]\n"


def test_unknown_command_exits_two():
    run_cli("frobnicate", expect_code=2)


@pytest.mark.parametrize(
    "args, out",
    [(["expand", "--skew", "-/-"], "s[]\n"), (["expand", "--multiply", "-/2,1"], "s[2,1]\n")],
)
def test_a_value_may_start_with_the_empty_partition(args, out):
    # The epilog's '-' for the empty partition, first in LAM/MU: argparse
    # read '-/-' as an option of its own and exited 2.
    assert run_cli(*args).stdout == out


def test_a_negative_rational_may_follow_its_option(capsys):
    scan = ["scan", "--b", "-1/3", "--degree", "3"]
    assert cli.main([*scan, "--a=-1/2"]) == 0
    joined = capsys.readouterr().out
    assert cli.main([*scan, "--a", "-1/2"]) == 0
    assert capsys.readouterr().out == joined and "a = -1/2  b = -1/3" in joined


# sha256 of the stdout of fast commands that reach every engine layer.  The
# README promises byte-identical output for identical inputs and seeds: a
# change that alters one of these outputs must say why, and update it here.
PINNED_STDOUT = [
    ("expand --skew 6,5,3,2,1/3,2,1", "264d0852e014e2dcabb350e69fb012bab7cbe5bbe99e4603f1852ae469d55cfd"),
    ("expand --multiply 4,3,1/3,2 --json", "973ebad10e672cbafef41768fb84e2889ae19c272b14dafba005c72cf27ce5e2"),
    ("kappa --series 1,1/2,0,3 --degree 10", "b40b293bbeb2563dd2e8d59555707336961e71ca7764ee43200a831168f19038"),
    ("embed --series 1,1/2,0,3 --lambda 5,4,3,1", "4eef0284ba0cc4c0bb24878020a5548ddf8e24d9558dac53493fcf3a5f2eb8d8"),
    ("embed --family BD --lambda 3,3,3 --weights", "46d23d2e1f174a4878a863c5b81200777b647eaf371e2d3d0e2b6cb1e2d138b6"),
    ("embed --table TABLE --lambda 3,3,2,1 --json", "42b7b077af4c102c585e2827d603e9b9bdeaf97df3ed4fcd16c2fae2045e5cee"),
    ("verify --prop constant --k 9 --trials 1 --seed 3", "7b5a247d3ce161141b7ca0af8281b43b44a517534d77abd1451ce9bbc12dd80b"),
    ("verify --prop linear --k 9 --trials 1 --seed 3", "fd12906cb5e4764fedd2c7ba2a0cef4b2dad86828a638c038a0623bcf382fa98"),
    ("verify --prop oracle --max-size 8", "60a5ccf122eb44febc4a453cd28b9e6ab06cd906c446b28c3efd1db315c3f5a9"),
    ("verify --prop ringhom --max-size 4", "226600e7eaf7c6bc974a3eac96efe062f02e36062b303b7f3a5c78858bf33345"),
    ("verify --prop eqquad --max 3", "01b0eb16b04991ed2e2053bcdec1012f1809d7bbbb7f31923d5d3a1786c58d99"),
    ("scan --a 1 --b 1/2 --json", "0e3ca10e8f5fba2d229b88e46be690c9dce17aba570e22d6ae1bc632fec178b1"),
]


def test_pinned_commands_print_the_same_bytes(tmp_path, capsys):
    table = tmp_path / "table.json"
    table.write_text(json.dumps(random_table(9, 2, random.Random(7)).to_json()))
    digests = []
    for command, _ in PINNED_STDOUT:
        assert cli.main(command.replace("TABLE", str(table)).split()) == 0, command
        digests.append((command, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()))
    assert digests == PINNED_STDOUT
