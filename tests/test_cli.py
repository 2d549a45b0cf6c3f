"""CLI contract tests: golden outputs, exit codes, determinism, budgets."""

import json
import os
import pathlib
import shutil
import subprocess

import pytest

import mixedmult.cli as cli
import mixedmult.multigraded as mg
from mixedmult import MixedMultTable, set_pair_budget
from mixedmult.cli import run

TESTS_DIR = pathlib.Path(__file__).resolve().parent
GOLDEN_DIR = TESTS_DIR / "golden"
INPUTS = "golden/inputs"


def run_cli(capsys, *argv):
    rc = run([str(a) for a in argv])
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def report_of(out: str) -> dict:
    rep = json.loads(out)
    rep.pop("timing", None)
    return rep


# ---------------------------------------------------------------------------
# Golden outputs, one per subcommand

GOLDEN_CASES = [
    ("hilbert_diag", ["hilbert", "--input", f"{INPUTS}/diag.json"]),
    ("mixed_mult_nbar", ["mixed-mult", "--input", f"{INPUTS}/nbar.json"]),
    (
        "multidegree_diag",
        ["multidegree", "--input", f"{INPUTS}/diag.json", "--type", "1,0"],
    ),
    (
        "slice_diag",
        [
            "slice",
            "--input",
            f"{INPUTS}/diag.json",
            "--type",
            "1,0",
            "--trials",
            "5",
        ],
    ),
    (
        "projdeg_cremona",
        ["projdeg", "--input", f"{INPUTS}/cremona.json", "--method", "both"],
    ),
    (
        "formula_ht3",
        ["formula", "--ht3", "--d", "3", "--n", "4", "--D", "1", "--delta", "2"],
    ),
    (
        "satfiber_cremona",
        ["satfiber", "--input", f"{INPUTS}/cremona_map.json", "--q-max", "6"],
    ),
    (
        "check_g_cremona",
        ["check-g", "--input", f"{INPUTS}/cremona.json", "--s", "3"],
    ),
]


@pytest.mark.parametrize(
    "name,argv", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES]
)
def test_golden_output(name, argv, capsys, monkeypatch):
    """Byte-stable report (modulo timing) for a fixed invocation.

    Regenerate with MM_REGEN_GOLDEN=1 after an intentional schema change.
    """
    monkeypatch.chdir(TESTS_DIR)
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 0
    assert err == ""
    got = report_of(out)
    path = GOLDEN_DIR / f"{name}.json"
    if os.environ.get("MM_REGEN_GOLDEN"):
        path.write_text(json.dumps(got, sort_keys=True, indent=2) + "\n")
    assert got == json.loads(path.read_text())


# ---------------------------------------------------------------------------
# Output format and determinism


def test_compact_output_is_one_json_line(capsys, monkeypatch):
    monkeypatch.chdir(TESTS_DIR)
    rc, out, _ = run_cli(
        capsys, "multidegree", "--input", f"{INPUTS}/diag.json", "--type", "1,0"
    )
    assert rc == 0
    assert out.endswith("\n") and out.count("\n") == 1
    json.loads(out)


def test_pretty_output_same_report(capsys, monkeypatch):
    monkeypatch.chdir(TESTS_DIR)
    args = ("multidegree", "--input", f"{INPUTS}/diag.json", "--type", "1,0")
    _, compact, _ = run_cli(capsys, *args)
    rc, pretty, _ = run_cli(capsys, *args, "--pretty")
    assert rc == 0
    assert pretty.count("\n") > 1
    assert report_of(pretty) == report_of(compact)


def test_repeated_runs_identical_modulo_timing(capsys, monkeypatch):
    """Randomized slicing is seeded, so whole reports must replay."""
    monkeypatch.chdir(TESTS_DIR)
    args = (
        "slice",
        "--input",
        f"{INPUTS}/diag.json",
        "--type",
        "0,1",
        "--trials",
        "4",
        "--seed",
        "9",
    )
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert report_of(first) == report_of(second)


def test_digest_tracks_arguments(capsys, monkeypatch):
    monkeypatch.chdir(TESTS_DIR)
    base = ("multidegree", "--input", f"{INPUTS}/diag.json")
    _, a, _ = run_cli(capsys, *base, "--type", "1,0")
    _, b, _ = run_cli(capsys, *base, "--type", "0,1")
    _, c, _ = run_cli(capsys, *base, "--type", "1,0")
    assert report_of(a)["inputs_digest"] != report_of(b)["inputs_digest"]
    assert report_of(a)["inputs_digest"] == report_of(c)["inputs_digest"]
    assert report_of(b)["result"]["value"] == 1


def test_digest_ignores_presentation_flags(capsys, monkeypatch):
    monkeypatch.chdir(TESTS_DIR)
    args = ("check-g", "--input", f"{INPUTS}/failing_g.json", "--s", "3")
    _, plain, _ = run_cli(capsys, *args)
    _, allowed, _ = run_cli(capsys, *args, "--allow-failed-checks", "--pretty")
    assert (
        report_of(plain)["inputs_digest"]
        == report_of(allowed)["inputs_digest"]
    )


# ---------------------------------------------------------------------------
# Exit code 1: mathematical failures, reported as JSON


def test_nonhomogeneous_ideal_reports_math_error(capsys, monkeypatch):
    monkeypatch.chdir(TESTS_DIR)
    rc, out, err = run_cli(
        capsys, "hilbert", "--input", f"{INPUTS}/nonhomogeneous.json"
    )
    assert rc == 1
    assert err == ""
    rep = report_of(out)
    assert rep["result"] is None
    assert rep["checks"] == []
    assert rep["error"]["type"] == "NotMultihomogeneousError"


def test_pair_budget_flag_reports_stats(capsys, monkeypatch):
    monkeypatch.chdir(TESTS_DIR)
    rc, out, _ = run_cli(
        capsys,
        "hilbert",
        "--input",
        f"{INPUTS}/budget_flag.json",
        "--pair-budget",
        "1",
    )
    assert rc == 1
    rep = report_of(out)
    assert rep["error"]["type"] == "PairBudgetExceeded"
    stats = rep["error"]["stats"]
    assert stats["budget"] == 1
    assert stats["pairs_processed"] > stats["budget"]
    assert "pairs_remaining" in stats


def test_pair_budget_env_variable(capsys, monkeypatch):
    monkeypatch.chdir(TESTS_DIR)
    monkeypatch.setenv("MM_PAIR_BUDGET", "1")
    rc, out, _ = run_cli(
        capsys, "hilbert", "--input", f"{INPUTS}/budget_env.json"
    )
    assert rc == 1
    assert report_of(out)["error"]["type"] == "PairBudgetExceeded"


def test_pair_budget_flag_overrides_env(capsys, monkeypatch):
    monkeypatch.chdir(TESTS_DIR)
    monkeypatch.setenv("MM_PAIR_BUDGET", "1")
    rc, out, _ = run_cli(
        capsys,
        "hilbert",
        "--input",
        f"{INPUTS}/budget_override.json",
        "--pair-budget",
        "200000",
    )
    assert rc == 0
    assert report_of(out)["result"]["dimension"] == 1


def test_failed_check_exits_one(capsys, monkeypatch):
    monkeypatch.chdir(TESTS_DIR)
    rc, out, _ = run_cli(
        capsys, "check-g", "--input", f"{INPUTS}/failing_g.json", "--s", "3"
    )
    assert rc == 1
    rep = report_of(out)
    assert rep["failed_checks"] == ["g_condition"]
    assert rep["result"]["g_condition"] is False


def test_allow_failed_checks_forces_success(capsys, monkeypatch):
    monkeypatch.chdir(TESTS_DIR)
    rc, out, _ = run_cli(
        capsys,
        "check-g",
        "--input",
        f"{INPUTS}/failing_g.json",
        "--s",
        "3",
        "--allow-failed-checks",
    )
    assert rc == 0
    assert report_of(out)["failed_checks"] == ["g_condition"]


@pytest.mark.parametrize(
    "argv",
    [
        ["mixed-mult", "--input", f"{INPUTS}/diag.json"],
        ["multidegree", "--input", f"{INPUTS}/diag.json", "--type", "1,0"],
    ],
    ids=["mixed-mult", "multidegree"],
)
def test_route_disagreement_fails_the_check(argv, capsys, monkeypatch):
    monkeypatch.chdir(TESTS_DIR)
    real = mg.mixed_mult_series
    monkeypatch.setattr(
        mg,
        "mixed_mult_series",
        lambda J: MixedMultTable(real(J).dimension, "series", {(9, 9): 1}),
    )
    rc, out, _ = run_cli(capsys, *argv)
    assert rc == 1
    rep = report_of(out)
    assert rep["failed_checks"] == ["route_agreement"]
    check = rep["checks"][0]
    assert check["name"] == "route_agreement" and check["passed"] is False


@pytest.mark.parametrize("trials", [1, 2, 5])
def test_slice_disagreement_fails_the_check(trials, capsys, monkeypatch):
    """A slice check needs a matching trial, even when only one is run."""
    monkeypatch.chdir(TESTS_DIR)
    monkeypatch.setattr(cli, "multidegree", lambda J, n: 999)
    rc, out, _ = run_cli(
        capsys,
        "slice",
        "--input",
        f"{INPUTS}/diag.json",
        "--type",
        "1,0",
        "--trials",
        trials,
    )
    assert rc == 1
    rep = report_of(out)
    assert rep["failed_checks"] == ["slicing_matches_multidegree"]
    details = rep["checks"][0]["details"]
    assert details["matching_trials"] == 0 and details["trials"] == trials


def test_multidegree_type_length_mismatch(capsys, monkeypatch):
    monkeypatch.chdir(TESTS_DIR)
    rc, out, _ = run_cli(
        capsys, "multidegree", "--input", f"{INPUTS}/diag.json", "--type", "1,0,0"
    )
    assert rc == 1
    assert report_of(out)["error"] == {
        "type": "ValueError",
        "message": "type vector length mismatch",
    }


def test_run_restores_the_callers_pair_budget(capsys):
    set_pair_budget(5000)
    try:
        for extra in ((), ("--pair-budget", "7")):
            rc, _, _ = run_cli(
                capsys, "formula", "--ht2", "--d", "2", "--mu", "1,1,1", *extra
            )
            assert rc == 0
            assert set_pair_budget(5000) == 5000
    finally:
        set_pair_budget(None)


# ---------------------------------------------------------------------------
# Exit code 2: usage and input errors, diagnostic on stderr


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_nonpositive_pair_budget_is_a_usage_error(capsys, budget):
    rc, out, err = run_cli(
        capsys, "formula", "--ht2", "--d", "2", "--mu", "1,1,1", "--pair-budget", budget
    )
    assert rc == 2
    assert out == ""
    assert err == "mm: --pair-budget must be positive\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["hilbert", "--input", f"{INPUTS}/diag.json"],
        ["formula", "--ht2", "--d", "2", "--mu", "1,1,1"],
    ],
    ids=["hilbert", "formula"],
)
@pytest.mark.parametrize(
    "env, message",
    [
        ("0", "MM_PAIR_BUDGET must be positive"),
        ("-1", "MM_PAIR_BUDGET must be positive"),
        ("abc", "MM_PAIR_BUDGET must be an integer, got 'abc'"),
    ],
)
def test_bad_pair_budget_env_is_a_usage_error(capsys, monkeypatch, argv, env, message):
    """Every command rejects a bad MM_PAIR_BUDGET before it runs, including
    one that computes no Groebner basis."""
    monkeypatch.chdir(TESTS_DIR)
    monkeypatch.setenv("MM_PAIR_BUDGET", env)
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert err == f"mm: {message}\n"


def test_malformed_json_input(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc, out, err = run_cli(capsys, "hilbert", "--input", bad)
    assert rc == 2
    assert out == ""
    assert "malformed JSON" in err


def test_missing_input_file(capsys, tmp_path):
    rc, _, err = run_cli(capsys, "hilbert", "--input", tmp_path / "absent.json")
    assert rc == 2
    assert "cannot read" in err


def test_input_must_be_object(capsys, tmp_path):
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    rc, _, err = run_cli(capsys, "hilbert", "--input", arr)
    assert rc == 2
    assert "JSON object" in err


def test_missing_required_key(capsys, tmp_path):
    part = tmp_path / "part.json"
    part.write_text(json.dumps({"blocks": [], "ideal": []}))
    rc, _, err = run_cli(capsys, "hilbert", "--input", part)
    assert rc == 2
    assert "missing key 'characteristic'" in err


def test_block_must_be_object(capsys, tmp_path):
    doc = {"characteristic": 32003, "blocks": ["x0"], "ideal": []}
    path = tmp_path / "blocks.json"
    path.write_text(json.dumps(doc))
    rc, _, err = run_cli(capsys, "hilbert", "--input", path)
    assert rc == 2
    assert "block must be an object" in err


def test_mersenne_characteristic_runs(capsys, tmp_path):
    doc = {
        "characteristic": 2**61 - 1,
        "blocks": [{"vars": ["x0", "x1"]}],
        "ideal": ["x0^2 - 3*x1^2"],
    }
    path = tmp_path / "mersenne.json"
    path.write_text(json.dumps(doc))
    rc, out, _ = run_cli(capsys, "hilbert", "--input", path)
    assert rc == 0
    result = report_of(out)["result"]
    assert result["dimension"] == 1
    assert result["series"]["numerator"] == [["1", [0]], ["-1", [2]]]


@pytest.mark.parametrize(
    "ideal",
    [
        # the parser rejects the exponent
        ["x0^2147483648"],
        # the product x0^2147483647 * x0 passes the cap
        ["x0^2147483647*x0"],
        # the S-polynomial of the two is -x0*x1^2147483648
        ["x0^2147483647*x1 - x1^2147483647*x0", "x0^2147483646*x1^2"],
    ],
    ids=["parse", "product", "remainder"],
)
def test_exponent_overflow_reports_math_error(capsys, tmp_path, ideal):
    doc = {"characteristic": 32003, "blocks": [{"vars": ["x0", "x1"]}], "ideal": ideal}
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    rc, out, err = run_cli(capsys, "hilbert", "--input", path)
    assert rc == 1
    assert err == ""
    rep = report_of(out)
    assert rep["result"] is None
    assert rep["error"]["type"] == "ExponentOverflow"


def test_bad_shift_type(capsys, tmp_path):
    doc = {
        "characteristic": 32003,
        "blocks": [{"vars": ["x0", "x1"]}],
        "ideal": ["x0"],
        "shift": "nope",
    }
    path = tmp_path / "shift.json"
    path.write_text(json.dumps(doc))
    rc, _, err = run_cli(capsys, "hilbert", "--input", path)
    assert rc == 2
    assert "shift" in err


def test_unparseable_generator(capsys, tmp_path):
    doc = {
        "characteristic": 32003,
        "blocks": [{"vars": ["x0", "x1"]}],
        "ideal": ["x0 $"],
    }
    path = tmp_path / "expr.json"
    path.write_text(json.dumps(doc))
    rc, out, err = run_cli(capsys, "hilbert", "--input", path)
    assert rc == 2
    assert out == ""
    assert "input parse error" in err


def test_multidegree_requires_type(capsys, monkeypatch):
    monkeypatch.chdir(TESTS_DIR)
    rc, _, err = run_cli(
        capsys, "multidegree", "--input", f"{INPUTS}/diag.json"
    )
    assert rc == 2
    assert "requires --type" in err


def test_slice_requires_type(capsys, monkeypatch):
    monkeypatch.chdir(TESTS_DIR)
    rc, _, err = run_cli(capsys, "slice", "--input", f"{INPUTS}/diag.json")
    assert rc == 2
    assert "requires --type" in err


def test_type_must_be_integer_list(capsys, monkeypatch):
    monkeypatch.chdir(TESTS_DIR)
    rc, _, err = run_cli(
        capsys,
        "multidegree",
        "--input",
        f"{INPUTS}/diag.json",
        "--type",
        "a,b",
    )
    assert rc == 2
    assert "comma-separated integer list" in err


def test_formula_needs_exactly_one_kind(capsys):
    rc, _, err = run_cli(capsys, "formula", "--ht2", "--ht3", "--d", "2")
    assert rc == 2
    assert "exactly one" in err
    rc, _, err = run_cli(capsys, "formula", "--d", "2")
    assert rc == 2
    assert "exactly one" in err


def test_formula_flag_requirements(capsys):
    rc, _, err = run_cli(capsys, "formula", "--ht2", "--mu", "1,1")
    assert rc == 2
    assert "requires --d" in err
    rc, _, err = run_cli(capsys, "formula", "--ht2", "--d", "2")
    assert rc == 2
    assert "requires --mu" in err
    rc, _, err = run_cli(capsys, "formula", "--ht3", "--d", "3", "--n", "4")
    assert rc == 2
    assert "requires --n, --D and --delta" in err


def test_projdeg_unknown_method(capsys, monkeypatch):
    monkeypatch.chdir(TESTS_DIR)
    rc, _, err = run_cli(
        capsys,
        "projdeg",
        "--input",
        f"{INPUTS}/cremona.json",
        "--method",
        "guess",
    )
    assert rc == 2
    assert "unknown method" in err


def test_projdeg_formula_needs_matrix(capsys, monkeypatch):
    monkeypatch.chdir(TESTS_DIR)
    rc, _, err = run_cli(
        capsys,
        "projdeg",
        "--input",
        f"{INPUTS}/cremona_map.json",
        "--method",
        "formula",
    )
    assert rc == 2
    assert "requires a matrix" in err


def test_check_g_needs_matrix(capsys, monkeypatch):
    monkeypatch.chdir(TESTS_DIR)
    rc, _, err = run_cli(
        capsys, "check-g", "--input", f"{INPUTS}/cremona_map.json"
    )
    assert rc == 2
    assert "requires a matrix" in err


def test_missing_input_flag_is_usage_error(capsys):
    rc, _, _ = run_cli(capsys, "hilbert")
    assert rc == 2


def test_unknown_subcommand_is_usage_error(capsys):
    rc, _, _ = run_cli(capsys, "frobnicate")
    assert rc == 2


# ---------------------------------------------------------------------------
# Defaults and the installed entry point


def test_satfiber_default_q_max(capsys, monkeypatch):
    monkeypatch.chdir(TESTS_DIR)
    rc, out, _ = run_cli(
        capsys, "satfiber", "--input", f"{INPUTS}/cremona_map.json"
    )
    assert rc == 0
    rep = report_of(out)
    assert rep["result"]["q_max"] == 4
    assert rep["result"]["dims"] == [1, 3, 6, 10, 15]


def test_check_g_default_s(capsys, monkeypatch):
    monkeypatch.chdir(TESTS_DIR)
    rc, out, _ = run_cli(
        capsys, "check-g", "--input", f"{INPUTS}/cremona.json"
    )
    assert rc == 0
    assert report_of(out)["result"]["s"] == 3


@pytest.mark.parametrize("s", [5, 10])
def test_check_g_passes_unit_fitting_ideals(capsys, monkeypatch, s):
    """Fitt_i of the Cremona presentation is the unit ideal for i >= 3; its
    zero set is empty, so G_s holds however large s is."""
    monkeypatch.chdir(TESTS_DIR)
    rc, out, _ = run_cli(
        capsys, "check-g", "--input", f"{INPUTS}/cremona.json", "--s", s
    )
    assert rc == 0
    assert report_of(out)["result"] == {"s": s, "g_condition": True}


def test_projdeg_slicing_method(capsys, monkeypatch):
    monkeypatch.chdir(TESTS_DIR)
    rc, out, _ = run_cli(
        capsys,
        "projdeg",
        "--input",
        f"{INPUTS}/cremona.json",
        "--method",
        "slicing",
        "--trials",
        "6",
        "--seed",
        "3",
    )
    assert rc == 0
    rep = report_of(out)
    assert rep["result"]["degrees_slicing"] == [1, 2, 1]
    names = [c["name"] for c in rep["checks"]]
    assert "slicing_matches_elimination" in names
    assert all(c["passed"] for c in rep["checks"])


def test_installed_console_script():
    exe = shutil.which("mm")
    assert exe is not None, "console script mm is not on PATH"
    proc = subprocess.run(
        [exe, "formula", "--ht2", "--d", "2", "--mu", "1,1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rep["result"]["degrees"] == [1, 2, 1]
