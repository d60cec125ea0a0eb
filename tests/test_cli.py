import csv
import hashlib
import io
import json
import random
import sys
from fractions import Fraction

import pytest

from oracles import (
    at_most_census_oracle,
    census_mu_oracle,
    integral_double_sum_oracle,
    mu_oracle,
)

from qwalk import cli as cli_module
from qwalk import decoherence as decoherence_module
from qwalk import errors as errors_module
from qwalk.cli import _fraction_doc, main
from qwalk.errors import BUDGET, ResourceLimitError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    return json.loads(out)


def csv_rows(text):
    body = "\n".join(line for line in text.splitlines() if not line.startswith("#"))
    return list(csv.DictReader(io.StringIO(body)))


# -- envelope and determinism -----------------------------------------------------


def test_json_envelope_shape(capsys):
    doc = run_json(capsys, "measure", "--n", "2", "--event", "0,2")
    assert doc["command"] == "measure"
    assert doc["params"] == {"n": 2, "event": [0, 2], "strategy": "rank2"}
    assert doc["result"]["mu"]["num"] == 0
    assert doc["result"]["mu"]["exact"] == "0/4"
    assert doc["result"]["mu"]["decimal"] == 0.0


def test_byte_identical_reruns(capsys):
    invocations = [
        ("measure", "--n", "3", "--event", "1,2,5"),
        ("matrix", "--n", "2", "--format", "csv"),
        ("preclusion", "--n", "3", "--format", "json"),
        ("limit", "--event", "at-most-ones:1", "--n-max", "16", "--format", "csv"),
        ("example8", "--i-max", "4", "--format", "json"),
        ("variation", "--n-max", "6", "--format", "csv"),
        ("interference", "--n", "3", "--format", "csv"),
        ("quadratic", "--builtin", "example13", "--check-measure"),
        ("integral", "--n", "3", "--variable", "changes"),
        ("eigen", "--n", "3"),
    ]
    for argv in invocations:
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second, f"non-deterministic output for {argv}"


def test_metadata_goes_to_stderr(capsys):
    code, out, err = run_cli(capsys, "measure", "--n", "2", "--event", "0")
    assert code == 0
    assert "elapsed" in err
    assert "elapsed" not in out


# -- individual subcommands ----------------------------------------------------------


def test_matrix_n1_published(capsys):
    doc = run_json(capsys, "matrix", "--n", "1")
    assert doc["result"]["log2_den"] == 1
    assert doc["result"]["entries"] == [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]


def test_matrix_csv_round_trip(capsys):
    code, out, _ = run_cli(capsys, "matrix", "--n", "3", "--format", "csv")
    assert code == 0
    assert "# denominator: 2**3" in out
    rows = csv_rows(out)
    assert len(rows) == 64
    for row in rows:
        j, k = int(row["j"]), int(row["k"])
        want = mu_oracle(3, [j, k]) - mu_oracle(3, [j]) - mu_oracle(3, [k])
        # off-diagonal entries are half the interference term; recompute sign
        sign = int(row["re"])
        assert int(row["im"]) == 0
        if j == k:
            assert sign == 1
        else:
            assert Fraction(sign, 8) == want / 2


def test_measure_strategies_agree(capsys):
    values = set()
    for strategy in ("dense", "pairwise", "rank2"):
        doc = run_json(
            capsys, "measure", "--n", "4", "--event", "0,2,4,10", "--strategy", strategy
        )
        values.add((doc["result"]["mu"]["num"], doc["result"]["mu"]["log2_den"]))
    assert values == {(0, 0)}


def test_interference_table(capsys):
    doc = run_json(capsys, "interference", "--n", "2")
    table = {(row["i"], row["j"]): (row["num"], row["class"]) for row in doc["result"]}
    assert table[(0, 2)] == (-1, "destructive")
    assert table[(1, 3)] == (1, "constructive")
    assert all(
        entry == (0, "none")
        for pair, entry in table.items()
        if pair not in ((0, 2), (1, 3))
    )


def test_preclusion_table(capsys):
    doc = run_json(capsys, "preclusion", "--n", "3")
    events = [tuple(e["indices"]) for e in doc["result"]]
    assert events[:6] == [(0, 2), (0, 4), (0, 6), (1, 5), (3, 5), (5, 7)]
    assert len(events) == 15
    code, out, _ = run_cli(capsys, "preclusion", "--n", "3", "--format", "csv")
    rows = csv_rows(out)
    assert [tuple(map(int, r["indices"].split())) for r in rows] == events


# sha256 of the stdout as recorded before the subset searches were replaced
# by direct generation; a listing must keep every byte
PRECLUSION_CSV_SHA256 = {
    ("--n", "4"): "ae9ee70dbd98a5d6205753bab9083f9ed3d414754e44337c5cc08be778553653",
    ("--n", "6", "--max-card", "4"): (
        "4544d01a5574bb98a37e7219345bff7ed8460e8e8dd7eac0d3d6397665bd0019"
    ),
}


@pytest.mark.parametrize("argv", list(PRECLUSION_CSV_SHA256))
def test_preclusion_csv_is_byte_identical(capsys, argv):
    code, out, _ = run_cli(capsys, "preclusion", *argv, "--format", "csv")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PRECLUSION_CSV_SHA256[argv]


def test_preclusion_past_the_bound_prints_nothing(capsys):
    code, out, err = run_cli(capsys, "preclusion", "--n", "5")
    assert (code, out) == (3, "") and "resource bound" in err


def test_limit_csv_round_trip(capsys):
    from qwalk.cylinder import complement_of_constant_closed_form

    code, out, _ = run_cli(
        capsys, "limit", "--event", "complement-constant", "--n-max", "12", "--format", "csv"
    )
    assert code == 0
    rows = csv_rows(out)
    assert len(rows) == 12
    for row in rows:
        n = int(row["n"])
        parsed = Fraction(int(row["num"]), 1 << int(row["log2_den"]))
        if n <= 8:
            members = [j for j in range(1 << n) if j != 0]
            assert parsed == mu_oracle(n, members)
        assert parsed == complement_of_constant_closed_form(n).as_fraction()


def test_limit_at_most_three_up_to_the_combination_cap(capsys):
    code, out, _ = run_cli(
        capsys, "limit", "--event", "at-most-ones:3", "--n-max", "181", "--format", "csv"
    )
    assert code == 0
    rows = csv_rows(out)
    assert [int(row["n"]) for row in rows] == list(range(1, 182))
    for row in rows:
        n = int(row["n"])
        parsed = Fraction(int(row["num"]), 1 << int(row["log2_den"]))
        assert parsed == census_mu_oracle(at_most_census_oracle(n, 3), n)
    code, out, err = run_cli(capsys, "limit", "--event", "at-most-ones:3", "--n-max", "182")
    assert code == 3 and "resource bound" in err and out == ""


def test_limit_at_most_far_past_the_horizon(capsys):
    # a counter past n_max is never read, so K = 10**12 is the full space
    doc = run_json(capsys, "limit", "--event", "at-most-ones:1000000000000", "--n-max", "8")
    assert [row["num"] for row in doc["result"]["values"]] == [1] * 8
    code, out, err = run_cli(
        capsys, "limit", "--event", "at-most-ones:1000000000000", "--n-max", "30"
    )
    assert code == 3 and "level 20 exceeds" in err and out == ""


def test_limit_verdict_fields(capsys):
    doc = run_json(
        capsys,
        "limit", "--event", "complement-constant", "--n-max", "48", "--tol", "1e-6",
    )
    assert doc["result"]["verdict"] == "converged"
    assert abs(doc["result"]["estimate"] - 1.0) <= 1e-6
    assert doc["result"]["provenance"] == "numerical-verdict"


def test_limit_return_to_zero(capsys):
    doc = run_json(
        capsys, "limit", "--event", "return-to-zero", "--n-max", "48", "--tol", "1e-6"
    )
    assert doc["result"]["verdict"] == "converged"
    assert abs(doc["result"]["estimate"] - 1.0) <= 1e-6


def test_variation_series(capsys):
    doc = run_json(capsys, "variation", "--n-max", "10")
    assert [row["bound"] for row in doc["result"]] == [1 << n for n in range(1, 11)]


def test_example8_provenance(capsys):
    doc = run_json(capsys, "example8", "--i-max", "6")
    terms = doc["result"]["terms"]
    assert [t["provenance"] for t in terms] == ["direct"] * 4 + ["extrapolated"] * 2
    assert terms[0]["num"] == 9 and terms[0]["den"] == 8
    assert doc["result"]["verdict"] == "diverged"


def test_quadratic_builtins(capsys):
    doc = run_json(capsys, "quadratic", "--builtin", "example12", "--check-measure")
    assert doc["result"]["quadratic_algebra"] is True
    assert doc["result"]["q_measure"] is True
    doc = run_json(capsys, "quadratic", "--builtin", "example13", "--check-measure")
    assert doc["result"]["quadratic_algebra"] is True
    assert doc["result"]["q_measure"] is True


def test_quadratic_custom_file(tmp_path, capsys):
    path = tmp_path / "system.txt"
    path.write_text("4\n\n0,1\n2,3\n0,1,2,3\n")
    doc = run_json(capsys, "quadratic", "--file", str(path))
    assert doc["result"]["quadratic_algebra"] is True
    broken = tmp_path / "broken.txt"
    broken.write_text("4\n\n0\n1\n2\n0,1\n0,2\n1,2\n0,1,2,3\n")
    doc = run_json(capsys, "quadratic", "--file", str(broken))
    assert doc["result"]["quadratic_algebra"] is False
    assert doc["result"]["counterexample"] == [[0], [1], [2]]


def test_integral_custom_file(tmp_path, capsys):
    path = tmp_path / "values.txt"
    path.write_text("0\n1/2\n-2\n3\n")
    docs = [
        run_json(capsys, "integral", "--n", "2", "--variable", str(path), "--strategy", s)
        for s in ("def", "trace", "eigen")
    ]
    results = {(d["result"]["integral"]["num"], d["result"]["integral"]["den"]) for d in docs}
    assert len(results) == 1


def test_integral_beyond_float_range_is_exact(tmp_path, capsys):
    # Fraction reads 1e400 exactly; only the decimal field cannot hold it
    path = tmp_path / "values.txt"
    path.write_text("1e400 2 3 4\n")
    want = integral_double_sum_oracle(2, [Fraction(10**400), 2, 3, 4])
    for strategy in ("def", "trace", "eigen"):
        code, out, err = run_cli(capsys, "integral", "--n", "2", "--variable", str(path), "--strategy", strategy)
        assert code == 0, err
        doc = json.loads(out)["result"]["integral"]
        assert doc == {"num": want.numerator, "den": want.denominator, "decimal": None}


def test_integral_beyond_the_digit_limit_is_a_resource_bound(tmp_path, capsys):
    # 1e5000 integrates exactly, but json cannot write a num of that length
    path = tmp_path / "values.txt"
    path.write_text("1e5000 2 3 4\n")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, err = run_cli(capsys, "integral", "--n", "2", "--variable", str(path))
        # the bound is the interpreter's: 4300 digits are written, 4301 refused
        widest = _fraction_doc(Fraction(-(10**4300 - 1), 10**4300 - 1 - 2))
        assert len(json.dumps(widest)) > 8600
        for too_wide in (Fraction(10**4300), Fraction(1, 10**4300), Fraction(-(10**4300), 3)):
            with pytest.raises(ResourceLimitError):
                _fraction_doc(too_wide)
    finally:
        sys.set_int_max_str_digits(saved)
    assert code == 3 and out == ""
    assert "resource bound" in err and "4300" in err


def test_eigen_output(capsys):
    doc = run_json(capsys, "eigen", "--n", "2")
    assert doc["result"]["verified_exact"] is True
    assert doc["result"]["even_vector"] == [[1, 0], [0, 0], [-1, 0], [0, 0]]
    assert doc["result"]["odd_vector"][1] == [0, 1]


def test_eigen_verified_up_to_the_check_cap(capsys):
    assert run_json(capsys, "eigen", "--n", "10")["result"]["verified_exact"] is True
    doc = run_json(capsys, "eigen", "--n", "12", "--force")
    assert doc["result"]["verified_exact"] is True
    assert len(doc["result"]["even_vector"]) == 1 << 12


@pytest.mark.parametrize("variable", ["ones", "changes"])
def test_definition_route_past_n_12(capsys, variable):
    # the count variables hold n + 1 distinct values, so DEFINITION is
    # charged (n + 1)**2 pairs at most, not 4**n
    argv = ("integral", "--n", "16", "--variable", variable, "--strategy")
    code, by_def, _ = run_cli(capsys, *argv, "def")
    assert code == 0
    by_trace = run_cli(capsys, *argv, "trace")[1]
    assert by_def == by_trace.replace('"strategy": "trace"', '"strategy": "def"')
    assert by_def != by_trace


def test_definition_route_refuses_distinct_values(tmp_path, capsys):
    # 4096 distinct positive values on each site at n = 13: 2 * 4096**2 units
    path = tmp_path / "values.txt"
    path.write_text("\n".join(map(str, random.Random(1313).sample(range(1, 1 << 30), 1 << 13))))
    argv = ("integral", "--n", "13", "--variable", str(path), "--strategy", "def")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert f"costs {2 * 4096**2} units, over the budget of {BUDGET}" in err


class Accepted(BaseException):
    """Raised in place of the work once a document's charge has passed."""


# the largest horizon accepted before, the first one refused now, its units
# and the budget: by default the printed document's entries or rows; under
# --force the dense grid's sign bytes, 16 per interference row held, and the
# eigenvectors' 16 per path
DOCUMENT_CHARGES = [
    (("matrix", "--n", "8"), ("matrix", "--n", "9"), 1 << 18, BUDGET >> 8),
    (("matrix", "--n", "12", "--force"), ("matrix", "--n", "13", "--force"), 1 << 26, BUDGET),
    (("interference", "--n", "8"), ("interference", "--n", "9"), 512 * 511 // 2, BUDGET >> 8),
    (("interference", "--n", "10", "--force"), ("interference", "--n", "11", "--force"),
     16 * (2048 * 2047 // 2), BUDGET),
    (("eigen", "--n", "10"), ("eigen", "--n", "16"), 2 << 16, BUDGET >> 8),
    (("eigen", "--n", "12", "--force"), ("eigen", "--n", "21", "--force"), 16 << 21, BUDGET),
]


@pytest.mark.parametrize("accepted, refused, units, budget", DOCUMENT_CHARGES)
def test_document_charges(capsys, monkeypatch, accepted, refused, units, budget):
    code, out, err = run_cli(capsys, *refused)
    assert (code, out) == (3, "")
    assert f"costs {units} units, over the budget of {budget}" in err

    charge = errors_module.charge

    def charged(units, what, budget=BUDGET):
        charge(units, what, budget)
        raise Accepted(units)

    for module in (cli_module, decoherence_module):
        monkeypatch.setattr(module, "charge", charged)
    with pytest.raises(Accepted):
        main(list(accepted))
    capsys.readouterr()


# -- error paths ------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ("matrix", "--n", "100"),
        ("measure", "--n", "64", "--event", "0"),
        ("interference", "--n", "0", "--force"),
        ("eigen", "--n", "64"),
        ("integral", "--n", "64", "--variable", "ones"),
    ],
)
def test_usage_error_before_any_charge(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "") and "need 1 <= n <= 63" in err


def test_usage_error_bad_event(capsys):
    code, _, err = run_cli(capsys, "measure", "--n", "2", "--event", "0,x")
    assert code == 2 and "usage error" in err


def test_usage_error_unknown_limit_event(capsys):
    code, _, err = run_cli(capsys, "limit", "--event", "nope", "--n-max", "10")
    assert code == 2 and "unknown limit event" in err


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1e-9"])
def test_usage_error_limit_tol(capsys, tol):
    # inf would read any table as converged, and nan and inf are not JSON
    argv = ("limit", "--event", "return-to-zero", "--n-max", "3", "--window", "2")
    code, out, err = run_cli(capsys, *argv, f"--tol={tol}")
    assert (code, out) == (2, "") and "--tol" in err


def test_usage_error_quadratic_flags(capsys):
    code, _, err = run_cli(capsys, "quadratic")
    assert code == 2
    code, _, err = run_cli(
        capsys, "quadratic", "--builtin", "example12", "--file", "x"
    )
    assert code == 2


def test_usage_error_unknown_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("measure", "--n", "2", "--event", "0,4"),
        ("measure", "--n", "2", "--event", "-1"),
        ("measure", "--n", "2", "--event", "", "--strategy", "pairwise"),
        ("matrix", "--n", "0"),
        ("eigen", "--n", "-3"),
        ("interference", "--n", "0"),
        ("preclusion", "--n", "64"),
        ("preclusion", "--n", "3", "--max-card", "-1"),
        ("limit", "--event", "at-most-ones:1", "--n-max", "10", "--window", "1"),
        ("limit", "--event", "at-most-ones:1", "--n-max", "4", "--window", "5"),
        ("integral", "--n", "0", "--variable", "ones"),
    ],
)
def test_bad_input_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "") and "usage error" in err


@pytest.mark.parametrize(
    "command, text",
    [
        ("integral", "0\n1/0\n2\n3\n"),
        ("integral", "0\nx\n2\n3\n"),
        ("quadratic", "four\n0,1\n"),
        ("quadratic", "4\n0,9\n"),
    ],
)
def test_bad_input_file_is_a_usage_error(tmp_path, capsys, command, text):
    path = tmp_path / "input.txt"
    path.write_text(text)
    if command == "integral":
        argv = ("integral", "--n", "2", "--variable", str(path))
    else:
        argv = ("quadratic", "--file", str(path))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "") and "usage error" in err


def test_library_value_error_is_an_internal_error(capsys, monkeypatch):
    # a ValueError from inside the library on valid input is a bug, not a
    # usage error: it exits 4 with its traceback, never 2
    import qwalk.cli as cli_module

    def broken(*args, **kwargs):
        raise ValueError("deliberate library fault")

    monkeypatch.setattr(cli_module, "mu", broken)
    code, out, err = run_cli(capsys, "measure", "--n", "2", "--event", "0,2")
    assert code == cli_module.INTERNAL_ERROR != 2
    assert out == "" and "usage error" not in err
    assert "internal error" in err and "deliberate library fault" in err


def test_resource_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "preclusion", "--n", "7")
    assert code == 3 and "resource bound" in err
    code, _, err = run_cli(capsys, "matrix", "--n", "11")
    assert code == 3
    code, _, err = run_cli(capsys, "matrix", "--n", "13", "--force")
    assert code == 3  # beyond even the hard cap


def test_force_lifts_soft_cap(capsys):
    code, out, err = run_cli(capsys, "matrix", "--n", "9", "--format", "json", "--force")
    assert code == 0
    assert "estimated cost" in err
    doc = json.loads(out)
    assert len(doc["result"]["entries"]) == 512


def test_verify_smoke_subset(capsys, monkeypatch):
    # run the real verify wiring against a trimmed check list to stay fast
    import qwalk.verify as verify_module

    trimmed = [c for c in verify_module.CHECKS if c[0] in ("matrix-n1", "measure-table-n2")]
    monkeypatch.setattr(verify_module, "CHECKS", trimmed)
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    assert "PASS matrix-n1" in out and "2/2 checks passed" in out


def test_verify_timings_go_to_stderr(capsys, monkeypatch):
    import qwalk.verify as verify_module

    names = ("matrix-n1", "measure-table-n2")
    trimmed = [c for c in verify_module.CHECKS if c[0] in names]
    monkeypatch.setattr(verify_module, "CHECKS", trimmed)
    code, out, err = run_cli(capsys, "verify")
    assert code == 0
    assert out == "PASS matrix-n1\nPASS measure-table-n2\n2/2 checks passed\n"
    assert run_cli(capsys, "verify")[1] == out
    timing_lines = [line for line in err.splitlines() if line.startswith("time ")]
    assert [line.split(":")[0] for line in timing_lines] == [f"time {n}" for n in names]
    for line in timing_lines:
        seconds = line.rsplit(" ", 1)[1]
        assert seconds.endswith("s") and float(seconds[:-1]) >= 0


def test_verify_reports_failures(capsys, monkeypatch):
    import qwalk.verify as verify_module

    def broken():
        raise verify_module.CheckFailure("deliberately broken")

    monkeypatch.setattr(verify_module, "CHECKS", [("broken-check", broken)])
    code, out, _ = run_cli(capsys, "verify")
    assert code == 1
    assert "FAIL broken-check: deliberately broken" in out
