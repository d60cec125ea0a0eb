import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
import resource
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

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
from qwalk.decoherence import DecoherenceState
from qwalk.errors import BUDGET, ResourceLimitError
from qwalk.paths import PathSpace
from qwalk.qintegral import RandomVariable, integral


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


def test_measure_empty_event_every_strategy(capsys):
    # the pair expansion has no pairs and gives 0, as the other two do
    docs = {
        strategy: run_json(capsys, "measure", "--n", "2", "--event", "", "--strategy", strategy)
        for strategy in ("dense", "pairwise", "rank2")
    }
    for strategy, doc in docs.items():
        assert doc["params"]["strategy"] == strategy
        assert doc["result"] == docs["rank2"]["result"]
    assert docs["rank2"]["result"]["mu"]["num"] == 0


def test_measure_reference_strategies_are_charged_per_member_pair(capsys):
    # 4096 members are 4096**2 pairs, the whole budget; one more is refused
    event = ",".join(map(str, range(4097)))
    for strategy in ("dense", "pairwise"):
        code, out, err = run_cli(
            capsys, "measure", "--n", "13", "--event", event, "--strategy", strategy
        )
        assert code == 3 and out == "" and f"costs {4097**2} units" in err


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


def test_integral_exponents_are_charged_before_they_are_built(tmp_path, capsys):
    # Fraction builds 10**999999999 before any digit limit could refuse it:
    # 111111110 words beyond the first, charged squared
    path = tmp_path / "values.txt"
    path.write_text("1e999999999 2 3 4\n")
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "integral", "--n", "2", "--variable", str(path))
    assert time.perf_counter() - started < 1
    assert (code, out) == (3, "")
    assert f"costs {111_111_110 ** 2} units, over the budget of {BUDGET}" in err

    # a bad token beside it, or a bad head or exponent of its own, is a
    # usage error before it is a cost
    for text in ("1e999999999 x 3 4", "1e999999999 1ex 3 4", "xe999999999 2 3 4", "1/2e999999999 2 3 4"):
        path.write_text(text)
        code, out, err = run_cli(capsys, "integral", "--n", "2", "--variable", str(path))
        assert (code, out) == (2, "") and "bad value" in err, text

    # the values of a file without large exponents are read as before
    path.write_text("0.25\n-1/2\n2.5e-1\n3\n")
    want = integral_double_sum_oracle(2, [Fraction(1, 4), Fraction(-1, 2), Fraction(1, 4), 3])
    doc = run_json(capsys, "integral", "--n", "2", "--variable", str(path))["result"]["integral"]
    assert (doc["num"], doc["den"]) == (want.numerator, want.denominator)


def charged_exponents(monkeypatch, argv):
    """The units of the exponent charge that `argv` passes, or its refusal."""
    charge = errors_module.charge

    def charged(units, what):
        charge(units, what)
        raise Accepted(units)

    monkeypatch.setattr(cli_module, "charge", charged)
    with pytest.raises((Accepted, ResourceLimitError)) as stop:
        cli_module.cmd_integral(cli_module.build_parser().parse_args(argv))
    return stop.value


@pytest.mark.parametrize(
    "text, units",
    [
        # 10**36865 is 4096 words beyond the first: 4096**2 is the budget
        ("1e36865 2 3 4", BUDGET),
        ("1e36874 2 3 4", 4097**2),
        # a negative exponent also puts each of the 4 values over 10**36847,
        # 4094 words more
        ("1e-36847 1e19 3 4", 4094**2 + 2**2 + 4 * 4094),
        ("1e-36847 1e28 3 4", 4094**2 + 3**2 + 4 * 4094),
        ("1e36847 1e28 3 4", 4094**2 + 3**2),
        ("1E+3_6865 -2e-1 1e0 3", BUDGET),
    ],
)
def test_integral_exponent_charge_boundaries(tmp_path, monkeypatch, text, units):
    path = tmp_path / "values.txt"
    path.write_text(text)
    stop = charged_exponents(monkeypatch, ["integral", "--n", "2", "--variable", str(path)])
    if units <= BUDGET:
        assert stop.args == (units,)
    else:
        assert f"costs {units} units, over the budget of {BUDGET}" in str(stop)


@pytest.mark.parametrize(
    "token, units", [("1e-6", 0), ("1e-9", 0), ("2.5e-1", 0), ("1e-30", (3**2 + 3) << 20)]
)
def test_ordinary_exponents_are_accepted_at_n20(tmp_path, monkeypatch, token, units):
    # 2**20 values, as many as a variable may hold: a power of ten that fits
    # in one word costs nothing, and 10**30 costs 3 words beyond the first,
    # squared per token, and 3 more in each value over the denominator
    path = tmp_path / "values.txt"
    path.write_text(f"{token}\n" * (1 << 20))
    stop = charged_exponents(monkeypatch, ["integral", "--n", "20", "--variable", str(path)])
    assert stop.args == (units,)


@pytest.mark.parametrize("token", ["1e-9", "1e-30"])
def test_integral_of_a_constant_file(tmp_path, capsys, token):
    # the whole space has measure 1, so a constant integrates to itself
    path = tmp_path / "values.txt"
    path.write_text(f"{token}\n" * (1 << 16))
    doc = run_json(capsys, "integral", "--n", "16", "--variable", str(path))["result"]["integral"]
    want = Fraction(token)
    assert (doc["num"], doc["den"]) == (want.numerator, want.denominator)


def test_variable_file_is_charged_before_it_is_read(tmp_path, capsys):
    # 2**21 values cost 16 units each whatever they hold, so the horizon
    # alone refuses the file, before its 4 MiB are read; a file that
    # cannot be opened is still a usage error first
    path = tmp_path / "values.txt"
    path.write_text("1\n" * (1 << 21))
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "integral", "--n", "21", "--variable", str(path))
    assert time.perf_counter() - started < 1
    assert (code, out) == (3, "")
    assert f"random variable at n=21 costs {16 << 21} units, over the budget of {BUDGET}" in err
    code, out, err = run_cli(capsys, "integral", "--n", "21", "--variable", str(tmp_path / "missing.txt"))
    assert (code, out) == (2, "") and "cannot read" in err


def test_a_file_that_is_not_utf8_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "values.txt"
    path.write_bytes(b"\xff\xfe1\n2\n")
    for argv in (("integral", "--n", "1", "--variable", str(path)), ("quadratic", "--file", str(path))):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "") and f"cannot read {str(path)!r}" in err
        assert "Traceback" not in err
    # the horizon is still charged before a byte is read
    code, out, err = run_cli(capsys, "integral", "--n", "21", "--variable", str(path))
    assert (code, out) == (3, "") and "random variable at n=21" in err


def first_primes(count: int) -> list[int]:
    sieve = bytearray([1]) * 40_000  # the 4096th prime is 38873
    sieve[:2] = b"\0\0"
    for p in range(2, 200):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, len(sieve), p)))
    return [p for p, alive in enumerate(sieve) if alive][:count]


def test_many_distinct_denominators_exit_without_a_gcd_pass(tmp_path, capsys):
    # 1/p for the first 4096 primes: over their lcm the value is past the
    # digit limit, found in well under the seconds a gcd pass over the
    # 4096 numerators of some 60 000 bits took before it
    primes = first_primes(4096)
    path = tmp_path / "primes.txt"
    path.write_text("".join(f"1/{p}\n" for p in primes))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "integral", "--n", "12", "--variable", str(path))
    assert (code, out) == (3, "") and "decimal digits" in err
    assert time.perf_counter() - start < 2.0
    # the first 1024 primes at n = 10 still integrate, to the reduced form's value
    values = [Fraction(1, p) for p in primes[:1024]]
    path.write_text("".join(f"1/{p}\n" for p in primes[:1024]))
    doc = run_json(capsys, "integral", "--n", "10", "--variable", str(path))["result"]["integral"]
    den = math.lcm(*primes[:1024])
    space = PathSpace(10)
    reduced = RandomVariable(space, tuple(den // p for p in primes[:1024]), den)
    assert reduced == RandomVariable.from_values(space, values)
    want = integral(DecoherenceState(space), reduced)
    assert (doc["num"], doc["den"]) == (want.numerator, want.denominator)


def test_eigen_output(capsys):
    doc = run_json(capsys, "eigen", "--n", "2")
    assert doc["result"]["verified_exact"] is True
    assert doc["result"]["even_vector"] == [[1, 0], [0, 0], [-1, 0], [0, 0]]
    assert doc["result"]["odd_vector"][1] == [0, 1]


def test_eigen_verified_up_to_the_check_cap(capsys):
    assert run_json(capsys, "eigen", "--n", "10")["result"]["verified_exact"] is True
    doc = run_json(capsys, "eigen", "--n", "12")
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


# the largest horizon accepted, the first one refused and its units: the
# work per matrix entry written, 16 per interference row written, and the
# eigenvectors' 16 per path
DOCUMENT_CHARGES = {
    "matrix": (("matrix", "--n", "12"), ("matrix", "--n", "13"), 1 << 26),
    "interference": (("interference", "--n", "10"), ("interference", "--n", "11"), 16 * (2048 * 2047 // 2)),
    "eigen": (("eigen", "--n", "20"), ("eigen", "--n", "21"), 16 << 21),
}


@pytest.mark.parametrize("accepted, refused, units", DOCUMENT_CHARGES.values(), ids=DOCUMENT_CHARGES)
def test_document_charges(capsys, monkeypatch, accepted, refused, units):
    code, out, err = run_cli(capsys, *refused)
    assert (code, out) == (3, "")
    assert f"costs {units} units, over the budget of {BUDGET}" in err

    charge = errors_module.charge

    def charged(units, what):
        charge(units, what)
        raise Accepted(units)

    for module in (cli_module, decoherence_module):
        monkeypatch.setattr(module, "charge", charged)
    with pytest.raises(Accepted):
        main(list(accepted))
    capsys.readouterr()


# -- the document writer ---------------------------------------------------------------

# every tabular command, with the empty tables of preclusion
TABLES = [
    ("matrix", "--n", "3"),
    ("interference", "--n", "3"),
    ("preclusion", "--n", "3"),
    ("preclusion", "--n", "1"),
    ("preclusion", "--n", "3", "--max-card", "1"),
    ("limit", "--event", "at-most-ones:1", "--n-max", "12"),
    ("variation", "--n-max", "6"),
    ("example8", "--i-max", "6"),
]


@pytest.mark.parametrize("argv", TABLES + [("eigen", "--n", "3")])
def test_json_documents_are_json_dumps(capsys, monkeypatch, argv):
    # a batch of 7 chunks splits rows, and eigen has two row lists
    monkeypatch.setattr(cli_module, "_BATCH", 7)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


def csv_cell(value):
    return " ".join(map(str, value)) if isinstance(value, list) else str(value)


def csv_notes(command, result):
    """The "#" lines a CSV document has before its command and params."""
    if command == "matrix":
        return [f"# denominator: 2**{result['log2_den']}"]
    if command == "limit":
        verdict = {key: value for key, value in result.items() if key != "values"}
        return [f"# verdict: {json.dumps(verdict, sort_keys=True)}"]
    if command == "example8":
        return [f"# verdict: {result['verdict']}"]
    return []


# each table's CSV columns, and its rows as the JSON document has them
CSV_TABLES = {
    "matrix": ("j,k,re,im", lambda result: [
        {"j": j, "k": k, "re": re, "im": im}
        for j, row in enumerate(result["entries"]) for k, (re, im) in enumerate(row)
    ]),
    "interference": ("i,j,num,class", lambda result: result),
    "preclusion": ("cardinality,indices", lambda result: result),
    "limit": ("n,num,log2_den,decimal", lambda result: result["values"]),
    "variation": ("n,bound", lambda result: result),
    "example8": ("i,num,den,decimal,provenance", lambda result: result["terms"]),
}


@pytest.mark.parametrize("argv", TABLES)
def test_csv_documents_match_json(capsys, monkeypatch, argv):
    monkeypatch.setattr(cli_module, "_BATCH", 7)
    doc = run_json(capsys, *argv)
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    command, params = argv[0], dict(doc["params"], format="csv")
    lines = out.splitlines()
    notes = csv_notes(command, doc["result"])
    columns, table = CSV_TABLES[command]
    assert lines[: len(notes) + 3] == notes + [
        f"# command: qwalk {command}",
        f"# params: {json.dumps(params, sort_keys=True)}",
        columns,
    ]
    rows = table(doc["result"])
    assert csv_rows(out) == [{c: csv_cell(row[c]) for c in columns.split(",")} for row in rows]
    assert len(lines) == len(notes) + 3 + len(rows)


def test_empty_tables(capsys):
    for argv in (("preclusion", "--n", "1"), ("preclusion", "--n", "3", "--max-card", "1")):
        assert run_json(capsys, *argv)["result"] == []
        assert run_cli(capsys, *argv, "--format", "csv")[1].endswith("\ncardinality,indices\n")


class CountingSink(io.TextIOBase):
    """A stdout that counts the characters written and keeps none of them."""

    def __init__(self):
        self.written = 0

    def write(self, text):
        self.written += len(text)
        return len(text)


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("argv", [("matrix", "--n", "8"), ("interference", "--n", "8")])
def test_documents_are_written_as_they_are_made(argv, fmt):
    # a writer that held the rows or the whole text peaked at 7 to 16 times
    # what it wrote; one batch at a time is a fixed amount below that
    sink = CountingSink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
            code = main([*argv, "--format", fmt])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and sink.written > 500_000
    assert peak < sink.written


def test_eigen_checks_before_it_holds_its_vectors():
    # the exact check builds each eigenvector again; run before the command
    # holds its own two, its copies are gone by the time those are built:
    # a warm run peaks at about 0.39 of what it writes, and at 0.6 with the
    # check run after the vectors are built
    for _ in range(2):  # the first run fills the caches of the horizon
        sink = CountingSink()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
                code = main(["eigen", "--n", "14"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0 and sink.written > 1_000_000
    assert peak < sink.written / 2


@pytest.mark.parametrize(
    "argv, lines", [(("matrix", "--n", "9"), 1), (("matrix", "--n", "2"), 0)]
)
def test_reader_closing_early_is_no_error(argv, lines):
    # as `qwalk matrix --n 9 | head -1`, or a reader gone before the
    # first byte: the writes after it has gone fail, and the command still
    # exits 0 with nothing on stderr but its own lines
    env = dict(os.environ, PYTHONPATH=str(Path(cli_module.__file__).resolve().parents[1]))
    env.pop("PYTHONUNBUFFERED", None)  # buffered, as stdout to a pipe is by default
    proc = subprocess.Popen(
        [sys.executable, "-m", "qwalk.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    for _ in range(lines):
        assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert "internal error" not in err and "Exception ignored" not in err
    assert "Traceback" not in err and "elapsed" in err


# -- error paths ------------------------------------------------------------------------


def under_one_gib():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("n, code", [(40, 3), (63, 3), (24, 0)])
def test_measure_charges_the_event_mask_before_it_is_built(n, code):
    # the last path's bit alone is 2**n bits, 128 GiB at n = 40: refused
    # before it is built, so a child held to 1 GiB of address space exits
    # 3 rather than failing on an allocation of its own
    env = dict(os.environ, PYTHONPATH=str(Path(cli_module.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "qwalk.cli", "measure", "--n", str(n), "--event", str((1 << n) - 1)],
        capture_output=True, text=True, env=env, preexec_fn=under_one_gib, timeout=120,
    )
    assert proc.returncode == code and "Traceback" not in proc.stderr
    if code:
        assert proc.stdout == "" and f"event mask at n={n} costs {1 << n} units" in proc.stderr
    else:
        assert json.loads(proc.stdout)["params"]["event"] == [(1 << n) - 1]


@pytest.mark.parametrize(
    "argv",
    [
        ("matrix", "--n", "100"),
        ("measure", "--n", "64", "--event", "0"),
        ("interference", "--n", "0"),
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
    with pytest.raises(SystemExit) as exc:  # argparse knows the builtins
        main(["quadratic", "--builtin", "example14"])
    assert exc.value.code == 2 and capsys.readouterr().out == ""


def test_usage_error_unknown_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("measure", "--n", "2", "--event", "0,4"),
        ("measure", "--n", "2", "--event", "-1"),
        ("matrix", "--n", "0"),
        ("eigen", "--n", "-3"),
        ("interference", "--n", "0"),
        ("preclusion", "--n", "64"),
        ("preclusion", "--n", "3", "--max-card", "-1"),
        ("limit", "--event", "at-most-ones:1", "--n-max", "10", "--window", "1"),
        ("limit", "--event", "at-most-ones:1", "--n-max", "4", "--window", "5"),
        ("integral", "--n", "0", "--variable", "ones"),
        ("variation", "--n-max", "0"),
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
    code, out, err = run_cli(capsys, "matrix", "--n", "13")
    assert (code, out) == (3, "") and "resource bound" in err


def test_no_document_bound_below_the_charges(capsys):
    # a document is bounded only by the charges on its work: 2**18 entries
    # pass, with no cost line on stderr
    code, out, err = run_cli(capsys, "matrix", "--n", "9", "--format", "json")
    assert code == 0 and "estimated cost" not in err
    assert len(json.loads(out)["result"]["entries"]) == 512


@pytest.mark.parametrize("command", ["matrix", "interference", "eigen"])
def test_force_is_a_usage_error(capsys, command):
    with pytest.raises(SystemExit) as exc:  # argparse knows no such flag
        main([command, "--n", "2", "--force"])
    assert exc.value.code == 2 and capsys.readouterr().out == ""


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
