"""The ``qwalk`` command line: every computation, machine-readable.

Output contract: stdout carries a deterministic document (JSON by default,
CSV where tabular) that echoes the command and parameters; run metadata such
as elapsed time (and each verify check's seconds) goes to stderr only, so
identical invocations are byte-identical.  Dyadic numbers serialize as {"num", "log2_den", "decimal"},
general rationals as {"num", "den", "decimal"}.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 resource
bound exceeded, 4 internal error.  User input is validated here, before
anything is charged or the library sees it, and raises UsageError; any
other exception from the library is a bug and exits 4 with its traceback
on stderr.  Resource bounds are the library's cost charges (errors.charge);
by default matrix, interference and eigen also charge one unit per entry or
row of the document they print against BUDGET >> 8.  --force lifts that
bound and leaves the library's charges, and interference's 16 units per row
it holds, to refuse.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
import traceback
from fractions import Fraction

from .cylinder import (
    ALL_ZEROS,
    AtMostKOnes,
    ComplementOfFinitePathSet,
    EventualPath,
    limit_mu_hat,
    repeated_block_measures,
    repeated_block_verdict,
    variation_lower_bound,
)
from .decoherence import DecoherenceState, Event
from .errors import BUDGET, ResourceLimitError, charge
from .exact import Dyadic
from .paths import MAX_STEPS, PathSpace
from .qintegral import IntegralStrategy, RandomVariable, integral
from .qmeasure import Strategy, enumerate_precluded, interference, mu
from .quadratic import (
    cardinality_squared_table,
    is_q_measure,
    is_quadratic_algebra,
    odd_count_system,
    parse_system_file,
    three_type_system,
)
from .verify import run_checks

USAGE_ERROR = 2
RESOURCE_ERROR = 3
INTERNAL_ERROR = 4


class UsageError(Exception):
    pass


def _charge_document(units: int, what: str, force: bool) -> None:
    """Charge a printed document one unit per entry or row against
    BUDGET >> 8.  Under --force only the cost goes to stderr: the charges
    on what the document is built from bound it."""
    if not force:
        charge(units, what, BUDGET >> 8)
    elif units > BUDGET >> 8:
        print(f"forcing {what}: estimated cost {units} units", file=sys.stderr)


def _dyadic_doc(value: Dyadic) -> dict:
    return {"num": value.num, "log2_den": value.log2_den, "decimal": float(value)}


def _fraction_doc(value: Fraction) -> dict:
    """num and den exact; decimal is null where the value is beyond float range.

    A num or den longer than the interpreter's integer-to-string limit
    (sys.get_int_max_str_digits(), 0 for none; absent before Python 3.10.7,
    which has no limit) cannot be written as a JSON number, so the document
    is refused as a resource bound before anything reaches stdout.  Not a
    charge: the bound is the interpreter's, not a cost.
    """
    value = Fraction(value)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and max(abs(value.numerator), value.denominator) >= 10**limit:
        raise ResourceLimitError(
            f"the exact value has more than {limit} decimal digits, the "
            "interpreter's integer-to-string limit (sys.get_int_max_str_digits)"
        )
    try:
        decimal = float(value)
    except OverflowError:
        decimal = None
    return {
        "num": value.numerator,
        "den": value.denominator,
        "decimal": decimal,
    }


def _emit_json(command: str, params: dict, result) -> None:
    doc = {"command": command, "params": params, "result": result}
    sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _emit_csv(command: str, params: dict, header: list[str], rows: list[list]) -> None:
    out = io.StringIO()
    out.write(f"# command: qwalk {command}\n")
    out.write(f"# params: {json.dumps(params, sort_keys=True)}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    sys.stdout.write(out.getvalue())


def _parse_horizon(n: int) -> PathSpace:
    if not 1 <= n <= MAX_STEPS:
        raise UsageError(f"need 1 <= n <= {MAX_STEPS}, got {n}")
    return PathSpace(n)


def _parse_event_indices(raw: str, n: int) -> list[int]:
    try:
        indices = sorted({int(tok) for tok in raw.split(",") if tok.strip() != ""})
    except ValueError as exc:
        raise UsageError(f"bad event list {raw!r}: {exc}") from None
    if indices and (indices[0] < 0 or indices[-1] >> n):
        raise UsageError(f"event list {raw!r} has paths outside 0..{(1 << n) - 1}")
    return indices


def _parse_values_file(path: str, space: PathSpace) -> list[Fraction]:
    try:
        tokens = open(path, "r", encoding="utf-8").read().split()
    except OSError as exc:
        raise UsageError(f"cannot read {path!r}: {exc}") from None
    if len(tokens) != space.size:
        raise UsageError(f"variable file must hold {space.size} values, got {len(tokens)}")
    try:
        return [Fraction(tok) for tok in tokens]
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad value in {path!r}: {exc}") from None


def _parse_system(path: str):
    try:
        text = open(path, "r", encoding="utf-8").read()
    except OSError as exc:
        raise UsageError(f"cannot read {path!r}: {exc}") from None
    try:
        return parse_system_file(text)
    except ValueError as exc:
        raise UsageError(f"bad system file {path!r}: {exc}") from None


def _parse_limit_event(raw: str):
    if raw == "return-to-zero":
        return ComplementOfFinitePathSet((EventualPath((1,), 1),))
    if raw == "complement-constant":
        return ComplementOfFinitePathSet((ALL_ZEROS,))
    if raw.startswith("at-most-ones:"):
        try:
            k = int(raw.split(":", 1)[1])
        except ValueError:
            raise UsageError(f"bad ones bound in {raw!r}") from None
        if k < 0:
            raise UsageError("ones bound must be nonnegative")
        return AtMostKOnes(k)
    raise UsageError(
        f"unknown limit event {raw!r}; expected "
        "return-to-zero | at-most-ones:K | complement-constant"
    )


# ---------------------------------------------------------------------------
# subcommands


def cmd_matrix(args) -> None:
    space = _parse_horizon(args.n)
    _charge_document(1 << 2 * args.n, f"matrix document at n={args.n}", args.force)
    state = DecoherenceState(space)
    size = 1 << args.n
    signs = state.dense_signs()
    params = {"n": args.n, "format": args.format}
    if args.format == "json":
        entries = [
            [[int(signs[j * size + k]), 0] for k in range(size)] for j in range(size)
        ]
        _emit_json(
            "matrix",
            params,
            {"log2_den": args.n, "entries": entries},
        )
    else:
        rows = [
            [j, k, int(signs[j * size + k]), 0]
            for j in range(size)
            for k in range(size)
        ]
        sys.stdout.write(f"# denominator: 2**{args.n}\n")
        _emit_csv("matrix", params, ["j", "k", "re", "im"], rows)


def cmd_measure(args) -> None:
    space = _parse_horizon(args.n)
    state = DecoherenceState(space)
    indices = _parse_event_indices(args.event, args.n)
    event = Event.from_indices(state.space, indices)
    strategy = Strategy(args.strategy)
    if strategy is Strategy.PAIRWISE and not indices:
        raise UsageError("the pairwise strategy needs a nonempty event")
    value = mu(state, event, strategy)
    doc = _dyadic_doc(value)
    doc["exact"] = f"{value.numerator_at(args.n)}/{1 << args.n}"
    doc["reduced"] = str(value.as_fraction())
    _emit_json(
        "measure",
        {"n": args.n, "event": indices, "strategy": strategy.value},
        {"mu": doc},
    )


def cmd_interference(args) -> None:
    space = _parse_horizon(args.n)
    size = 1 << args.n
    pairs = size * (size - 1) >> 1
    _charge_document(pairs, f"interference document at n={args.n}", args.force)
    charge(16 * pairs, f"interference rows at n={args.n}")  # one list held per row
    state = DecoherenceState(space)
    rows = []
    for i in range(size):
        for j in range(i + 1, size):
            value, kind = interference(state, i, j)
            rows.append([i, j, value.numerator_at(max(args.n - 1, 0)), kind.value])
    params = {"n": args.n, "format": args.format, "log2_den": max(args.n - 1, 0)}
    if args.format == "json":
        _emit_json(
            "interference",
            params,
            [
                {"i": i, "j": j, "num": num, "log2_den": max(args.n - 1, 0), "class": kind}
                for i, j, num, kind in rows
            ],
        )
    else:
        _emit_csv("interference", params, ["i", "j", "num", "class"], rows)


def cmd_preclusion(args) -> None:
    state = DecoherenceState(_parse_horizon(args.n))
    if args.max_card is not None and args.max_card < 0:
        raise UsageError("max-card must be nonnegative")
    events = enumerate_precluded(state, args.max_card)
    params = {"n": args.n, "max_card": args.max_card, "format": args.format}
    if args.format == "json":
        _emit_json(
            "preclusion",
            params,
            [{"cardinality": ev.cardinality, "indices": list(ev.to_tuple())} for ev in events],
        )
    else:
        rows = [
            [ev.cardinality, " ".join(map(str, ev.to_tuple()))] for ev in events
        ]
        _emit_csv("preclusion", params, ["cardinality", "indices"], rows)


def cmd_limit(args) -> None:
    event = _parse_limit_event(args.event)
    if not 2 <= args.window <= args.n_max:
        raise UsageError("need n-max >= window >= 2")
    if not 0 < args.tol < float("inf"):  # NaN fails both comparisons
        raise UsageError("--tol must be positive and finite")
    report = limit_mu_hat(event, args.n_max, window=args.window, tol=args.tol)
    rows = [
        [n, exact.num, exact.log2_den, repr(decimal)]
        for (n, exact, decimal) in report.values
    ]
    params = {
        "event": args.event,
        "n_max": args.n_max,
        "window": args.window,
        "tol": args.tol,
        "format": args.format,
    }
    verdict_doc = {
        "verdict": report.verdict.value,
        "estimate": report.estimate,
        "at_n": report.at_n,
        "sequence": report.sequence_kind,
        "provenance": "numerical-verdict",
    }
    if args.format == "json":
        _emit_json(
            "limit",
            params,
            {
                "values": [
                    {"n": n, "num": e.num, "log2_den": e.log2_den, "decimal": d}
                    for (n, e, d) in report.values
                ],
                **verdict_doc,
            },
        )
    else:
        sys.stdout.write(f"# verdict: {json.dumps(verdict_doc, sort_keys=True)}\n")
        _emit_csv("limit", params, ["n", "num", "log2_den", "decimal"], rows)


def cmd_variation(args) -> None:
    if not 1 <= args.n_max <= 64:
        raise UsageError("need 1 <= n-max <= 64")
    rows = [[n, variation_lower_bound(n)] for n in range(1, args.n_max + 1)]
    params = {"n_max": args.n_max, "format": args.format}
    if args.format == "json":
        _emit_json(
            "variation",
            params,
            [{"n": n, "bound": bound} for n, bound in rows],
        )
    else:
        _emit_csv("variation", params, ["n", "bound"], rows)


def cmd_example8(args) -> None:
    if not 1 <= args.i_max <= 200:
        raise UsageError("need 1 <= i-max <= 200")
    terms = repeated_block_measures(args.i_max)
    verdict = repeated_block_verdict(max(args.i_max, 130))
    params = {"i_max": args.i_max, "format": args.format}
    if args.format == "json":
        _emit_json(
            "example8",
            params,
            {
                "terms": [
                    {
                        "i": t.index,
                        "num": t.value.numerator,
                        "den": t.value.denominator,
                        "decimal": float(t.value),
                        "provenance": t.provenance,
                    }
                    for t in terms
                ],
                "verdict": verdict.value,
                "verdict_provenance": "numerical-verdict",
            },
        )
    else:
        sys.stdout.write(f"# verdict: {verdict.value}\n")
        rows = [
            [t.index, t.value.numerator, t.value.denominator, repr(float(t.value)), t.provenance]
            for t in terms
        ]
        _emit_csv("example8", params, ["i", "num", "den", "decimal", "provenance"], rows)


def cmd_quadratic(args) -> None:
    if args.builtin and args.file:
        raise UsageError("pass either --builtin or --file, not both")
    if not args.builtin and not args.file:
        raise UsageError("pass --builtin example12|example13 or --file PATH")
    table = None
    if args.builtin == "example12":
        system, table = three_type_system()
    elif args.builtin == "example13":
        system = odd_count_system()
        table = cardinality_squared_table(system)
    elif args.builtin:
        raise UsageError(f"unknown builtin {args.builtin!r}")
    else:
        system = _parse_system(args.file)
        if args.check_measure:
            raise UsageError("--check-measure needs a builtin system (it carries the values)")
    ok, witness = is_quadratic_algebra(system)
    result = {
        "universe_size": system.universe_size,
        "members": len(system.members),
        "quadratic_algebra": ok,
        "counterexample": None if witness is None else [
            sorted(system.indices_of(m)) for m in witness
        ],
    }
    if args.check_measure and table is not None:
        mok, mwitness = is_q_measure(system, table)
        result["q_measure"] = mok
        result["measure_counterexample"] = (
            None if mwitness is None else [sorted(system.indices_of(m)) for m in mwitness]
        )
    _emit_json(
        "quadratic",
        {
            "builtin": args.builtin,
            "file": args.file,
            "check_measure": bool(args.check_measure),
        },
        result,
    )


def cmd_integral(args) -> None:
    space = _parse_horizon(args.n)
    state = DecoherenceState(space)
    if args.variable == "ones":
        rv = RandomVariable.ones(state.space)
    elif args.variable == "changes":
        rv = RandomVariable.changes(state.space)
    else:
        rv = RandomVariable.from_values(state.space, _parse_values_file(args.variable, space))
    strategy = {
        "def": IntegralStrategy.DEFINITION,
        "trace": IntegralStrategy.TRACE,
        "eigen": IntegralStrategy.EIGEN,
    }[args.strategy]
    value = integral(state, rv, strategy)
    _emit_json(
        "integral",
        {"n": args.n, "variable": args.variable, "strategy": args.strategy},
        {"integral": _fraction_doc(value)},
    )


def cmd_eigen(args) -> None:
    space = _parse_horizon(args.n)
    _charge_document(2 << args.n, f"eigen document at n={args.n}", args.force)
    state = DecoherenceState(space)
    even = state.eigenvector_exact(0)
    odd = state.eigenvector_exact(1)
    _emit_json(
        "eigen",
        {"n": args.n},
        {
            "eigenvalue": {"num": 1, "log2_den": 1, "decimal": 0.5},
            "scale": f"2**((n-1)/2) with n={args.n}",
            "even_vector": [[re, im] for re, im in even],
            "odd_vector": [[re, im] for re, im in odd],
            "verified_exact": state.eigen_equation_holds(),
        },
    )


def cmd_verify(args) -> int:
    results = run_checks()
    failed = [r for r in results if not r.passed]
    for r in results:
        if r.passed:
            print(f"PASS {r.name}")
        else:
            print(f"FAIL {r.name}: {r.detail}")
        print(f"time {r.name}: {r.seconds:.3f}s", file=sys.stderr)
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwalk",
        description="Exact measure theory of the two-site quantum random walk.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("matrix", help="emit the scaled decoherence matrix")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.add_argument("--force", action="store_true")

    p = sub.add_parser("measure", help="q-measure of an event")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--event", type=str, required=True, help="comma-separated indices")
    p.add_argument("--strategy", choices=[s.value for s in Strategy], default="rank2")

    p = sub.add_parser("interference", help="full pair classification table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.add_argument("--force", action="store_true")

    p = sub.add_parser("preclusion", help="enumerate measure-zero events")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-card", type=int, default=None)
    p.add_argument("--format", choices=("csv", "json"), default="json")

    p = sub.add_parser("limit", help="measure-limit table for a symbolic event")
    p.add_argument(
        "--event",
        type=str,
        required=True,
        help="return-to-zero | at-most-ones:K | complement-constant",
    )
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--window", type=int, default=5)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--format", choices=("csv", "json"), default="json")

    p = sub.add_parser("variation", help="variation lower-bound series")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="json")

    p = sub.add_parser("example8", help="nested block-product measure series")
    p.add_argument("--i-max", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="json")

    p = sub.add_parser("quadratic", help="quadratic-algebra and q-measure checks")
    p.add_argument("--builtin", choices=("example12", "example13"), default=None)
    p.add_argument("--file", type=str, default=None)
    p.add_argument("--check-measure", action="store_true")

    p = sub.add_parser("integral", help="quantum integral of a random variable")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--variable", type=str, required=True, help="ones | changes | FILE")
    p.add_argument("--strategy", choices=("def", "trace", "eigen"), default="trace")

    p = sub.add_parser("eigen", help="rank-two eigenvectors, exact")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--force", action="store_true")

    sub.add_parser("verify", help="run the full reproduction suite")

    return parser


COMMANDS = {
    "matrix": cmd_matrix,
    "measure": cmd_measure,
    "interference": cmd_interference,
    "preclusion": cmd_preclusion,
    "limit": cmd_limit,
    "variation": cmd_variation,
    "example8": cmd_example8,
    "quadratic": cmd_quadratic,
    "integral": cmd_integral,
    "eigen": cmd_eigen,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        if args.subcommand == "verify":
            code = cmd_verify(args)
        else:
            COMMANDS[args.subcommand](args)
            code = 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ResourceLimitError as exc:
        print(f"resource bound: {exc}", file=sys.stderr)
        return RESOURCE_ERROR
    except Exception:  # a library bug, not bad input: report it as one
        print("internal error:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return INTERNAL_ERROR
    elapsed = time.perf_counter() - started
    print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
