"""The ``qwalk`` command line: every computation, machine-readable.

Output contract: stdout carries a deterministic document (JSON by default,
CSV where tabular) that echoes the command and parameters; run metadata such
as elapsed time (and each verify check's seconds) goes to stderr only, so
identical invocations are byte-identical.  Dyadic numbers serialize as {"num", "log2_den", "decimal"},
general rationals as {"num", "den", "decimal"}.  A document's rows are
written as they are made, a batch at a time, so no command holds its whole
document; a reader that closes stdout early, as `| head` does, ends the
command with exit 0.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 resource
bound exceeded, 4 internal error.  User input is validated here, before
anything is charged or the library sees it, and raises UsageError; the
one exception is a variable file's contents, which are read only after
the variable they fill is charged from its horizon.  Any
other exception from the library is a bug and exits 4 with its traceback
on stderr.  Resource bounds are the library's cost charges (errors.charge)
and three of the command line's own, all against the same budget.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
import traceback
from collections import Counter
from fractions import Fraction
from itertools import chain, islice
from operator import itemgetter
from types import SimpleNamespace

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
from .errors import ResourceLimitError, charge
from .paths import MAX_STEPS, PathSpace
from .qintegral import IntegralStrategy, RandomVariable, _charge_values, integral
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

_BATCH = 1 << 10  # JSON chunks or CSV rows per write


class UsageError(Exception):
    pass


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


class _Rows(list):
    """Rows made as they are written: json's encoder writes a list subclass
    as a list, by iteration.  The list holds only the first row, so an empty
    table is an empty list."""

    def __init__(self, rows):
        self._rest = iter(rows)
        super().__init__(islice(self._rest, 1))

    def __iter__(self):
        return chain(super().__iter__(), self._rest)


def _write(command: str, params: dict, result, columns=(), notes=()) -> None:
    """Write one document to stdout in the format params echo, JSON if none.

    JSON is the bytes of json.dumps({"command", "params", "result"},
    sort_keys=True, indent=2), the encoder's chunks (about one per cell)
    joined _BATCH at a time.  CSV is a "# " line per note, the command and
    params, the columns, and a line per row of the result's _Rows, _BATCH
    rows at a time; a dict row's cells are picked by column name.  Making a
    row must not raise: each command runs whatever can raise before it
    writes, so stdout stays empty on every nonzero exit.
    """
    if params.get("format") != "csv":
        doc = {"command": command, "params": params, "result": result}
        chunks = json.JSONEncoder(sort_keys=True, indent=2).iterencode(doc)
        while text := "".join(islice(chunks, _BATCH)):
            sys.stdout.write(text)
        sys.stdout.write("\n")
        return
    table = result if isinstance(result, _Rows) else next(
        value for value in result.values() if isinstance(value, _Rows)
    )
    rows = map(itemgetter(*columns), table) if table and isinstance(table[0], dict) else iter(table)
    lines = [f"# {note}\n" for note in notes]
    lines.append(f"# command: qwalk {command}\n# params: {json.dumps(params, sort_keys=True)}\n")
    writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\n")
    writer.writerow(columns)
    while lines:  # CSV rows are at most five cells wide
        sys.stdout.write("".join(lines))
        lines.clear()
        writer.writerows(islice(rows, _BATCH))


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
        with open(path, "r", encoding="utf-8") as file:
            _charge_values(space)  # the variable it fills, before a byte is read
            tokens = file.read().split()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path!r}: {exc}") from None
    if len(tokens) != space.size:
        raise UsageError(f"variable file must hold {space.size} values, got {len(tokens)}")
    try:
        # An exponent e follows a token's last e or E.  Fraction() builds
        # 10**|e|, W = (|e| - 1) // 9 words past the first: W**2 bounds its
        # squarings and the words it holds, and the lowest e < 0 puts W more
        # words in every value over the common denominator.
        exponents = Counter(tok.lower().rpartition("e")[2] for tok in tokens if "e" in tok or "E" in tok)
        words = {e: max(abs(e) - 1, 0) // 9 for e in map(int, exponents)}
        units = sum(words[int(e)] ** 2 * count for e, count in exponents.items())
        try:
            charge(units + space.size * words.get(min((0, *words)), 0), f"exponents in {path!r}")
        except ResourceLimitError:
            # a bad token is a usage error first: each is read with exponent
            # 0, and one that fails as it is, refused before a power is built
            for tok in tokens:
                try:
                    Fraction(tok.lower().rpartition("e")[0] + "e0" if "e" in tok or "E" in tok else tok)
                except ValueError:
                    Fraction(tok)
            raise
        return [Fraction(tok) for tok in tokens]
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad value in {path!r}: {exc}") from None


def _parse_system(path: str):
    try:
        text = open(path, "r", encoding="utf-8").read()
    except (OSError, UnicodeDecodeError) as exc:
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
    charge(1 << 2 * args.n, f"matrix entries at n={args.n}")  # the work per entry written
    sign = DecoherenceState(space).entry_sign
    paths = range(1 << args.n)
    if args.format == "json":
        rows = ([[sign(j, k), 0] for k in paths] for j in paths)
    else:
        rows = ([j, k, sign(j, k), 0] for j in paths for k in paths)
    _write(
        "matrix",
        {"n": args.n, "format": args.format},
        {"log2_den": args.n, "entries": _Rows(rows)},
        columns=("j", "k", "re", "im"),
        notes=(f"denominator: 2**{args.n}",),
    )


def cmd_measure(args) -> None:
    space = _parse_horizon(args.n)
    state = DecoherenceState(space)
    indices = _parse_event_indices(args.event, args.n)
    event = Event.from_indices(state.space, indices)
    strategy = Strategy(args.strategy)
    value = mu(state, event, strategy)
    doc = {"num": value.num, "log2_den": value.log2_den, "decimal": float(value)}
    doc["exact"] = f"{value.numerator_at(args.n)}/{1 << args.n}"
    doc["reduced"] = str(value.as_fraction())
    _write(
        "measure",
        {"n": args.n, "event": indices, "strategy": strategy.value},
        {"mu": doc},
    )


def cmd_interference(args) -> None:
    space = _parse_horizon(args.n)
    size = 1 << args.n
    pairs = size * (size - 1) >> 1
    charge(16 * pairs, f"interference rows at n={args.n}")  # the work per row written
    state = DecoherenceState(space)
    log2_den = max(args.n - 1, 0)

    def rows():
        for i in range(size):
            for j in range(i + 1, size):
                value, kind = interference(state, i, j)
                num = value.numerator_at(log2_den)
                yield {"i": i, "j": j, "num": num, "log2_den": log2_den, "class": kind.value}

    _write(
        "interference",
        {"n": args.n, "format": args.format, "log2_den": log2_den},
        _Rows(rows()),
        columns=("i", "j", "num", "class"),
    )


def cmd_preclusion(args) -> None:
    state = DecoherenceState(_parse_horizon(args.n))
    if args.max_card is not None and args.max_card < 0:
        raise UsageError("max-card must be nonnegative")
    events = enumerate_precluded(state, args.max_card)
    # a CSV cell holds the members space-joined
    members = list if args.format == "json" else lambda t: " ".join(map(str, t))
    _write(
        "preclusion",
        {"n": args.n, "max_card": args.max_card, "format": args.format},
        _Rows({"cardinality": ev.cardinality, "indices": members(ev.to_tuple())} for ev in events),
        columns=("cardinality", "indices"),
    )


def cmd_limit(args) -> None:
    event = _parse_limit_event(args.event)
    if not 2 <= args.window <= args.n_max:
        raise UsageError("need n-max >= window >= 2")
    if not 0 < args.tol < float("inf"):  # NaN fails both comparisons
        raise UsageError("--tol must be positive and finite")
    report = limit_mu_hat(event, args.n_max, window=args.window, tol=args.tol)
    verdict = {
        "verdict": report.verdict.value,
        "estimate": report.estimate,
        "at_n": report.at_n,
        "sequence": report.sequence_kind,
        "provenance": "numerical-verdict",
    }
    rows = (
        {"n": n, "num": e.num, "log2_den": e.log2_den, "decimal": d}
        for (n, e, d) in report.values
    )
    _write(
        "limit",
        {"event": args.event, "n_max": args.n_max, "window": args.window, "tol": args.tol,
         "format": args.format},
        {"values": _Rows(rows), **verdict},
        columns=("n", "num", "log2_den", "decimal"),
        notes=(f"verdict: {json.dumps(verdict, sort_keys=True)}",),
    )


def cmd_variation(args) -> None:
    if not 1 <= args.n_max <= 64:
        raise UsageError("need 1 <= n-max <= 64")
    _write(
        "variation",
        {"n_max": args.n_max, "format": args.format},
        _Rows({"n": n, "bound": variation_lower_bound(n)} for n in range(1, args.n_max + 1)),
        columns=("n", "bound"),
    )


def cmd_example8(args) -> None:
    if not 1 <= args.i_max <= 200:
        raise UsageError("need 1 <= i-max <= 200")
    terms = repeated_block_measures(args.i_max)
    verdict = repeated_block_verdict(max(args.i_max, 130))
    rows = (
        {"i": t.index, "num": t.value.numerator, "den": t.value.denominator,
         "decimal": float(t.value), "provenance": t.provenance}
        for t in terms
    )
    _write(
        "example8",
        {"i_max": args.i_max, "format": args.format},
        {"terms": _Rows(rows), "verdict": verdict.value, "verdict_provenance": "numerical-verdict"},
        columns=("i", "num", "den", "decimal", "provenance"),
        notes=(f"verdict: {verdict.value}",),
    )


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
    _write(
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
    _write(
        "integral",
        {"n": args.n, "variable": args.variable, "strategy": args.strategy},
        {"integral": _fraction_doc(value)},
    )


def cmd_eigen(args) -> None:
    space = _parse_horizon(args.n)
    state = DecoherenceState(space)
    verified = state.eigen_equation_holds()  # before the command's own vectors are held
    even = state.eigenvector_exact(0)
    odd = state.eigenvector_exact(1)
    _write(
        "eigen",
        {"n": args.n},
        {
            "eigenvalue": {"num": 1, "log2_den": 1, "decimal": 0.5},
            "scale": f"2**((n-1)/2) with n={args.n}",
            "even_vector": _Rows(even),
            "odd_vector": _Rows(odd),
            "verified_exact": verified,
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

    p = sub.add_parser("measure", help="q-measure of an event")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--event", type=str, required=True, help="comma-separated indices")
    p.add_argument("--strategy", choices=[s.value for s in Strategy], default="rank2")

    p = sub.add_parser("interference", help="full pair classification table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="json")

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
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        code = COMMANDS[args.subcommand](args) or 0
        sys.stdout.flush()  # so that a closed reader is seen here, not at exit
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ResourceLimitError as exc:
        print(f"resource bound: {exc}", file=sys.stderr)
        return RESOURCE_ERROR
    except BrokenPipeError:  # the reader closed stdout early, as `| head` does: no error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # so the exit flush passes
        code = 0
    except Exception:  # a library bug, not bad input: report it as one
        print("internal error:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return INTERNAL_ERROR
    elapsed = time.perf_counter() - started
    print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
