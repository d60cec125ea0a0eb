"""``verify``: the checks of the reproduction suite behind ``qwalk verify``.

Untraced, each check is one op, except the four long ones below, and a
round runs them all once.  Traced, the untraced round is
``cli.main(["verify"])`` with its output captured, and the traced round
runs every entry of ``verify.CHECKS`` with a span on each.  The suite's
inputs come from its own fixed seeds; the benchmark seed does not apply.
It drives every layer exhaustively at tiny horizons, where per-call
overhead rather than per-member scans dominates.
"""

from __future__ import annotations

import contextlib
import io

from .harness import OK, Call, Op, Workload, digest, untimed

# checks rolled up into the layers they exercise
PATHS_CHECKS = (
    "change-vectors",
    "ones-vectors",
    "reflection-recurrence",
    "shift-recurrence",
    "parity-residue-link",
    "residue-profile",
)
QUADRATIC_CHECKS = (
    "strong-disjointness",
    "three-type-system",
    "odd-count-system",
    "power-set-sanity",
    "random-quadratic-closures",
)
# Most of the suite's time: a round holding them takes 20-38 s, so it could
# not repeat within a run and its time would carry the machine's drift in
# full.  Untraced runs leave them out; traced runs time the whole suite.
LONG_CHECKS = (
    "integral-indicators",
    "grade2-regularity-exhaustive",
    "strategy-agreement-exhaustive",
    "strategy-agreement-random",
)


def cli_verify(main) -> tuple[int, str]:
    """Run the CLI's verify command; return its exit code and stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify"])
    return code, out.getvalue()


def run_check(fn) -> str:
    """One suite check, reported as "pass" or the reason it failed."""
    try:
        fn()
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return "pass"


def build(qw, seed: int, timed=untimed) -> Workload:
    checks = qw.verify.CHECKS
    names = [name for name, _ in checks]
    total = len(checks)
    missing = set(LONG_CHECKS) - set(names)
    if missing:
        raise KeyError(f"long checks not in verify.CHECKS: {sorted(missing)}")

    def check_cli(out):
        if not isinstance(out, tuple):
            return f"raised {out}"
        code, text = out[0]
        lines = text.strip().splitlines()
        summary = lines[-1] if lines else ""
        if code != 0 or summary != f"{total}/{total} checks passed":
            return f"exit {code}, summary {summary!r}"
        return OK

    def check_one(name):
        def check(out):
            if not isinstance(out, tuple):
                return f"raised {out}"
            return OK if out[0] == "pass" else f"{name}: {out[0]}"

        return check

    def check_suite(out):
        if not isinstance(out, tuple):
            return f"raised {out}"
        failed = [f"{name}: {r}" for name, r in zip(names, out) if r != "pass"]
        return "; ".join(failed) if failed else OK

    def counts(result):
        return {"verify.checks": 1, "verify.failed": int(result != "pass")}

    short = [
        Op("check", [Call(f"verify.{name}", run_check, (fn,))], check_one(name))
        for name, fn in checks
        if name not in LONG_CHECKS
    ]
    suite = [Call(f"verify.{name}", run_check, (fn,), counts) for name, fn in checks]
    return Workload(
        "verify",
        ops=short,
        digest=digest(names),
        traced_ops=[Op("suite", suite, check_suite)],
        traced_plain_ops=[Op("cli_verify", [Call("verify.cli", cli_verify, (qw.cli.main,))], check_cli)],
        latency=False,
    )
