#!/usr/bin/env python3
"""Measure the reproduction suite's mix of event queries.

    python3 perfbench/suite_mix.py

Profiles ``qwalk verify`` in-process (about three times its plain run
time) and counts the calls the suite's own checks make to each query the
``measure`` part issues.  It prints each query's count and share, and
the sparse ops per horizon those shares give at ``measure.SUITE_SCALE``.
It exits 1 if they differ from ``measure.MIX``, the part's mix.
"""

from __future__ import annotations

import contextlib
import cProfile
import io
import pstats
import sys

from qwbench import harness, measure

# workload op kind -> the library functions that op calls
QUERIES = {
    "mu": ("mu",),
    "grade2": ("grade2_check",),
    "interference": ("interference", "pair_measure"),
    "vector_measure": ("vector_measure",),
    "functional": ("functional",),
    "regularity": ("regularity_check",),
}


def suite_calls() -> dict[str, int]:
    """Calls made directly from ``qwalk/verify.py`` to each query kind."""
    qw = harness.load_qwalk()
    profile = cProfile.Profile()
    with contextlib.redirect_stdout(io.StringIO()):
        profile.runcall(qw.cli.main, ["verify"])
    calls = dict.fromkeys(QUERIES, 0)
    for (path, _, name), (*_, callers) in pstats.Stats(profile).stats.items():
        if "qwalk" not in path:
            continue
        for kind, names in QUERIES.items():
            if name in names:
                calls[kind] += sum(
                    n for (caller, _, _), (_, n, *_) in callers.items() if caller.endswith("verify.py")
                )
    return calls


def main() -> int:
    calls = suite_calls()
    total = sum(calls.values())
    mismatched = False
    print(f"{'kind':<16}{'calls':>10}{'share':>8}{'per horizon':>13}{'MIX':>6}")
    for kind, count in calls.items():
        share = count / total
        sparse = max(1, round(share * measure.SUITE_SCALE))
        want = measure.MIX[kind][0]
        mismatched |= sparse != want
        print(f"{kind:<16}{count:>10}{share:>8.3f}{sparse:>13}{want:>6}")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
