#!/usr/bin/env python3
"""Wall time and peak memory of qwalk's large CLI documents.

    python3 tools/cli_peaks.py
    python3 tools/cli_peaks.py --src ../other-checkout/src
    python3 tools/cli_peaks.py --baseline ../parent/src > BENCH_cli.json

Each row is one `qwalk` invocation, run as `python -m qwalk.cli` in a fresh
process with the library on PYTHONPATH and PYTHONUNBUFFERED unset.  Its
stdout is read through a pipe and only hashed and counted, never kept.  The
process's peak resident set comes from os.wait4, and its wall time runs
from the spawn to the wait.  The rows are the documents whose memory grows
with the horizon, a measure of a long member list and `verify` for scale;
each side runs every row TURNS times.

With ``--baseline`` the library there and this one (or ``--src``) are
measured in turn, alternating which side runs first on each turn.  Both
sides must give the same exit code and stdout, by sha256, or the run
fails.  A table goes to stderr and the JSON record to stdout: for each row
and side, every run's wall time and peak RSS and their medians, then the
stdout's bytes and sha256 and the exit code.  Only the standard library is
used; peak RSS needs os.wait4, so Unix only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from bench_percall import SEED, host  # a sibling in tools/

ROOT = Path(__file__).resolve().parent.parent
TURNS = 3
# a seeded event of 16 000 members at n = 20: about 111 KB, under Linux's
# 128 KiB limit on one argument
MEMBERS = ",".join(map(str, random.Random(f"{SEED}:measure").sample(range(1 << 20), 16_000)))
ROWS = [
    ("preclusion", "--n", "6", "--max-card", "4"),
    ("matrix", "--n", "10"),
    ("matrix", "--n", "10", "--format", "csv"),
    ("interference", "--n", "9"),
    ("interference", "--n", "10", "--format", "csv"),
    ("eigen", "--n", "20"),
    ("measure", "--n", "20", "--event", MEMBERS),
    ("verify",),
]


def label(argv: tuple[str, ...]) -> str:
    """A row's name: its argv, with the member list named, not spelled out."""
    return " ".join("<16 000 seeded members>" if arg == MEMBERS else arg for arg in argv)


def run(src: Path, argv: tuple[str, ...]) -> dict:
    """One fresh process: wall time, peak RSS, stdout digest and exit code."""
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONUNBUFFERED", None)  # stdout to a pipe buffered, as by default
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "qwalk.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env,
    )
    digest, size = hashlib.sha256(), 0
    while chunk := proc.stdout.read(1 << 20):
        digest.update(chunk)
        size += len(chunk)
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return {
        "wall_s": round(wall, 4),
        "peak_rss_mib": round(usage.ru_maxrss / 1024, 1),  # ru_maxrss is in KiB on Linux
        "stdout_bytes": size,
        "stdout_sha256": digest.hexdigest(),
        "exit": proc.returncode,
    }


def measure(sides: dict[str, Path]) -> dict:
    runs: dict[str, dict[str, list]] = {label(argv): {side: [] for side in sides} for argv in ROWS}
    order = list(sides.items())
    for turn in range(TURNS):
        for argv in ROWS:
            # alternate which side goes first, so a slow phase hits both
            for side, src in order if turn % 2 == 0 else order[::-1]:
                runs[label(argv)][side].append(run(src, argv))
    rows = {}
    for name, by_side in runs.items():
        row = {}
        for side, records in by_side.items():
            outputs = {(r["stdout_bytes"], r["stdout_sha256"], r["exit"]) for r in records}
            if len(outputs) != 1:
                raise SystemExit(f"{name}: {side} gave different outputs on different runs")
            size, sha, code = outputs.pop()
            walls = [r["wall_s"] for r in records]
            peaks = [r["peak_rss_mib"] for r in records]
            row[side] = {
                "wall_s": walls,
                "wall_s_median": median(walls),
                "peak_rss_mib": peaks,
                "peak_rss_mib_median": median(peaks),
                "stdout_bytes": size,
                "stdout_sha256": sha,
                "exit": code,
            }
        if "baseline" in row:
            base, change = row["baseline"], row["change"]
            if (base["stdout_sha256"], base["exit"]) != (change["stdout_sha256"], change["exit"]):
                raise SystemExit(f"{name}: stdout or exit code differs between the two libraries")
        rows[name] = row
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="library to measure")
    parser.add_argument("--baseline", type=Path, help="second library to compare against")
    args = parser.parse_args(argv)
    sides = {"change": args.src.resolve()}
    if args.baseline is not None:
        sides = {"baseline": args.baseline.resolve(), **sides}
    rows = measure(sides)
    print(f"{'median wall s | peak RSS MiB':44s}" + "".join(f"{side:>22s}" for side in sides), file=sys.stderr)
    for name, row in rows.items():
        cells = "".join(
            f"{row[side]['wall_s_median']:>12.3f} | {row[side]['peak_rss_mib_median']:<7.1f}"
            for side in sides
        )
        print(f"{name:44s}{cells}", file=sys.stderr)
    record = {
        "host": host(),
        "method": (
            f"one fresh process per run, {TURNS} runs per row and side, alternating "
            "which side runs first; peak RSS from os.wait4, wall time from spawn to wait"
        ),
        "rows": rows,
    }
    print(json.dumps(record, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
