"""Metadata recorded with every run.

The calibration time is recorded so that drift of the machine stays
visible next to the results; no metric is scaled by it.
"""

from __future__ import annotations

import os
import platform
from pathlib import Path
from time import perf_counter

CALIBRATION_STEPS = 1_000_000


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop."""
    start = perf_counter()
    acc = 0
    for i in range(CALIBRATION_STEPS):
        acc = (acc + i * i) % 1_000_003
    return perf_counter() - start


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_metadata(root: Path, seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "commit": commit(root),
        "seed": seed,
        "calibration_s": calibrate(),
    }
