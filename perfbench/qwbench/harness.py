"""Ops, rounds, spans and checks shared by every workload.

An op is a short list of calls into qwalk's public API, made by one caller
in a closed loop: the next call starts when the previous one returns.  A
round runs a workload's whole op list once.  Untraced rounds give the
end-to-end numbers; traced rounds put one span around every call and give
the per-layer numbers.  Results are checked after the timed region, so
checking never counts as op time.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import math
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns, process_time
from typing import Any, Callable

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
QWALK_MODULES = ("qwalk", "qwalk.cli")

OK = "ok"
REFUSED = "refused"  # a documented ResourceLimitError, counted apart from failures


def load_qwalk(fresh: bool = False):
    """Import qwalk from this checkout's ``src``, never from elsewhere.

    With ``fresh``, every loaded qwalk module is dropped first, so the import
    runs the package's module code again and can be timed as set-up.
    """
    if fresh:
        for name in [m for m in sys.modules if m == "qwalk" or m.startswith("qwalk.")]:
            del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in QWALK_MODULES:
        importlib.import_module(name)
    qw = sys.modules["qwalk"]
    if SRC.resolve() not in Path(qw.__file__).resolve().parents:
        raise ImportError(f"qwalk was imported from {qw.__file__}, not from {SRC}")
    return qw


def digest(specs) -> str:
    """Stable digest of a workload's generated inputs (nested tuples, lists
    and dicts of ints, strings and None)."""
    h = hashlib.sha256()

    def feed(obj) -> None:
        if isinstance(obj, int) and not isinstance(obj, bool):
            h.update(b"i" + hex(obj).encode())  # hex: no cap on digit count
        elif isinstance(obj, (tuple, list)):
            h.update(b"(")
            for item in obj:
                feed(item)
            h.update(b")")
        elif isinstance(obj, dict):
            feed(sorted(obj.items()))
        else:
            h.update(repr(obj).encode())

    feed(specs)
    return h.hexdigest()[:16]


@dataclass(frozen=True)
class Raised:
    """An exception an op raised, comparable across rounds."""

    type_name: str
    message: str

    @classmethod
    def of(cls, exc: BaseException) -> "Raised":
        return cls(type(exc).__name__, str(exc))


@dataclass
class Call:
    """One call into the library; ``span`` names the span "<layer>.<what>".

    ``counters`` are the per-layer work counts the call adds when traced:
    a dict applied when the call returns, or a function of its outcome.
    """

    span: str
    fn: Callable
    args: tuple = ()
    counters: dict | Callable[[Any], dict] | None = None

    def counts(self, outcome) -> dict:
        if callable(self.counters):
            return self.counters(outcome)
        if self.counters and not isinstance(outcome, Raised):
            return self.counters
        return {}


@dataclass
class Op:
    """Calls made back to back; ``check`` judges the tuple of their results
    (or the ``Raised`` that stopped them) and returns OK, REFUSED or why not."""

    kind: str
    calls: list[Call]
    check: Callable[[Any], str]


@dataclass
class Workload:
    name: str
    ops: list[Op]
    digest: str
    # when a traced run needs other ops (verify): the ops its traced rounds
    # run, and the untraced ops it alternates them with
    traced_ops: list[Op] | None = None
    traced_plain_ops: list[Op] | None = None
    latency: bool = True  # whether op_p50_ms / op_tail_ms are meaningful
    # of a combined workload: each part with meaningful op latencies, and
    # the index range of its ops in the round
    latency_ops: dict[str, range] = field(default_factory=dict)

    def op_counts(self) -> dict[str, int]:
        return dict(sorted(Counter(op.kind for op in self.ops).items()))


def combine(name: str, parts: list[Workload]) -> Workload:
    """One workload whose round runs each part's round in turn."""
    ops: list[Op] = []
    traced: list[Op] = []
    plain: list[Op] = []
    latency_ops = {}
    for part in parts:
        if part.latency:
            latency_ops[part.name] = range(len(ops), len(ops) + len(part.ops))
        ops += part.ops
        traced += part.traced_ops or part.ops
        plain += part.traced_plain_ops or part.ops
    return Workload(
        name,
        ops,
        digest([part.digest for part in parts]),
        traced_ops=traced,
        traced_plain_ops=plain,
        latency_ops=latency_ops,
    )


def untimed(span: str, fn: Callable, *args):
    """Set-up hook of an untraced run: just build."""
    return fn(*args)


# -- rounds -------------------------------------------------------------------


@dataclass
class Round:
    outcomes: list
    latencies: list[float]  # wall seconds per op
    wall_s: float
    cpu_times: list[float] = field(default_factory=list)  # CPU seconds per op, untraced


def run_round(ops: list[Op]) -> Round:
    outcomes: list = [None] * len(ops)
    latencies = [0.0] * len(ops)
    cpu_times = [0.0] * len(ops)
    gc.collect()
    w0 = perf_counter()
    for i, op in enumerate(ops):
        t0, u0 = perf_counter(), process_time()
        try:
            outcomes[i] = tuple([c.fn(*c.args) for c in op.calls])
        except Exception as exc:
            outcomes[i] = Raised.of(exc)
        latencies[i] = perf_counter() - t0
        cpu_times[i] = process_time() - u0
    return Round(outcomes, latencies, perf_counter() - w0, cpu_times)


class Tracer:
    """Spans kept in memory: (name, start_ns, end_ns, op_id, parent).

    An op's own span is named "op.<kind>" with the workload as parent; each
    call inside it is a span whose parent is that op span.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[tuple[str, int, int, int, str]] = []
        self.counts: Counter = Counter()
        self._op_id = 0
        self._setup_op: int | None = None
        self._setup_start = 0

    def _next_op(self) -> int:
        self._op_id += 1
        return self._op_id

    def begin_setup(self) -> None:
        self._setup_op = self._next_op()
        self._setup_start = perf_counter_ns()

    def end_setup(self) -> None:
        self.spans.append(
            ("op.setup", self._setup_start, perf_counter_ns(), self._setup_op, self.workload)
        )

    def timed(self, span: str, fn: Callable, *args):
        """Set-up hook of a traced run: build inside a span of the set-up op."""
        start = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self.spans.append((span, start, perf_counter_ns(), self._setup_op, "op.setup"))

    def run_round(self, ops: list[Op]) -> Round:
        outcomes: list = [None] * len(ops)
        latencies = [0.0] * len(ops)
        spans, counts = self.spans, self.counts
        gc.collect()
        w0 = perf_counter()
        for i, op in enumerate(ops):
            op_id = self._next_op()
            op_span = "op." + op.kind
            start = perf_counter_ns()
            results = []
            for c in op.calls:
                s = perf_counter_ns()
                try:
                    r = c.fn(*c.args)
                except Exception as exc:
                    r = Raised.of(exc)
                spans.append((c.span, s, perf_counter_ns(), op_id, op_span))
                counts.update(c.counts(r))
                if isinstance(r, Raised):
                    results = r
                    break
                results.append(r)
            else:
                results = tuple(results)
            end = perf_counter_ns()
            spans.append((op_span, start, end, op_id, self.workload))
            outcomes[i] = results
            latencies[i] = (end - start) / 1e9
        return Round(outcomes, latencies, perf_counter() - w0)

    def self_times(self, include_setup: bool = False) -> Counter:
        """Self seconds per span name: an op span minus its call spans."""
        child_ns: Counter = Counter()
        for name, s, e, op_id, parent in self.spans:
            if not name.startswith("op."):
                child_ns[op_id] += e - s
        out: Counter = Counter()
        for name, s, e, op_id, parent in self.spans:
            if (op_id == self._setup_op) != include_setup:
                continue
            own = e - s - (child_ns[op_id] if name.startswith("op.") else 0)
            out[name] += own / 1e9
        return out

    def call_counts(self) -> Counter:
        """Number of call spans per name, set-up excluded."""
        return Counter(
            name
            for name, _, _, op_id, _ in self.spans
            if op_id != self._setup_op and not name.startswith("op.")
        )


# -- checking -------------------------------------------------------------------


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    refused: int = 0
    failures: list[str] = field(default_factory=list)

    def add(self, op: Op, verdict: str) -> None:
        self.attempted += 1
        if verdict == REFUSED:
            self.refused += 1
        elif verdict != OK:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{op.kind}: {verdict}")


def judge(op: Op, outcome) -> str:
    """The op's own check, with a crash in the check counted against the op."""
    try:
        return op.check(outcome)
    except Exception as exc:
        return f"check raised {type(exc).__name__}: {exc}"


class Checker:
    """Holds every round to the first one as rounds finish, dropping their
    outcomes, so that memory does not grow with the number of rounds; the
    first round's outcomes are judged only at the end, after the timed
    region and its memory reading."""

    def __init__(self, ops: list[Op]):
        self.ops = ops
        self.first: list | None = None
        self.changed = [0] * len(ops)
        self.rounds = 0

    def add(self, rnd: Round) -> Round:
        self.rounds += 1
        if self.first is None:
            self.first = rnd.outcomes
        else:
            for i, (want, got) in enumerate(zip(self.first, rnd.outcomes)):
                self.changed[i] += got != want
        rnd.outcomes = []
        return rnd

    def tally(self, tally: Tally) -> None:
        for op, outcome, changed in zip(self.ops, self.first or [], self.changed):
            verdict = judge(op, outcome)
            tally.add(op, verdict)
            for _ in range(self.rounds - 1 - changed):
                tally.add(op, verdict)
            for _ in range(changed):
                tally.add(op, "result changed between rounds")


# -- statistics -----------------------------------------------------------------


TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)


def tail_percentile(ops_per_round: int) -> float | None:
    """Highest percentile with at least ten of one round's ops beyond it.

    Fixed by the workload's op list, so parent and child commits report the
    same percentile however many rounds their runs fit.
    """
    for p in TAIL_PERCENTILES:
        if ops_per_round * (100.0 - p) / 100.0 >= 10:
            return p
    return None


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]
