"""Every cost refusal is one `errors.charge` against one budget.

The scan reads the source: a ResourceLimitError built anywhere but in
`charge` must be one of the bounds that are not costs, and every call of
`charge` passes its units and what they pay for, nothing else, so no call
compares against a budget of its own.  The boundary cases
compute each charged operation's units from counts alone: the largest
input accepted before the bounds became charges still runs, and the first
input past the budget is refused with its units and the budget named.
"""

import ast
import inspect
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import qwalk
from qwalk import cylinder, decoherence, errors, paths, qintegral, qmeasure
from qwalk.cylinder import (
    ALL_ZEROS,
    AtMostKOnes,
    CylinderEvent,
    EventualPath,
    FinitePathSet,
    approximant,
    limit_term,
    refine,
    strongly_disjoint,
)
from qwalk.decoherence import DecoherenceState, Event
from qwalk.errors import BUDGET, ResourceLimitError
from qwalk.paths import PathSpace, changes_vector, ones_vector
from qwalk.qintegral import (
    IntegralStrategy,
    RandomVariable,
    disjoint_support_grade2_check,
    integral,
    min_matrix_det_check,
    psd_check,
)
from qwalk.qmeasure import Strategy, embed_right_pad, enumerate_precluded, mu, preclusion_count
from qwalk.quadratic import SetSystem

SRC = Path(qwalk.__file__).resolve().parent

# (module, function) that may build a ResourceLimitError: the check itself,
# the interpreter's digit limit, and the one function that refuses limit
# tables, past the chosen table length or the at-most-K cap a benchmark
# probe pins
NOT_CHARGED = {
    ("errors", "charge"),
    ("cli", "_fraction_doc"),
    ("cylinder", "_limit_pairs"),
}


def resource_errors_built(path: Path):
    """(function, line) of each ResourceLimitError called or raised bare."""
    found = []

    def visit(node, function):
        if isinstance(node, ast.FunctionDef):
            function = node.name
        target = None
        if isinstance(node, ast.Call):
            target = node.func
        elif isinstance(node, ast.Raise):
            target = node.exc
        if getattr(target, "id", getattr(target, "attr", None)) == "ResourceLimitError":
            found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_every_cost_refusal_is_a_charge():
    built = {
        (path.stem, function, line)
        for path in sorted(SRC.glob("*.py"))
        for function, line in resource_errors_built(path)
    }
    assert ("errors", "charge") in {(module, function) for module, function, _ in built}
    assert {(m, f, line) for m, f, line in built if (m, f) not in NOT_CHARGED} == set()


def charge_calls(path: Path):
    """(line, positional arguments, keywords) of each call of `charge`."""
    return [
        (node.lineno, node.args, node.keywords)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "charge"
    ]


def test_every_charge_is_against_the_one_budget():
    assert list(inspect.signature(errors.charge).parameters) == ["units", "what"]
    calls = {
        (path.stem, line): (args, keywords)
        for path in sorted(SRC.glob("*.py"))
        for line, args, keywords in charge_calls(path)
    }
    assert len({module for module, _ in calls}) == 7  # every module that charges
    assert {
        site for site, (args, keywords) in calls.items()
        if len(args) != 2 or keywords or any(isinstance(arg, ast.Starred) for arg in args)
    } == set()


class Accepted(BaseException):
    """Raised in place of the work once an operation's charge has passed."""


def distinct_variable(n: int) -> RandomVariable:
    return RandomVariable(PathSpace(n), tuple(random.Random(n).sample(range(1, 1 << 20), 1 << n)))


def first_paths(n: int, m: int) -> Event:
    return Event.from_indices(PathSpace(n), range(m))


def entry_sum(rows: int, cols: int):
    return DecoherenceState(PathSpace(13)).functional_by_entries(first_paths(13, rows), first_paths(13, cols))


ONE_PATH = FinitePathSet((ALL_ZEROS,))


def long_paths(count: int) -> FinitePathSet:
    rng = random.Random(count)
    bits = lambda: tuple(rng.getrandbits(1) for _ in range(512))
    return FinitePathSet(tuple(EventualPath(bits(), 0) for _ in range(count)))


def disjoint_triple(n: int):
    space = PathSpace(n)
    units = [(0,) * j + (1,) + (0,) * (space.size - j - 1) for j in range(3)]
    return (DecoherenceState(space), *(RandomVariable(space, u) for u in units))


# (id, module whose charge stops the work of the accepted input, or None to
# run it; the largest input accepted before; the first input refused; its units)
CHARGED = [
    ("event mask", None,
     lambda: Event.empty(PathSpace(24)), lambda: Event.empty(PathSpace(25)), 1 << 25),
    ("change-count vector", paths,
     lambda: changes_vector(PathSpace(20)), lambda: changes_vector(PathSpace(21)), 16 << 21),
    ("ones-count vector", paths,
     lambda: ones_vector(PathSpace(20)), lambda: ones_vector(PathSpace(21)), 16 << 21),
    ("eigenvector", decoherence,
     lambda: DecoherenceState(PathSpace(20)).eigenvector_exact(0),
     lambda: DecoherenceState(PathSpace(21)).eigenvector_exact(0), 16 << 21),
    ("random variable", None,
     lambda: RandomVariable.constant(PathSpace(20), 1),
     lambda: RandomVariable.constant(PathSpace(21), 1), 16 << 21),
    # one unit per member pair; 4096 members at n = 12 is the whole space
    ("dense measure", decoherence,
     lambda: mu(DecoherenceState(PathSpace(12)), first_paths(12, 4096), Strategy.DENSE),
     lambda: mu(DecoherenceState(PathSpace(13)), first_paths(13, 4097), Strategy.DENSE), 4097**2),
    ("pairwise measure", qmeasure,
     lambda: mu(DecoherenceState(PathSpace(12)), first_paths(12, 4096), Strategy.PAIRWISE),
     lambda: mu(DecoherenceState(PathSpace(13)), first_paths(13, 4097), Strategy.PAIRWISE), 4097**2),
    ("entry sum of two events", decoherence,
     lambda: entry_sum(4096, 4096), lambda: entry_sum(4097, 4096), 4097 * 4096),
    # the bit lengths of two depths' hull masks: 2**25 less 10 237 from
    # the start's and its two successors' largest live tails
    ("at-most-12 hull", None,
     lambda: approximant(AtMostKOnes(12), 23), lambda: approximant(AtMostKOnes(12), 24), (2 << 24) - 10_237),
    # one unit per pair of live states and level: 1 x 1 states, and 3 x 4
    ("disjointness walk of two paths", cylinder,
     lambda: strongly_disjoint(ONE_PATH, ONE_PATH, BUDGET),
     lambda: strongly_disjoint(ONE_PATH, ONE_PATH, BUDGET + 1), BUDGET + 1),
    ("disjointness walk of two counters", cylinder,
     lambda: strongly_disjoint(AtMostKOnes(2), AtMostKOnes(3), BUDGET // 12),
     lambda: strongly_disjoint(AtMostKOnes(2), AtMostKOnes(3), BUDGET // 12 + 1), 12 * (BUDGET // 12 + 1)),
    # 16 per trie state, bounded by P * (512 + 2)
    ("path-set automaton", cylinder,
     lambda: limit_term(long_paths(2040), 512), lambda: limit_term(long_paths(2041), 512), 16 * 2041 * 514),
    ("cylinder base", None,
     lambda: refine(CylinderEvent.from_indices(1, (1,)), 24),
     lambda: refine(CylinderEvent.from_indices(1, (1,)), 25), 1 << 25),
    ("approximant base", None,
     lambda: approximant(FinitePathSet(()), 24), lambda: approximant(FinitePathSet(()), 25), 1 << 25),
    ("set system", None,
     lambda: SetSystem(12, tuple(range(4096))), lambda: SetSystem(13, tuple(range(4097))), 4097**2),
    ("psd check", None,
     lambda: psd_check(RandomVariable.constant(PathSpace(12), 1)),
     lambda: psd_check(RandomVariable.constant(PathSpace(13), 1)), 8192**2),
    ("entrywise identity check", qintegral,
     lambda: disjoint_support_grade2_check(*disjoint_triple(10)),
     lambda: disjoint_support_grade2_check(*disjoint_triple(11)), 7 << 22),
    ("definition route, all values distinct", qintegral,
     lambda: integral(DecoherenceState(PathSpace(12)), distinct_variable(12), IntegralStrategy.DEFINITION),
     lambda: integral(DecoherenceState(PathSpace(13)), distinct_variable(13), IntegralStrategy.DEFINITION),
     2 * 4096**2),
    ("min-matrix check", None,
     lambda: min_matrix_det_check(range(1, 11)), lambda: min_matrix_det_check(range(102)), 16 * 102**3),
    ("strong positivity", None,
     lambda: DecoherenceState(PathSpace(2)).strong_positivity_check([Event.full(PathSpace(2))] * 12),
     lambda: DecoherenceState(PathSpace(2)).strong_positivity_check([Event.full(PathSpace(2))] * 102),
     16 * 102**3),
    ("preclusion listing", None,
     lambda: enumerate_precluded(DecoherenceState(PathSpace(9)), 2),
     lambda: enumerate_precluded(DecoherenceState(PathSpace(10)), 2),
     preclusion_count(10, 2) * (16 + (1 << 10 >> 3))),
    ("uncapped preclusion count", qmeasure,
     lambda: preclusion_count(20), lambda: preclusion_count(21), 16 << 21),
]


@pytest.mark.parametrize(
    "module, accepted, refused, units", [case[1:] for case in CHARGED], ids=[case[0] for case in CHARGED]
)
def test_charge_boundaries(monkeypatch, module, accepted, refused, units):
    assert units > BUDGET
    with pytest.raises(ResourceLimitError) as info:
        refused()
    assert f"costs {units} units, over the budget of {BUDGET}" in str(info.value)
    if module is not None:

        def charged(units, what):
            errors.charge(units, what)
            raise Accepted(units)

        monkeypatch.setattr(module, "charge", charged)
    try:
        accepted()
    except Accepted as stop:
        assert stop.args[0] <= BUDGET


def refusal_and_peak(build) -> tuple[str, int]:
    """The refusal `build()` raises, and the most memory traced before it."""
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError) as info:
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return str(info.value), peak


COARSE = Event.from_indices(PathSpace(3), [1, 6])


@pytest.mark.parametrize("n", [25, 28])
@pytest.mark.parametrize(
    "build",
    [
        lambda space: Event.from_indices(space, [space.size - 1]),
        Event.full,
        lambda space: embed_right_pad(COARSE, space),
    ],
    ids=["from_indices", "full", "embed_right_pad"],
)
def test_event_masks_are_charged_before_they_are_built(n, build):
    # a mask of 2**25 bits is 4 MiB, of 2**28 bits 32 MiB: refused first,
    # nothing near that size is made
    message, peak = refusal_and_peak(lambda: build(PathSpace(n)))
    assert message == f"event mask at n={n} costs {1 << n} units, over the budget of {BUDGET}"
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "n, build",
    [
        (21, lambda space, ev: RandomVariable.indicator(ev)),
        (22, lambda space, ev: RandomVariable.constant(space, Fraction(1, 3))),
        (22, lambda space, ev: RandomVariable.from_values(space, (1 for _ in range(space.size)))),
    ],
    ids=["indicator", "constant", "from_values"],
)
def test_random_variables_are_charged_before_they_are_built(n, build):
    # 2**n values held one per path: refused before any per-path sequence
    space = PathSpace(n)
    ev = Event.from_indices(space, [5])
    message, peak = refusal_and_peak(lambda: build(space, ev))
    assert message == f"random variable at n={n} costs {16 << n} units, over the budget of {BUDGET}"
    assert peak < 1 << 20
