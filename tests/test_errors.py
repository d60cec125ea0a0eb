"""Every cost refusal is one `errors.charge` against one budget.

The scan reads the source: a ResourceLimitError built anywhere but in
`charge` must be one of the bounds that are not costs.  The boundary cases
compute each charged operation's units from counts alone: the largest
input accepted before the bounds became charges still runs, and the first
input past the budget is refused with its units and the budget named.
"""

import ast
import random
from pathlib import Path

import pytest

from oracles import at_most_census_oracle

import qwalk
from qwalk import cylinder, decoherence, errors, paths, qintegral, qmeasure
from qwalk.cylinder import AtMostKOnes, CylinderEvent, FinitePathSet, approximant, approximant_indices, refine
from qwalk.decoherence import DecoherenceState, Event
from qwalk.errors import BUDGET, ResourceLimitError
from qwalk.paths import PathSpace, change_residues, changes_vector, ones_vector
from qwalk.qintegral import (
    IntegralStrategy,
    RandomVariable,
    disjoint_support_grade2_check,
    integral,
    min_matrix_det_check,
    psd_check,
)
from qwalk.qmeasure import enumerate_precluded, preclusion_count
from qwalk.quadratic import SetSystem

SRC = Path(qwalk.__file__).resolve().parent

# (module, function) that may build a ResourceLimitError: the check itself,
# the interpreter's digit limit, the chosen limit-table length and the
# at-most-K table cap a benchmark probe pins
NOT_CHARGED = {
    ("errors", "charge"),
    ("cli", "_fraction_doc"),
    ("cylinder", "limit_term"),
    ("cylinder", "limit_mu_hat"),
    ("cylinder", "_capped_at_most_censuses"),
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


class Accepted(BaseException):
    """Raised in place of the work once an operation's charge has passed."""


def distinct_variable(n: int) -> RandomVariable:
    return RandomVariable(PathSpace(n), tuple(random.Random(n).sample(range(1, 1 << 20), 1 << n)))


def disjoint_triple(n: int):
    space = PathSpace(n)
    units = [(0,) * j + (1,) + (0,) * (space.size - j - 1) for j in range(3)]
    return (DecoherenceState(space), *(RandomVariable(space, u) for u in units))


# (id, module whose charge stops the work of the accepted input, or None to
# run it; the largest input accepted before; the first input refused; its units)
CHARGED = [
    ("event mask", None,
     lambda: Event.empty(PathSpace(24)), lambda: Event.empty(PathSpace(25)), 1 << 25),
    ("dense sign grid", decoherence,
     lambda: DecoherenceState(PathSpace(12)).dense_signs(),
     lambda: DecoherenceState(PathSpace(13)).dense_signs(), 1 << 26),
    ("residue table", paths, lambda: change_residues(20), lambda: change_residues(21), 16 << 21),
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
    ("at-most-12 hull", cylinder,
     lambda: approximant_indices(AtMostKOnes(12), 20),
     lambda: approximant_indices(AtMostKOnes(12), 21), 16 * (sum(at_most_census_oracle(21, 12)) + 1)),
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

        def charged(units, what, budget=BUDGET):
            errors.charge(units, what, budget)
            raise Accepted(units)

        monkeypatch.setattr(module, "charge", charged)
    try:
        accepted()
    except Accepted as stop:
        assert stop.args[0] <= BUDGET
