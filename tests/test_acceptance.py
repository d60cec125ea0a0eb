"""Acceptance gate: one test per criterion, each printing its own pass line.

Every numeric claim is exact (integer / rational comparison) except the
limit-verdict tolerances, which are stated inline.  Timed criteria measure
the best of several runs after a warmup to keep scheduler noise out.
"""

import time
from fractions import Fraction

import pytest

from qwalk.cylinder import (
    ALL_ZEROS,
    AtMostKOnes,
    ComplementOfFinitePathSet,
    CylinderEvent,
    LimitVerdict,
    complement_of_constant_closed_form,
    limit_mu_hat,
    limit_term,
    mu_cyl,
    refine,
    repeated_block_measures,
    repeated_block_verdict,
    variation_lower_bound,
)
from qwalk.decoherence import DecoherenceState, Event
from qwalk.paths import PathSpace
from qwalk.qintegral import IntegralStrategy, RandomVariable, integral
from qwalk.qmeasure import enumerate_precluded, interference, mu
from qwalk.quadratic import (
    cardinality_squared_table,
    is_q_measure,
    is_quadratic_algebra,
    odd_count_system,
    three_type_system,
)
from qwalk import verify as verify_module


def report(criterion: str, detail: str = "") -> None:
    line = f"PASS {criterion}"
    if detail:
        line += f" ({detail})"
    print(line)


def best_time(fn, repeats: int = 5) -> float:
    fn()  # warmup
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def state(n: int) -> DecoherenceState:
    return DecoherenceState(PathSpace(n))


def event(n: int, indices) -> Event:
    return Event.from_indices(PathSpace(n), indices)


def test_criterion_01_two_step_measure_table():
    st = state(2)
    table = {
        (0, 2): Fraction(0),
        (0, 1): Fraction(1, 2),
        (0, 3): Fraction(1, 2),
        (1, 2): Fraction(1, 2),
        (2, 3): Fraction(1, 2),
        (1, 3): Fraction(1),
        (0, 1, 2): Fraction(1, 4),
        (0, 1, 3): Fraction(5, 4),
        (1, 2, 3): Fraction(5, 4),
        (0, 1, 2, 3): Fraction(1),
    }
    interference_table = {
        (0, 2): Fraction(-1, 2),
        (1, 3): Fraction(1, 2),
    }

    def run():
        for indices, want in table.items():
            assert mu(st, event(2, indices)).as_fraction() == want
        for i in range(4):
            for j in range(i + 1, 4):
                got, _ = interference(st, i, j)
                assert got.as_fraction() == interference_table.get((i, j), Fraction(0))

    elapsed = best_time(run)
    assert elapsed < 1e-3, f"measure table took {elapsed * 1e3:.3f} ms"
    report("criterion-01 two-step measure and interference table", f"{elapsed * 1e6:.0f} us")


def test_criterion_02_three_step_matrix():
    signs = [
        [1, 0, -1, 0, -1, 0, -1, 0],
        [0, 1, 0, 1, 0, -1, 0, 1],
        [-1, 0, 1, 0, 1, 0, 1, 0],
        [0, 1, 0, 1, 0, -1, 0, 1],
        [-1, 0, 1, 0, 1, 0, 1, 0],
        [0, -1, 0, -1, 0, 1, 0, -1],
        [-1, 0, 1, 0, 1, 0, 1, 0],
        [0, 1, 0, 1, 0, -1, 0, 1],
    ]
    st = state(3)
    for j in range(8):
        for k in range(8):
            assert st.entry(j, k).as_fraction() == Fraction(signs[j][k], 8)
    report("criterion-02 three-step matrix entries, entrywise exact")


def test_criterion_03_preclusion_census_n3():
    st = state(3)

    def run():
        return enumerate_precluded(st)

    found = run()
    elapsed = best_time(run)
    doubles = [ev.to_tuple() for ev in found if ev.cardinality == 2]
    assert doubles == [(0, 2), (0, 4), (0, 6), (1, 5), (3, 5), (5, 7)]
    quads = {ev.to_tuple() for ev in found if ev.cardinality == 4}
    listed = [
        (0, 2, 1, 5), (0, 2, 3, 5), (0, 2, 5, 7),
        (0, 4, 1, 5), (0, 4, 3, 5), (0, 4, 5, 7),
        (0, 6, 1, 5), (0, 6, 3, 5), (0, 6, 5, 7),
    ]
    assert quads == {tuple(sorted(q)) for q in listed} and len(quads) == 9
    assert all(ev.cardinality % 2 == 0 and ev.cardinality <= 4 for ev in found)
    assert len(found) == 15
    assert elapsed < 10e-3, f"census took {elapsed * 1e3:.2f} ms"
    report("criterion-03 preclusion census over all 256 subsets", f"{elapsed * 1e3:.2f} ms")


def test_criterion_04_four_step_members_and_refinements():
    st4 = state(4)
    assert mu(st4, event(4, [0, 2, 4, 10])).is_zero()
    start = CylinderEvent.from_indices(2, (0, 2))
    level3 = refine(start, 3)
    assert level3.base.to_tuple() == (0, 1, 4, 5)
    assert mu_cyl(level3).is_zero()
    level4 = refine(start, 4)
    assert level4.base.to_tuple() == tuple(sorted([0, 8, 2, 10, 1, 9, 3, 11]))
    assert mu_cyl(level4).is_zero()
    report("criterion-04 four-step preclusion and measure-zero refinements")


def test_criterion_05_complement_closed_form_and_limit():
    def run():
        ev = ComplementOfFinitePathSet((ALL_ZEROS,))
        for n in range(1, 25):
            assert limit_term(ev, n) == complement_of_constant_closed_form(n)
        rep = limit_mu_hat(ev, 48, tol=1e-6)
        assert rep.verdict is LimitVerdict.CONVERGED
        assert abs(rep.estimate - 1.0) <= 1e-6
        assert rep.at_n is not None and rep.at_n <= 48
        return rep

    start = time.perf_counter()
    rep = run()
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"closed-form suite took {elapsed:.2f} s"
    report(
        "criterion-05 complement closed form (n<=24) and limit 1",
        f"converged at n={rep.at_n}, {elapsed * 1e3:.0f} ms",
    )


def test_criterion_06_block_product_growth():
    start = time.perf_counter()
    terms = repeated_block_measures(3)
    for term in terms:
        assert term.provenance == "direct"
        assert term.value == Fraction(9, 8) ** term.index
    verdict = repeated_block_verdict()
    elapsed = time.perf_counter() - start
    assert verdict is LimitVerdict.DIVERGED
    assert elapsed < 1.0, f"block products took {elapsed:.2f} s"
    report("criterion-06 block-product growth (9/8)^i and divergence", f"{elapsed * 1e3:.0f} ms")


def test_criterion_07_variation_bound():
    for n in range(1, 31):
        assert variation_lower_bound(n) == 1 << n
    report("criterion-07 variation lower bound 2**n for n <= 30")


def test_criterion_08_at_most_one_sequence():
    ev = AtMostKOnes(1)
    for n in range(1, 21):
        direct = mu(state(n), Event.from_indices(PathSpace(n), {0} | {1 << b for b in range(n)}))
        want = Fraction(n * n - 4 * n + 5, 1 << n)
        assert limit_term(ev, n).as_fraction() == want == direct.as_fraction()
    assert float(limit_term(ev, 30)) < 1e-6
    rep = limit_mu_hat(ev, 40, tol=1e-6)
    assert rep.verdict is LimitVerdict.CONVERGED and abs(rep.estimate) < 1e-6
    report("criterion-08 at-most-one-1 measures (n**2-4n+5)/2**n, limit 0")


def test_criterion_09_integral_table():
    expected = {
        ("ones", 1): Fraction(1, 2),
        ("ones", 2): Fraction(3, 2),
        ("ones", 3): Fraction(2),
        ("changes", 1): Fraction(1, 2),
        ("changes", 2): Fraction(3, 2),
        ("changes", 3): Fraction(3),
    }
    for (which, n), want in expected.items():
        st = state(n)
        f = RandomVariable.ones(st.space) if which == "ones" else RandomVariable.changes(st.space)
        for strategy in IntegralStrategy:
            assert integral(st, f, strategy) == want
    report("criterion-09 all six integrals under all three strategies")


@pytest.fixture(scope="module")
def verify_run():
    """The whole reproduction suite, run once for this module, and its wall time."""
    start = time.perf_counter()
    results = verify_module.run_checks()
    return results, time.perf_counter() - start


def test_criterion_10_property_suites_and_runtime(verify_run):
    named = [
        "strategy-agreement-exhaustive",  # three routes, all events, n <= 4
        "strategy-agreement-random",  # 10**4 random events, n <= 16
        "grade2-regularity-exhaustive",  # n <= 3, every disjoint split
        "composition-laws",  # n <= 8 exhaustive
        "reflection-recurrence",  # n <= 12
        "shift-recurrence",  # n <= 12
        "eigen-equation",  # exact, n <= 10
        "psd-min-matrix",
        "min-matrix-dets",
        "disjoint-support-identities",  # 100 random triples
    ]
    by_name = dict(verify_module.CHECKS)
    missing = [name for name in named if name not in by_name]
    assert not missing, f"suite misses checks: {missing}"

    results, elapsed = verify_run
    assert [r.name for r in results] == [name for name, _ in verify_module.CHECKS]
    failures = [f"{r.name}: {r.detail}" for r in results if not r.passed]
    assert not failures, "verification failures:\n" + "\n".join(failures)
    assert elapsed < 60.0, f"full verification took {elapsed:.1f} s"
    report(
        "criterion-10 property suites green, full verification under 60 s",
        f"{len(results)} checks in {elapsed:.1f} s",
    )


@pytest.mark.parametrize("name", [name for name, _ in verify_module.CHECKS])
def test_verify_check(verify_run, name):
    results, _ = verify_run
    result = next(r for r in results if r.name == name)
    assert result.passed, f"{name} failed after {result.seconds:.3f} s: {result.detail}"


def test_criterion_11_quadratic_builtins():
    system, table = three_type_system()
    ok, witness = is_quadratic_algebra(system)
    assert ok and witness is None
    ok, witness = is_q_measure(system, table)
    assert ok and witness is None
    a = sum(1 << e for e in (3, 0, 1))
    b = sum(1 << e for e in (4, 5, 6))
    assert table[a] + table[b] == Fraction(1, 3)
    assert table[a | b] == Fraction(1, 2)
    assert table[a] + table[b] != table[a | b]
    odd = odd_count_system()
    ok, witness = is_quadratic_algebra(odd)
    assert ok and witness is None
    ok, witness = is_q_measure(odd, cardinality_squared_table(odd))
    assert ok and witness is None
    report("criterion-11 worked set systems: algebra, q-measure, non-additivity")
