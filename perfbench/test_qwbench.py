"""Tests of the benchmark itself, on small plans of each workload.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from qwbench import harness, integral, limits, measure, metrics, oracles, verify

qw = harness.load_qwalk()

SMALL = {
    "measure": (measure, {"horizons": (4, 8), "preclusion": ((3, None), (5, 2))}),
    "integral": (integral, {"horizons": {6: 1, 8: 1}}),
    "limits": (limits, {"at_most": ((1, 40), (2, 24)), "full_level": 40, "probes": ((3, 182),)}),
}


def small(name: str, seed: int = 1, timed=harness.untimed) -> harness.Workload:
    module, plan = SMALL[name]
    return module.build(qw, seed, timed, **plan)


def tally_of(ops, rounds) -> harness.Tally:
    checker = harness.Checker(ops)
    for rnd in rounds:
        checker.add(rnd)
    tally = harness.Tally()
    checker.tally(tally)
    return tally


@pytest.mark.parametrize("name", sorted(SMALL))
def test_same_seed_same_inputs_and_other_seeds_differ(name):
    first, again, other = small(name, 7), small(name, 7), small(name, 8)
    assert first.digest == again.digest
    assert first.op_counts() == again.op_counts() == other.op_counts()
    assert first.digest != other.digest


@pytest.mark.parametrize("name", sorted(SMALL))
def test_small_workloads_check_clean(name):
    wl = small(name)
    tally = tally_of(wl.ops, [harness.run_round(wl.ops), harness.run_round(wl.ops)])
    assert tally.failed == 0, tally.failures
    assert tally.attempted == 2 * len(wl.ops)


def test_combined_workload_runs_its_parts_in_turn():
    parts = [small("measure"), small("limits"), small("integral")]
    wl = harness.combine("mixed", parts)
    assert wl.ops == parts[0].ops + parts[1].ops + parts[2].ops
    assert wl.traced_ops == wl.traced_plain_ops == wl.ops
    n0, n1 = len(parts[0].ops), len(parts[1].ops)
    assert wl.latency_ops == {"measure": range(n0), "integral": range(n0 + n1, len(wl.ops))}
    assert wl.digest == harness.combine("mixed", [small("measure"), small("limits"), small("integral")]).digest
    assert wl.digest != harness.combine("mixed", parts[:1] + [small("limits", 2)] + parts[2:]).digest
    suite = verify.build(qw, 1)
    both = harness.combine("queries", [parts[0], suite])
    assert both.traced_ops == parts[0].ops + suite.traced_ops
    assert both.traced_plain_ops == parts[0].ops + suite.traced_plain_ops


def test_refused_probe_is_counted_apart_from_failures():
    wl = small("limits")
    tally = tally_of(wl.ops, [harness.run_round(wl.ops)])
    assert (tally.failed, tally.refused) == (0, 1)


def test_corrupted_expected_value_is_a_failure():
    wl = small("integral")
    first = wl.ops[0]
    expected = first.check.__self__
    expected.value = Fraction(-1, 3)  # no variable here integrates to this
    sharing = [op for op in wl.ops if op.check.__self__ is expected]
    tally = tally_of(wl.ops, [harness.run_round(wl.ops)])
    assert tally.failed == len(sharing) >= 2
    assert all("layered-sum oracle" in f for f in tally.failures)


def test_corrupted_result_and_changed_result_are_failures():
    wl = small("measure")
    i = next(k for k, op in enumerate(wl.ops) if op.kind == "mu")
    first, second = harness.run_round(wl.ops), harness.run_round(wl.ops)
    (value,) = first.outcomes[i]
    second.outcomes[i] = (value + 1,)
    assert tally_of(wl.ops, [first, second]).failed == 1
    third = harness.run_round(wl.ops)
    third.outcomes[i] = (value + 1,)
    assert tally_of(wl.ops, [third]).failed == 1


def test_verify_summary_check():
    wl = verify.build(qw, 1)
    (op,) = wl.traced_plain_ops
    total = len(qw.verify.CHECKS)
    assert op.check(((0, f"PASS x\n{total}/{total} checks passed\n"),)) == harness.OK
    assert op.check(((1, f"FAIL x\n{total - 1}/{total} checks passed\n"),)) != harness.OK
    assert len(wl.traced_ops[0].calls) == total
    assert len(wl.ops) == total - len(verify.LONG_CHECKS)
    assert wl.ops[0].check(("pass",)) == harness.OK
    assert wl.ops[0].check(("CheckFailure: wrong",)) != harness.OK


def test_traced_round_spans_and_layer_metrics():
    tracer = harness.Tracer("measure")
    tracer.begin_setup()
    wl = small("measure", timed=tracer.timed)
    tracer.end_setup()
    plain = [harness.run_round(wl.ops)]
    traced = [tracer.run_round(wl.ops), tracer.run_round(wl.ops)]
    assert tally_of(wl.ops, traced).failed == 0
    ops = {op_id: name for name, _, _, op_id, _ in tracer.spans if name.startswith("op.")}
    for name, start, end, op_id, parent in tracer.spans:
        assert start <= end
        assert parent == ("measure" if name.startswith("op.") else ops[op_id])
    assert sum(tracer.self_times().values()) <= sum(r.wall_s for r in traced)

    names = [name for name, _ in qw.verify.CHECKS]
    m = metrics.per_layer(tracer, plain, traced, names)
    declared = json.loads((harness.ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {d["name"] for d in declared} <= set(m)
    per_round = {op.kind: 0 for op in wl.ops}
    for op in wl.ops:
        per_round[op.kind] += 1
    assert m["qmeasure.mu.calls"] == per_round["mu"]
    assert m["decoherence.calls"] == per_round["functional"] + per_round["vector_measure"]
    assert m["decoherence.state_build_s"] > 0
    assert 0 < m["qmeasure.share"] < 1


def test_end_to_end_times_are_the_fastest_rounds():
    rounds = [
        harness.Round([], [0.5, 0.1], 0.6, [0.4, 0.1]),
        harness.Round([], [0.2, 0.3], 0.5, [0.2, 0.2]),
        harness.Round([], [0.4, 0.2], 0.6, [0.3, 0.3]),
    ]
    m = metrics.end_to_end([0.9, 0.4, 0.6], rounds, 2, 30.0)
    assert m["setup_s"] == 0.4
    assert m["wall_s"] == pytest.approx(0.3)
    assert m["ops_per_s"] == pytest.approx(2 / 0.3)
    assert m["cpu_s"] == pytest.approx(0.3)
    assert metrics.end_to_end([1.0], rounds[:1], 2, 30.0)["wall_s"] == pytest.approx(0.6)


def test_tail_percentile_leaves_ten_samples_beyond():
    assert harness.tail_percentile(229) == 95.0
    assert harness.tail_percentile(112) == 90.0
    assert harness.tail_percentile(1000) == 99.0
    assert harness.tail_percentile(14) is None
    assert harness.percentile([3.0, 1.0, 2.0, 4.0], 50) == 2.0


def test_oracles_agree_with_the_library():
    table = oracles.ResidueTable()
    for n in range(1, 9):
        state = qw.DecoherenceState(qw.PathSpace(n))
        full = qw.Event.full(state.space)
        assert table.census(n, full.mask) == state.census(full) == table.profile(n)
        assert oracles.census_tables(n)[-1] == qw.change_residue_counts(n)
    for k in range(4):
        tables = oracles.census_tables(12, k)
        for n in range(1, 13):
            assert oracles.measure_of(tables[n - 1], n) == qw.limit_term(qw.AtMostKOnes(k), n).as_fraction()
    assert oracles.precluded_count(table.profile(3), None) == 15
    assert oracles.precluded_count(table.profile(4), None) == 1959
