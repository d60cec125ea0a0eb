"""End-to-end metrics from untraced rounds, per-layer metrics from spans."""

from __future__ import annotations

from statistics import median

from .harness import Round, Tracer, percentile, tail_percentile
from .verify import PATHS_CHECKS, QUADRATIC_CHECKS

LAYERS = ("decoherence", "qmeasure", "qintegral", "cylinder", "verify", "paths", "quadratic")
QMEASURE_CALLS = ("mu", "grade2_check", "regularity_check", "interference", "enumerate_precluded")
INTEGRAL_ROUTES = ("trace", "definition", "eigen")
BLOCK_AND_CLOSED_FORMS = (
    "cylinder.repeated_block_measures",
    "cylinder.repeated_block_verdict",
    "cylinder.variation_lower_bound",
    "cylinder.complement_of_constant_closed_form",
)


def fastest_round_s(rounds: list[Round], per_op: str) -> float:
    """Seconds of the fastest round: each op's fastest time over the rounds,
    summed over the round's ops.

    On a shared machine other tenants' load slows this process for moments
    of a few milliseconds to phases of several seconds, and slows some
    rounds of an op and not others.  Load can only add time, so an op's
    fastest time over many rounds is its least disturbed one; it moved less
    from run to run than the op's median or mean time (see README, *Noise*).
    A round run only once reads its own times.
    """
    return sum(map(min, zip(*(getattr(r, per_op) for r in rounds))))


def end_to_end(setups: list[float], rounds: list[Round], ops_per_round: int, rss_mb: float) -> dict:
    """Set-up is the fastest of the set-ups; wall and CPU time are those of
    the fastest round (see ``fastest_round_s``)."""
    wall = fastest_round_s(rounds, "latencies")
    return {
        "setup_s": min(setups),
        "wall_s": wall,
        "ops_per_s": ops_per_round / wall,
        "cpu_s": fastest_round_s(rounds, "cpu_times"),
        "peak_rss_mb": rss_mb,
    }


def latency(rounds: list[Round], ops: range) -> dict:
    """Median and tail latency of the ops in ``ops``; the tail percentile is
    fixed by their number (see ``tail_percentile``) and stated with the
    sample count."""
    samples = [r.latencies[i] for r in rounds for i in ops]
    out = {"op_p50_ms": median(samples) * 1e3, "op_samples": len(samples)}
    p = tail_percentile(len(ops))
    if p is not None:
        out["op_tail_ms"] = percentile(samples, p) * 1e3
        out["op_tail_percentile"] = p
        out["op_tail_beyond"] = sum(1 for s in samples if s * 1e3 > out["op_tail_ms"])
    return out


def per_layer(tracer: Tracer, plain: list[Round], traced: list[Round], check_names) -> dict:
    """Per-layer numbers, each per traced round (set-up ones per set-up)."""
    k = len(traced)
    busy = tracer.self_times()
    calls = tracer.call_counts()
    counts = tracer.counts
    setup = tracer.self_times(include_setup=True)

    def b(*names):
        return sum(busy[n] for n in names) / k

    def c(*names):
        return sum(calls[n] for n in names) / k

    def per_round(name):
        return counts[name] / k

    def prefixed(table, prefix):
        return [n for n in table if n.startswith(prefix)]

    def ratio(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    m: dict[str, float] = {}

    dec = prefixed(calls, "decoherence.")
    m["decoherence.state_build_s"] = setup["decoherence.state_build"]
    m["decoherence.calls"] = c(*dec)
    m["decoherence.busy_s"] = b(*dec)
    m["decoherence.mask_bits"] = per_round("decoherence.mask_bits")
    m["decoherence.members"] = per_round("decoherence.members")
    m["decoherence.member_ratio"] = ratio(m["decoherence.members"], m["decoherence.mask_bits"])
    m["decoherence.ns_per_mask_bit"] = ratio(m["decoherence.busy_s"], m["decoherence.mask_bits"], 1e9)

    for name in QMEASURE_CALLS:
        spans = [f"qmeasure.{name}"] + (["qmeasure.pair_measure"] if name == "interference" else [])
        m[f"qmeasure.{name}.calls"] = c(*spans)
        m[f"qmeasure.{name}.busy_s"] = b(*spans)
    walked = per_round("qmeasure.enumerate_precluded.subsets_walked")
    m["qmeasure.enumerate_precluded.subsets_walked"] = walked
    m["qmeasure.enumerate_precluded.hit_ratio"] = ratio(
        per_round("qmeasure.enumerate_precluded.found"), walked
    )

    routes = [f"qintegral.integral.{r}" for r in INTEGRAL_ROUTES]
    m["qintegral.variable_build_s"] = setup["qintegral.variable_build"]
    m["qintegral.integral.calls"] = c(*routes)
    for route, span in zip(INTEGRAL_ROUTES, routes):
        m[f"qintegral.integral.{route}.busy_s"] = b(span)
    m["qintegral.values"] = per_round("qintegral.values")
    m["qintegral.levels"] = per_round("qintegral.levels")
    m["qintegral.ns_per_value"] = ratio(b(*routes), m["qintegral.values"], 1e9)

    tables = prefixed(calls, "cylinder.limit_mu_hat.")
    terms = prefixed(calls, "cylinder.limit_term.")
    m["cylinder.limit_mu_hat.calls"] = c(*tables)
    m["cylinder.limit_mu_hat.busy_s"] = b(*tables)
    m["cylinder.limit.at_most.busy_s"] = b(*[n for n in tables + terms if n.endswith(".at_most")])
    m["cylinder.limit.other.busy_s"] = b(*[n for n in tables + terms if n.endswith(".other")])
    m["cylinder.limit_term.calls"] = c(*terms)
    m["cylinder.limit_term.busy_s"] = b(*terms)
    m["cylinder.levels"] = per_round("cylinder.levels")
    m["cylinder.at_most.members"] = per_round("cylinder.at_most.members")
    m["cylinder.at_most.refused"] = per_round("cylinder.at_most.refused")
    m["cylinder.block_and_closed_forms.busy_s"] = b(*BLOCK_AND_CLOSED_FORMS)

    for name in check_names:
        m[f"verify.{name}.busy_s"] = b(f"verify.{name}")
    m["verify.checks"] = per_round("verify.checks")
    m["verify.failed"] = per_round("verify.failed")
    m["paths.busy_s"] = b(*[f"verify.{n}" for n in PATHS_CHECKS])
    m["quadratic.busy_s"] = b(*[f"verify.{n}" for n in QUADRATIC_CHECKS])

    mean_wall = sum(r.wall_s for r in traced) / k
    layer_busy = {layer: 0.0 for layer in LAYERS}
    for name, seconds in busy.items():
        layer = name.split(".")[0]
        if layer in layer_busy:
            layer_busy[layer] += seconds / k
    layer_busy["paths"] = m["paths.busy_s"]
    layer_busy["quadratic"] = m["quadratic.busy_s"]
    for layer, seconds in layer_busy.items():
        m[f"{layer}.share"] = ratio(seconds, mean_wall)
    m["trace.wall_s"] = median(r.wall_s for r in traced)
    m["trace.overhead_ratio"] = m["trace.wall_s"] / median(r.wall_s for r in plain)
    return m
