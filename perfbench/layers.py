"""Per-layer micro-timings of fptsim's public functions, each timed in isolation.

Inputs are those of the workload that leans on the function: sine at L=2 with
kappa=5 (proposal gaps, Poisson horizons, bridge horizons near T=10, the y
range L - R_t visited), the split-20 config for validation, the a3 horizon
t0=1 for the truncated proposal.  Each per-call figure is the median over
REPEATS loops of the mean time per call, Python loop overhead included, each
loop scaled to the reference speed by a calibration right after it.
"""

import math
import statistics
import time
from functools import partial

import numpy as np

import configs
import speed

REPEATS = 5
SEED = 99  # micro-timing streams use ids 990 and up, which no workload uses


def _median_scaled(measure, repeats=REPEATS):
    """Median over repeats of measure()'s seconds, each scaled to the reference speed."""
    return statistics.median(measure() * speed.scale([speed.calibrate()])
                             for _ in range(repeats))


def _per_call(body, n):
    """Median over REPEATS of the mean scaled seconds per call of body() over n calls."""
    def measure():
        t0 = time.perf_counter()
        for _ in range(n):
            body()
        return (time.perf_counter() - t0) / n
    return _median_scaled(measure)


def _median_wall(fn, repeats):
    def measure():
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0
    return _median_scaled(measure, repeats)


def rng_layer(F, tracer):
    out = {}
    base = F.RandomStream(SEED, 990)
    with tracer.span("rng.stream_new", "rng"):
        ids = iter(range(10**9))
        out["rng.stream_new_us"] = 1e6 * _per_call(lambda: base.substream(next(ids)), 2000)

    def first_draws():
        # three 1024-element refills on a fresh stream, construction excluded
        streams = [base.substream(-1, i) for i in range(300)]
        t0 = time.perf_counter()
        for s in streams:
            s.normal()
            s.exponential(1.0)
            s.uniform()
        return (time.perf_counter() - t0) / len(streams)

    with tracer.span("rng.first_draw", "rng"):
        out["rng.first_draw_us"] = 1e6 * _median_scaled(first_draws)
    s = base.substream(-2)
    with tracer.span("rng.scalars", "rng"):
        out["rng.normal_ns"] = 1e9 * _per_call(s.normal, 100000)
        out["rng.exponential_ns"] = 1e9 * _per_call(partial(s.exponential, 0.2), 100000)
        out["rng.uniform_ns"] = 1e9 * _per_call(s.uniform, 100000)
    with tracer.span("rng.proposals", "rng"):
        out["rng.proposal_bm_ns"] = 1e9 * _per_call(partial(F.draw_brownian_fpt, s, 2.0), 30000)
        # a1-shift on sine at L=2: gamma0 = 0.25, mu = gap / sqrt(2 gamma0), lambda = gap^2
        out["rng.proposal_ig_ns"] = 1e9 * _per_call(
            partial(F.draw_inverse_gaussian, s, 2.0 / math.sqrt(0.5), 4.0), 30000)
        out["rng.proposal_trunc_ns"] = 1e9 * _per_call(
            partial(F.draw_truncated_brownian_fpt, s, 1.0, 1.0), 30000)
    return out


def bridge_layer(F, tracer):
    out = {}
    s = F.RandomStream(SEED, 991)
    n = 30000
    times = [0.2 * (k + 1) for k in range(n)]

    def advance():
        state = F.SequentialBridgeState(0.2 * n + 10.0)
        t0 = time.perf_counter()
        for t in times:
            F.sequential_advance(state, t, s)
        return (time.perf_counter() - t0) / n

    with tracer.span("bridge.advance", "bridge"):
        out["bridge.advance_ns"] = 1e9 * _median_scaled(advance)

    def insert(knots, m=1000):
        skels = []
        for _ in range(m):
            skel = F.BridgeSkeleton(10.0, 2.0)
            while len(skel) < knots:
                F.bisect_insert(skel, s.uniform(10.0), s)
            skels.append(skel)
        us = [s.uniform(10.0) for _ in range(m)]
        t0 = time.perf_counter()
        for skel, u in zip(skels, us):
            F.bisect_insert(skel, u, s)
        return (time.perf_counter() - t0) / m

    with tracer.span("bridge.insert", "bridge"):
        out["bridge.insert_ns_k8"] = 1e9 * _median_scaled(partial(insert, 8))
        out["bridge.insert_ns_k64"] = 1e9 * _median_scaled(partial(insert, 64))
    with tracer.span("bridge.bessel_norm", "bridge"):
        out["bridge.bessel_norm_ns"] = 1e9 * _per_call(
            partial(F.bessel_norm, 2.0, 10.0, 3.0, (0.1, -0.2, 0.3)), 100000)
    return out


def drift_layer(F, tracer):
    out = {}
    # y = L - R_t over the range the scans visit for each model
    fields = {
        "sine": (F.sine_drift(), -3.0, 2.0),
        "neg-arctan": (F.neg_arctan_drift(), -2.0, 1.0),
        "ou-trunc5": (F.truncate_drift(F.ou_drift(0.3, 1.0), 5.0), -7.0, 1.0),
        "constant": (F.constant_drift(1.0), -3.0, 2.0),
    }
    with tracer.span("drift.gamma", "drift"):
        for label, (model, lo, hi) in fields.items():
            gamma = F.gamma_fn(model)
            ys = np.linspace(lo, hi, 50000).tolist()

            def loop():
                t0 = time.perf_counter()
                for y in ys:
                    gamma(y)
                return (time.perf_counter() - t0) / len(ys)

            out[f"drift.gamma_ns.{label}"] = 1e9 * _median_scaled(loop)
    # the certification the CLI runs for sine at L=2: grid step 1e-3 over [-3000, 2]
    sine = F.sine_drift()
    cert = F.BoundCertificate(kappa=5.0, domain_hint=F.default_domain_hint(2.0))
    with tracer.span("drift.scan_gamma_range", "drift"):
        out["drift.scan_s"] = _median_wall(lambda: F.scan_gamma_range(sine, 2.0), 3)
    with tracer.span("drift.certify_bounds", "drift"):
        out["drift.certify_s"] = _median_wall(
            lambda: F.certify_bounds(F.GammaField(sine), cert, level=2.0), 3)
    return out


def samplers_layer(F, tracer):
    out = {}
    config = configs.build(F, "sine-split20")
    with tracer.span("samplers.validate_config", "samplers"):
        out["samplers.validate_ns"] = 1e9 * _per_call(partial(F.validate_config, config), 20000)
    s = F.RandomStream(SEED, 992)
    with tracer.span("samplers.poisson_time_points", "samplers"):
        out["samplers.poisson_points_us"] = 1e6 * _per_call(
            partial(F.poisson_time_points, s, 2.0, 5.0), 20000)
    return out


def harness_layer(F, tracer, reference):
    out = {}
    values = np.random.default_rng(SEED).exponential(size=10000)
    with tracer.span("harness.two_sample_ks", "harness"):
        out["harness.ks_ms"] = 1e3 * _median_wall(lambda: F.two_sample_ks(values, reference),
                                                  REPEATS)
    config = configs.build(F, "sine-a1")
    with tracer.span("harness.delta_compare", "harness"):
        before = speed.calibrate()
        t0 = time.perf_counter()
        report = F.delta_compare(config, 100, F.RandomStream(SEED, 993))
        elapsed = (time.perf_counter() - t0) * speed.scale([before, speed.calibrate()])
    out["harness.compare_variates_per_s"] = report.n * (report.mean_n1 + report.mean_n2) / elapsed
    return out


def cli_layer(tracer, run_cli):
    """CLI fixed cost and 2-worker efficiency.

    run_cli(n, workers, streams) returns a call's wall seconds at the reference speed."""
    out = {}
    with tracer.span("cli.fixed", "cli"):
        out["cli.fixed_s"] = run_cli(1, 1, 994)
    with tracer.span("cli.parallel", "cli"):
        one = run_cli(600, 1, 995)
        two = run_cli(600, 2, 995)
    out["cli.parallel_eff"] = one / (2.0 * two)
    return out


def src_lines(root):
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((root / "src" / "fptsim").rglob("*.py")))
