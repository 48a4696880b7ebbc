"""One benchmark workload in its own process; run.py starts it and reads its last output line.

    python3 perfbench/workload.py --workload deep-a1 --seed 1 --seconds 10 --trace 0 \
        --deadline <time.monotonic() value by which the process ends its CLI calls>

The last line of standard output is one JSON object: the monotonic time of
the first sampling call, the rate of every timed round, operation counts,
law-check results and peak RSS, plus the per-layer metrics with --trace 1.
With --setup-only the process stops at its first sampling call.
"""

import argparse
import contextlib
import csv
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import configs
import gate
import layers
import spec
import speed
from proc import run_child
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

# A round is one sample_batch block of each listed (config, draws); block sizes
# give each config of the mix a comparable share of the time.
ROUNDS = {
    "deep-a1": [("sine-a1", 250)],
    "short-draws": [("sine-split20", 20), ("neg-arctan-a3", 375), ("ou-rho5", 300)],
}
# every run makes at least this many rounds, and only their draws are kept for the
# law gate and the exact counters: later rounds are counted and checked draw by
# draw but not kept, so the memory the benchmark holds does not grow with speed
MIN_ROUNDS = {"deep-a1": 16, "short-draws": 20}
# the config whose acceptance rate is tested against the iteration identity
IDENTITY_CONFIG = {"deep-a1": "sine-a1", "short-draws": "ou-rho5"}
STREAM_ID = {"sine-a1": 1, "sine-split20": 2, "neg-arctan-a3": 3, "ou-rho5": 4,
             "compare": 5, "cli": 10, "cli-setup": 100, "probe": 7}
COMPARE_BLOCK = 100
PROBE_DRAWS = 1000
# the CLI call of cli-a2; set-up is timed at one draw per worker
CLI_ARGS = ["sample", "--model", "sine", "--level", "2", "--variant", "a2"]
CLI_WORKERS = 2
CLI_N = 6000
CLI_SETUP_N = 2
CLI_SETUP_REPEATS = 5
# every run makes at least this many CLI calls; only their rows are kept
CLI_MIN_CALLS = 2


def _import_fptsim(tracer):
    with tracer.span("import fptsim", "import"):
        return importlib.import_module("fptsim")


def _peak_rss_mb(who):
    return resource.getrusage(who).ru_maxrss / 1024.0


def _nth(values, q):
    """The observed value at quantile q (inverted CDF), so counts stay whole."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _counters(F, iterations, n_sigma, identity_iters, identity_config):
    out = {}
    for key, values in (("iterations", iterations), ("n_sigma", n_sigma)):
        out[f"samplers.{key}_mean"] = sum(values) / len(values)
        out[f"samplers.{key}_p50"] = _nth(values, 0.5)
        out[f"samplers.{key}_p99"] = _nth(values, 0.99)
        out[f"samplers.{key}_max"] = max(values)
    out["samplers.accept_rate"] = len(identity_iters) / sum(identity_iters)
    report = F.iteration_identity_check(identity_iters, configs.effective_model(F, identity_config),
                                        identity_config.x, identity_config.L)
    out["samplers.identity_z"] = report.z_score
    return out


def _count_streams(F, fn):
    """Number of RandomStream objects built while fn() runs."""
    cls = F.RandomStream
    original = cls.__init__
    built = 0

    def counting(self, *args, **kwargs):
        nonlocal built
        built += 1
        original(self, *args, **kwargs)

    cls.__init__ = counting
    try:
        fn()
    finally:
        cls.__init__ = original
    return built


def _bad_values(values):
    """Number of values that are no hitting time: not finite, or not above 0."""
    return sum(1 for v in values if not (v > 0.0 and math.isfinite(v)))


def _sample_block(F, config, n, base, start):
    """(draws, failed): one sample_batch call, redone draw by draw if it raises."""
    try:
        return F.sample_batch(config, n, base, start=start), 0
    except Exception:
        traceback.print_exc(file=sys.stderr)
    draws, failed = [], 0
    for i in range(start, start + n):
        try:
            draws.extend(F.sample_batch(config, 1, base, start=i))
        except Exception:
            failed += 1
    return draws, failed


def _timed_loop(tracer, seconds, min_rounds, one_round, calibrated=False):
    """Run rounds for `seconds` and at least min_rounds; with tracing, only odd rounds are traced.

    one_round(r, traced) returns (work done, seconds it was timed for); those
    seconds are scaled to the reference speed by the calibration loop run
    between rounds, unless one_round scaled them itself (calibrated=True).
    Returns the monotonic time of the first sampling call and per round a
    dict of work, scaled seconds and whether it was traced.  Comparing traced
    with untraced rounds of one run gives the tracing overhead.
    """
    if tracer.enabled:
        min_rounds = max(min_rounds, 2)
    t_first = time.monotonic()
    speed.warm_up()
    before = None if calibrated else speed.calibrate()
    deadline = t_first + seconds
    rounds = []
    r = 0
    while r < min_rounds or time.monotonic() < deadline:
        traced = tracer.enabled and r % 2 == 1
        # an untraced round has no spans inside; its own span keeps it out of bench
        with tracer.span(f"round {r}", "bench" if traced else "untraced"):
            work, elapsed = one_round(r, traced)
        record = {"work": work, "scaled_s": elapsed, "traced": traced}
        if not calibrated:
            after = speed.calibrate()
            record["scaled_s"] = elapsed * speed.scale([before, after])
            record["calib"] = (before + after) / 2.0
            before = after
        rounds.append(record)
        r += 1
    return t_first, rounds


def _rates(rounds, fixed_s=0.0):
    """(rate, traced) per round: work over its scaled seconds less fixed_s."""
    return [(r["work"] / (r["scaled_s"] - fixed_s), r["traced"]) for r in rounds]


# ---------------------------------------------------------------------------
# in-process sampling workloads: deep-a1 and short-draws
# ---------------------------------------------------------------------------


def _prepare(F, tracer, name, seed, stream_id):
    """Set-up of one config: model build, certification, validation, base stream."""
    with tracer.span(f"build {name}", "drift"):
        config = configs.build(F, name)
        model = configs.effective_model(F, config)
    with tracer.span(f"certify {name}", "drift"):
        report = F.certify_bounds(F.GammaField(model), config.cert, level=config.L)
    if not report.passed:
        raise RuntimeError(f"certificate failed for {name}:\n{report.text()}")
    with tracer.span(f"validate {name}", "samplers"):
        F.validate_config(config)
    with tracer.span(f"stream {name}", "rng"):
        return config, F.RandomStream(seed, stream_id)


def run_sampling(args, tracer):
    F = _import_fptsim(tracer)
    plan = ROUNDS[args.workload]
    prepared = {name: _prepare(F, tracer, name, args.seed, STREAM_ID[name]) for name, _ in plan}
    if args.setup_only:
        return {"t_first_sample": time.monotonic()}

    # per config: value, iterations and N_sigma of each kept draw, as plain numbers;
    # keeping the draw objects would slow the cyclic garbage collector as they pile up
    values = {name: [] for name, _ in plan}
    iters = {name: [] for name, _ in plan}
    n_sigma = {name: [] for name, _ in plan}
    # sums of iterations and N_sigma over every draw, for the per-unit costs
    totals = {"iterations": 0, "n_sigma": 0}
    failed = [0]
    kept_rounds = MIN_ROUNDS[args.workload]

    def one_round(r, traced):
        done = 0
        elapsed = 0.0
        for name, n in plan:
            config, base = prepared[name]
            span = tracer.span(f"sample_batch {name}", "samplers") if traced \
                else contextlib.nullcontext()
            t0 = time.monotonic()
            with span:
                got, bad = _sample_block(F, config, n, base, r * n)
            elapsed += time.monotonic() - t0
            block_values = [d.value for d in got]
            block_iters = [d.stats.iterations for d in got]
            block_n_sigma = [d.stats.total_points for d in got]
            totals["iterations"] += sum(block_iters)
            totals["n_sigma"] += sum(block_n_sigma)
            if r < kept_rounds:
                values[name].extend(block_values)
                iters[name].extend(block_iters)
                n_sigma[name].extend(block_n_sigma)
            failed[0] += bad + _bad_values(block_values)
            done += len(got)
        return done, elapsed

    t_first, rounds = _timed_loop(tracer, args.seconds, kept_rounds, one_round)
    result = {"t_first_sample": t_first, "rates": _rates(rounds),
              "calibs": [r["calib"] for r in rounds],
              "peak_rss_mb": _peak_rss_mb(resource.RUSAGE_SELF)}

    checks = []
    with tracer.span("law check", "harness"):
        for name, (config, _) in prepared.items():
            ref = gate.load_reference(configs.REFERENCE_OF[name])
            checks.append(gate.ks_check(F, f"{name}.ks", values[name], ref))
            if configs.has_identity(config):
                checks.append(gate.identity_check(
                    F, f"{name}.identity", iters[name],
                    configs.effective_model(F, config), config.x, config.L))
    attempted = sum(n for _, n in plan) * len(rounds)
    result["checks"] = checks
    result["attempted"], result["failed"] = gate.tally(attempted, failed[0], checks)

    if tracer.enabled:
        ident = IDENTITY_CONFIG[args.workload]
        lay = _counters(F, [i for name in iters for i in iters[name]],
                        [k for name in n_sigma for k in n_sigma[name]],
                        iters[ident], prepared[ident][0])
        sampling_s = sum(r["scaled_s"] for r in rounds)
        lay["samplers.ns_per_variate"] = 1e9 * sampling_s / totals["n_sigma"]
        lay["samplers.us_per_iteration"] = 1e6 * sampling_s / totals["iterations"]

        def count_round():
            for name, n in plan:
                config, base = prepared[name]
                F.sample_batch(config, min(n, 50), base)

        with tracer.span("count streams", "samplers"):
            built = _count_streams(F, count_round)
        lay["rng.streams_per_draw"] = built / sum(min(n, 50) for _, n in plan)
        result["layers"] = lay
    return F, result


# ---------------------------------------------------------------------------
# compare: the coupled a1-vs-a2 cost comparator
# ---------------------------------------------------------------------------


def run_compare(args, tracer):
    F = _import_fptsim(tracer)
    config, base = _prepare(F, tracer, "sine-a1", args.seed, STREAM_ID["compare"])
    if args.setup_only:
        return {"t_first_sample": time.monotonic()}

    # pooled sums over blocks: n, sum delta, sum delta^2, sum N1, sum N2
    pool = {"n": 0, "s1": 0.0, "s2": 0.0, "n1": 0.0, "n2": 0.0}
    failed = [0]

    def one_round(r, traced):
        span = tracer.span("delta_compare", "harness") if traced else contextlib.nullcontext()
        t0 = time.monotonic()
        try:
            with span:
                rep = F.delta_compare(config, COMPARE_BLOCK, base.substream(r))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            failed[0] += COMPARE_BLOCK
            return 0, time.monotonic() - t0
        elapsed = time.monotonic() - t0
        n = rep.n
        pool["n"] += n
        pool["s1"] += n * rep.mean_delta
        pool["s2"] += (n - 1) * rep.std_delta ** 2 + n * rep.mean_delta ** 2
        pool["n1"] += n * rep.mean_n1
        pool["n2"] += n * rep.mean_n2
        return n, elapsed

    min_rounds = -(-gate.COMPARE_MIN_N // COMPARE_BLOCK)
    t_first, rounds = _timed_loop(tracer, args.seconds, min_rounds, one_round)
    result = {"t_first_sample": t_first, "rates": _rates(rounds),
              "calibs": [r["calib"] for r in rounds],
              "peak_rss_mb": _peak_rss_mb(resource.RUSAGE_SELF)}
    n = pool["n"]
    with tracer.span("law check", "harness"):
        mean = pool["s1"] / n
        std = ((pool["s2"] - n * mean * mean) / (n - 1)) ** 0.5
        checks = gate.compare_checks(n, mean, std, pool["n1"] / n)
    result["checks"] = checks
    result["attempted"], result["failed"] = gate.tally(COMPARE_BLOCK * len(rounds),
                                                       failed[0], checks)
    if tracer.enabled:
        # delta_compare reports no per-replicate counts: the exact counters and the
        # cost per iteration come from in-process a1 draws of the same config
        lay = _probe_layers(F, tracer, config, args.seed, STREAM_ID["probe"])
        # the comparator's own cost per variate, both scans counted
        lay["samplers.ns_per_variate"] = 1e9 * sum(r["scaled_s"] for r in rounds) / (
            pool["n1"] + pool["n2"])
        result["layers"] = lay
    return F, result


def _probe_layers(F, tracer, config, seed, stream_id):
    """Exact counters, cost per iteration and streams per draw from PROBE_DRAWS draws."""
    base = F.RandomStream(seed, stream_id)
    with tracer.span("probe sample_batch", "samplers"):
        before = speed.calibrate()
        t0 = time.monotonic()
        got = F.sample_batch(config, PROBE_DRAWS, base)
        elapsed = (time.monotonic() - t0) * speed.scale([before, speed.calibrate()])
    iters = [d.stats.iterations for d in got]
    lay = _counters(F, iters, [d.stats.total_points for d in got], iters, config)
    lay["samplers.us_per_iteration"] = 1e6 * elapsed / sum(iters)
    lay["rng.streams_per_draw"] = _streams_per_draw(F, tracer, config, base)
    return lay


def _streams_per_draw(F, tracer, config, base, n=50):
    with tracer.span("count streams", "samplers"):
        return _count_streams(F, lambda: F.sample_batch(config, n, base)) / n


# ---------------------------------------------------------------------------
# cli-a2: the fptsim sample command with two worker processes
# ---------------------------------------------------------------------------


def _cli_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = str(OUT_DIR)
    return env


def cli_call(args, n, workers, streams, out_path, calibs=None):
    """(wall seconds scaled to the reference speed, return code) of one `fptsim sample` call.

    Calibration probes taken during the call are appended to calibs."""
    cmd = [sys.executable, "-m", "fptsim.cli", *CLI_ARGS, "--workers", str(workers),
           "--n", str(n), "--seed", str(args.seed), "--streams", str(streams),
           "--out", str(out_path)]
    t0 = time.monotonic()
    code, _, err, probes = run_child(cmd, max(1.0, args.deadline - t0), env=_cli_env())
    wall = time.monotonic() - t0
    if code != 0:
        sys.stderr.write(err)
    loops = [v for _, v in probes] or [speed.calibrate()]
    if calibs is not None:
        calibs.extend(loops)
    return wall * speed.scale(loops), code


def _read_rows(tracer, path):
    with tracer.span("read csv", "cli"):
        with open(path, newline="", encoding="ascii") as fh:
            rows = list(csv.DictReader(fh))
    path.unlink()
    return rows


def run_cli_workload(args, tracer):
    speed.warm_up()
    tag = f"{os.getpid()}"
    attempted = failed = 0
    setups = []
    calibs = []
    for j in range(CLI_SETUP_REPEATS):
        out = OUT_DIR / f"cli-setup-{tag}-{j}.csv"
        with tracer.span("cli sample (set-up size)", "cli"):
            wall, code = cli_call(args, CLI_SETUP_N, CLI_WORKERS, STREAM_ID["cli-setup"] + j,
                                  out, calibs)
        attempted += CLI_SETUP_N
        if code != 0:
            failed += CLI_SETUP_N
            continue
        setups.append(wall)
        failed += CLI_SETUP_N - len(_read_rows(tracer, out))
    if not setups:
        raise RuntimeError("every set-up call of the CLI failed")

    # value, iterations and N_sigma of the rows of the first CLI_MIN_CALLS calls, in
    # index order; of every call, the variates and iterations of its sampling share
    kept = {"value": [], "iterations": [], "total_points": []}
    sampled = {"iterations": 0.0, "n_sigma": 0.0}

    def one_round(r, traced):
        nonlocal attempted, failed
        out = OUT_DIR / f"cli-{tag}-{r}.csv"
        span = tracer.span("cli sample", "cli") if traced else contextlib.nullcontext()
        with span:
            wall, code = cli_call(args, CLI_N, CLI_WORKERS, STREAM_ID["cli"] + r, out, calibs)
        attempted += CLI_N
        if code != 0:
            failed += CLI_N
            return 0, wall
        got = _read_rows(tracer, out)
        values = [float(row["value"]) for row in got]
        iters = [int(row["iterations"]) for row in got]
        n_sigma = [int(row["total_points"]) for row in got]
        failed += CLI_N - len(got) + _bad_values(values)
        # the set-up-size call's draws are subtracted from the call, as in draws_per_s
        share = (len(got) - CLI_SETUP_N) / len(got)
        sampled["iterations"] += share * sum(iters)
        sampled["n_sigma"] += share * sum(n_sigma)
        if r < CLI_MIN_CALLS:
            for key, column in (("value", values), ("iterations", iters),
                                ("total_points", n_sigma)):
                kept[key].extend(column)
        return len(got) - CLI_SETUP_N, wall

    _, rounds = _timed_loop(tracer, args.seconds, CLI_MIN_CALLS, one_round, calibrated=True)
    # sampling wall: a call's scaled wall less the median scaled wall of a set-up-size call
    fixed_s = statistics.median(setups)
    rates = _rates(rounds, fixed_s=fixed_s)
    if min(rate for rate, _ in rates) <= 0.0:
        raise RuntimeError("a CLI sampling call was not slower than its set-up")
    result = {"setups": setups, "rates": rates, "calibs": calibs,
              "peak_rss_mb": _peak_rss_mb(resource.RUSAGE_CHILDREN)}
    F = _import_fptsim(tracer)
    config = configs.build(F, "sine-a2")
    with tracer.span("law check", "harness"):
        checks = [gate.ks_check(F, "sine-a2.ks", kept["value"], gate.load_reference("sine-L2")),
                  gate.identity_check(F, "sine-a2.identity", kept["iterations"],
                                      config.model, config.x, config.L)]
    result["checks"] = checks
    result["attempted"], result["failed"] = gate.tally(attempted, failed, checks)
    if tracer.enabled:
        # the first call's rows, as the CLI drew them (kappa from its own scan)
        first_iters = kept["iterations"][:CLI_N]
        lay = _counters(F, first_iters, kept["total_points"][:CLI_N], first_iters, config)
        # wall time of the two workers together, per unit of the calls' sampling share
        sampling_s = sum(r["scaled_s"] - fixed_s for r in rounds)
        lay["samplers.ns_per_variate"] = 1e9 * sampling_s / sampled["n_sigma"]
        lay["samplers.us_per_iteration"] = 1e6 * sampling_s / sampled["iterations"]
        # counted in-process on the same variant; the count does not depend on kappa
        lay["rng.streams_per_draw"] = _streams_per_draw(
            F, tracer, config, F.RandomStream(args.seed, STREAM_ID["probe"]))
        result["layers"] = lay
    return F, result


# ---------------------------------------------------------------------------


def _layer_suite(F, tracer, args):
    lay = {}
    lay.update(layers.rng_layer(F, tracer))
    lay.update(layers.bridge_layer(F, tracer))
    lay.update(layers.drift_layer(F, tracer))
    lay.update(layers.samplers_layer(F, tracer))
    lay.update(layers.harness_layer(F, tracer, gate.load_reference("sine-L2")))

    def run_cli(n, workers, streams):
        out = OUT_DIR / f"cli-probe-{os.getpid()}.csv"
        wall, code = cli_call(args, n, workers, streams, out)
        if code != 0:
            raise RuntimeError("CLI probe call failed")
        out.unlink()
        return wall

    lay.update(layers.cli_layer(tracer, run_cli))
    lay["src.lines"] = layers.src_lines(ROOT)
    return lay


RUNNERS = {"deep-a1": run_sampling, "short-draws": run_sampling,
           "cli-a2": run_cli_workload, "compare": run_compare}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=spec.workload_names())
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--deadline", type=float, required=True,
                        help="time.monotonic() value by which every CLI call is killed")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    OUT_DIR.mkdir(exist_ok=True)
    sys.path.insert(0, str(ROOT / "src"))
    tracer = Tracer(bool(args.trace))

    with tracer.span(f"workload {args.workload}", "bench"):
        outcome = RUNNERS[args.workload](args, tracer)
        if args.setup_only:
            print(json.dumps(outcome))
            return
        F, result = outcome
        if tracer.enabled:
            result["layers"].update(_layer_suite(F, tracer, args))
    result["checks"] = [[c.name, c.ok, c.detail] for c in result["checks"]]
    if tracer.enabled:
        traced = [rate for rate, on in result["rates"] if on]
        plain = [rate for rate, on in result["rates"] if not on]
        lay = result["layers"]
        lay["trace.draws_per_s"] = statistics.median(traced)
        lay["trace.overhead_ratio"] = statistics.median(plain) / lay["trace.draws_per_s"]
        lay["bench.calib_ms"] = 1e3 * statistics.median(result["calibs"])
        for layer, seconds in tracer.self_seconds().items():
            lay[f"trace.self_s.{layer}"] = seconds
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(path)
        result["trace_file"] = str(path.relative_to(ROOT))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
