"""Command-line front end: batch sampling, validation suites, efficiency reports.

Subcommands
-----------
sample      draw n hitting times, write samples.csv (index,value,iterations,total_points)
validate    run the closed-form KS suites; nonzero exit on failure
bench       report mean iterations / N_sigma against the exact identities
split-scan  sweep the slice count k and write (k, mean_total_points, stderr)
compare     coupled cost comparison of the two thinning mechanizations

Each subcommand takes only the flags it reads (see its --help), spelled in full:
--k and --workers go to sample and bench, a --k lo..hi sweep to split-scan,
--hist/--bins to sample alone, and validate sets its own model and bounds.

Exit codes: 0 ok, 1 validation failure, 2 usage/configuration error, 3 budget
exhausted.  All floats are printed with 17 significant digits; a fixed seed
makes every output byte-identical across reruns and worker counts.  A reader
of stdout that goes away early (``| head``) cuts the printed report short,
not the run: output files are written in full, with the usual exit code.
"""

import argparse
import csv
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from functools import partial

from .drift import (BoundCertificate, GammaField, _certify_range, _gamma_range,
                    default_domain_hint, model_from_spec, truncate_drift)
from .errors import BudgetError, ConfigError, FptsimError
from .harness import (delta_compare, histogram_export, ig_cdf, iteration_identity_check,
                      ks_statistic)
from . import rng
from .rng import RandomStream
from .samplers import VARIANTS, SamplerConfig, sample_batch, validate_config

_CLAIM_MARGIN = 1e-9


def _fmt(x):
    return f"{x:.17g}"


def _say(text):
    """Print a line of the command's report to stdout, at once.

    A reader that has gone away (``fptsim sample --verbose | head -1``) ends
    the report, not the run: stdout is pointed at os.devnull, as the Python
    docs advise, and the command writes its files in full and exits with its
    own code.
    """
    try:
        print(text, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _k_sweep(text):
    """The slice counts split-scan sweeps: ``lo..hi`` or a single count."""
    lo, dots, hi = text.partition("..")
    lo, hi = int(lo), int(hi if dots else lo)
    if not 1 <= lo <= hi:
        raise argparse.ArgumentTypeError(f"bad slice range {text!r}")
    return range(lo, hi + 1)


def _run_flags(p):
    """The flags every subcommand reads: replicates, streams and the certified interval."""
    p.add_argument("--n", type=_positive_int, default=10000,
                   help="number of draws/replicates (>= 1)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--streams", type=int, default=0, help="base stream id")
    p.add_argument("--scan-from", type=float, default=None,
                   help="left end of the certified interval (default -1000*(1+|L|))")
    p.add_argument("--max-iterations", type=int, default=10**8)
    p.add_argument("--verbose", action="store_true")


def _config_flags(p):
    """The run's drift, level, variant, bounds and output file (all but validate)."""
    p.add_argument("--model", required=True,
                   help="drift spec, e.g. constant:mu=1 | sine | arctan-shift | "
                        "neg-arctan | ou:alpha=0.3,beta=1")
    p.add_argument("--x", type=float, default=0.0, help="starting point (default 0)")
    p.add_argument("--level", type=float, required=True, help="target level L > x")
    p.add_argument("--variant", default="a1", choices=VARIANTS)
    p.add_argument("--kappa", type=float, default=None, help="gamma upper bound override")
    p.add_argument("--gamma0", type=float, default=None, help="gamma lower bound (shift variants)")
    p.add_argument("--m", type=float, default=None, help="allowed gamma negativity (a3)")
    p.add_argument("--t0", type=float, default=None, help="conditioning horizon (a3)")
    p.add_argument("--rho", type=float, default=None, help="drift truncation depth")
    p.add_argument("--out", default=None, help="output CSV path")


def _batch_flags(p):
    """Slice count and process count of a command that runs one batch (sample, bench)."""
    p.add_argument("--k", type=_positive_int, default=1, help="slice count (default 1)")
    p.add_argument("--workers", type=_positive_int, default=1)


def _sweep_flags(p):
    p.add_argument("--k", type=_k_sweep, default="1..20",
                   help="slice counts to sweep: lo..hi or one int (default 1..20)")


def _hist_flags(p):
    p.add_argument("--hist", default=None, help="also write a density histogram CSV here")
    p.add_argument("--bins", type=_positive_int, default=60, help="histogram bins for --hist")


def _resolve_claim(args, scan):
    """The certificate to judge: the given bounds, the rest derived from gamma's range."""
    kappa = args.kappa if args.kappa is not None else (
        scan.gmax + _CLAIM_MARGIN + 1e-9 * abs(scan.gmax))
    gamma0 = m = 0.0
    if args.variant.endswith("-shift"):
        if args.gamma0 is not None:
            gamma0 = args.gamma0
        elif scan.gmin > 2.0 * _CLAIM_MARGIN:
            gamma0 = scan.gmin - _CLAIM_MARGIN
        else:
            raise ConfigError("shift variants need gamma0 > 0; none given and the scan "
                              "found no positive floor")
    elif args.gamma0 is not None:
        gamma0 = args.gamma0
    if args.variant == "a3":
        m = args.m if args.m is not None else max(0.0, -scan.gmin) + _CLAIM_MARGIN
    elif args.m is not None and args.m != 0.0:
        raise ConfigError("--m only applies to variant a3")
    return BoundCertificate(kappa=kappa, gamma0=gamma0, m=m, domain_hint=scan.lo)


def _resolve(args, split_k=1):
    # a seed or stream id outside [0, 2**64) is refused before any scan or worker
    RandomStream(args.seed, args.streams)
    model = model_from_spec(args.model)
    effective = truncate_drift(model, args.rho) if args.rho is not None else model
    gamma = GammaField(effective)
    scan_from = args.scan_from if args.scan_from is not None else default_domain_hint(args.level)
    # one pass over gamma's range both derives the missing bounds and certifies the claim
    scan = _gamma_range(gamma, scan_from, args.level)
    cert = _resolve_claim(args, scan)
    report = _certify_range(gamma, cert, scan)
    if not report.passed:
        raise ConfigError("bound certificate failed:\n" + report.text())
    if args.verbose:
        _say(report.text())
    config = SamplerConfig(x=args.x, L=args.level, model=model, cert=cert,
                           variant=args.variant, split_k=split_k, t0=args.t0,
                           rho=args.rho, max_iterations=args.max_iterations)
    validate_config(config)
    return config


# ---------------------------------------------------------------------------
# batch running (deterministic under any worker partition)
# ---------------------------------------------------------------------------


def _block_rows(config, seed, streams, lo, hi):
    draws = sample_batch(config, hi - lo, RandomStream(seed, streams), start=lo)
    return [(lo + i, d.value, d.stats.iterations, d.stats.total_points)
            for i, d in enumerate(draws)]


def _worker_rows(spec, config, seed, streams, lo, hi):
    # the parent's certified config arrives without its model: drift models
    # hold closures and do not pickle, so the worker rebuilds it from the spec
    return _block_rows(replace(config, model=model_from_spec(spec)), seed, streams, lo, hi)


def _share_cpus(workers):
    # each of the pool's workers gets c // w of the c CPUs it may use, so
    # workers that fill the machine make their refill waves on one thread
    rng._CPUS = len(os.sched_getaffinity(0)) // workers


def _run_batch(args, config):
    n = args.n
    if args.workers <= 1:
        return _block_rows(config, args.seed, args.streams, 0, n)
    block = int(math.ceil(n / args.workers))
    los = list(range(0, n, block))
    his = [min(lo + block, n) for lo in los]
    job = partial(_worker_rows, args.model, replace(config, model=None),
                  args.seed, args.streams)
    rows = []
    with ProcessPoolExecutor(max_workers=args.workers, initializer=_share_cpus,
                             initargs=(args.workers,)) as pool:
        for part in pool.map(job, los, his):
            rows.extend(part)
    return rows


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_sample(args):
    config = _resolve(args, split_k=args.k)
    rows = _run_batch(args, config)
    out = args.out or "samples.csv"
    with open(out, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "value", "iterations", "total_points"])
        for idx, value, iters, pts in rows:
            writer.writerow([idx, _fmt(value), iters, pts])
    _, values, iters, pts = zip(*rows)
    _say(f"wrote {len(rows)} draws to {out}")
    _say(f"mean value {sum(values)/len(values):.6g}, "
         f"mean iterations {sum(iters)/len(iters):.6g}, "
         f"mean total points {sum(pts)/len(pts):.6g}")
    if args.hist:
        histogram_export(values, args.bins, args.hist)
        _say(f"wrote histogram to {args.hist}")
    return 0


def _cmd_validate(args):
    """Closed-form exactness suite on the drifted Brownian benchmark."""
    failures = 0
    # 2/sqrt(n), 0.02 at the default n: an exact sampler exceeds it with
    # probability about 6.7e-4 per suite (Kolmogorov tail at 2)
    threshold = 2.0 / math.sqrt(args.n)
    gap = 2.0
    # every suite is unit drift from 0 to 2 under one certified claim, kappa =
    # gamma0 = 0.5; only the shift variant reads gamma0
    claim = argparse.Namespace(**vars(args), model="constant:mu=1", x=0.0, level=2.0,
                               variant="a1-shift", kappa=0.5, gamma0=0.5, m=None,
                               t0=None, rho=None)
    certified = _resolve(claim)
    # label, variant, split_k
    suites = [("a1", "a1", 1), ("a2", "a2", 1), ("a1-shift", "a1-shift", 1),
              ("a1 split k=3", "a1", 3)]
    for label, variant, split_k in suites:
        config = replace(certified, variant=variant, split_k=split_k)
        draws = sample_batch(config, args.n, RandomStream(args.seed, args.streams))
        ks = ks_statistic([d.value for d in draws], lambda t: ig_cdf(t, gap, 1.0))
        ok = ks < threshold
        failures += 0 if ok else 1
        _say(f"validate {label}: KS vs closed form = {ks:.5f} "
             f"({'PASS' if ok else 'FAIL'}, threshold {threshold:.4g})")
    return 0 if failures == 0 else 1


def _cmd_bench(args):
    config = _resolve(args, split_k=args.k)
    rows = _run_batch(args, config)
    _, _, iters, pts = zip(*rows)
    mean_iters, mean_pts = sum(iters) / len(rows), sum(pts) / len(rows)
    # the identity holds for unsplit, unconditioned runs only: the per-slice
    # identity does not aggregate under splitting, and a3 draws conditioned on
    # tau <= t0; only the shift variants subtract gamma0
    identity = ["", "", ""]
    if args.k == 1 and args.variant != "a3":
        effective = (truncate_drift(config.model, config.rho)
                     if config.rho is not None else config.model)
        gamma0 = config.cert.gamma0 if args.variant.endswith("-shift") else 0.0
        report = iteration_identity_check(iters, effective, args.x, args.level,
                                          gamma0=gamma0, kappa=config.cert.kappa)
        _say(report.text())
        identity = [_fmt(report.target_mean), _fmt(report.z_score), _fmt(report.upper_bound)]
    _say(f"mean iterations {mean_iters:.6g}, mean total points (N_sigma) {mean_pts:.6g}")
    if args.out:
        with open(args.out, "w", encoding="ascii", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "mean_iterations", "identity_target", "z_score",
                             "upper_bound", "mean_total_points"])
            writer.writerow([len(rows), _fmt(mean_iters), *identity, _fmt(mean_pts)])
        _say(f"wrote bench report to {args.out}")
    return 0


def _cmd_split_scan(args):
    out = args.out or "scan.csv"
    config = _resolve(args)
    rows = []
    for k in args.k:
        base = RandomStream(args.seed, args.streams + k)
        draws = sample_batch(replace(config, split_k=k), args.n, base)
        pts = [d.stats.total_points for d in draws]
        mean = sum(pts) / len(pts)
        var = sum((p - mean) ** 2 for p in pts) / (len(pts) - 1) if len(pts) > 1 else 0.0
        stderr = math.sqrt(var / len(pts))
        rows.append((k, mean, stderr))
        if args.verbose:
            _say(f"k={k}: mean N_sigma {mean:.4g} +- {stderr:.2g}")
    with open(out, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "mean_total_points", "stderr"])
        for k, mean, stderr in rows:
            writer.writerow([k, _fmt(mean), _fmt(stderr)])
    best = min(rows, key=lambda r: r[1])
    _say(f"wrote {len(rows)} rows to {out}; minimum mean N_sigma {best[1]:.4g} at k={best[0]}")
    return 0


def _cmd_compare(args):
    config = _resolve(args)
    report = delta_compare(config, args.n, RandomStream(args.seed, args.streams))
    out = args.out or "delta.csv"
    with open(out, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "mean_delta", "std_delta", "t_stat", "ratio"])
        writer.writerow([report.n, _fmt(report.mean_delta), _fmt(report.std_delta),
                         _fmt(report.t_statistic), _fmt(report.ratio)])
    _say(report.text())
    significant = abs(report.t_statistic) > 2.5758  # two-sided 1%
    _say(f"difference {'is' if significant else 'is NOT'} significant at the 1% level; "
         f"wrote {out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fptsim", allow_abbrev=False,
        description="Exact sampling of diffusion first-passage times")
    sub = parser.add_subparsers(dest="command", required=True)
    # each subcommand registers only the flags it reads, and none is abbreviated,
    # so a flag that one subcommand lacks is not read as a longer one (--k as --kappa)
    for name, fn, groups in [
            ("sample", _cmd_sample, (_config_flags, _run_flags, _batch_flags, _hist_flags)),
            ("validate", _cmd_validate, (_run_flags,)),
            ("bench", _cmd_bench, (_config_flags, _run_flags, _batch_flags)),
            ("split-scan", _cmd_split_scan, (_config_flags, _run_flags, _sweep_flags)),
            ("compare", _cmd_compare, (_config_flags, _run_flags))]:
        p = sub.add_parser(name, allow_abbrev=False)
        p.set_defaults(fn=fn)
        for add in groups:
            add(p)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except FptsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
