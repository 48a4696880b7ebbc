"""Command-line front end: batch sampling, validation suites, efficiency reports.

Subcommands
-----------
sample      draw n hitting times, write samples.csv (index,value,iterations,total_points)
validate    run the closed-form KS suites; nonzero exit on failure
bench       report mean iterations / N_sigma against the exact identities
split-scan  sweep the slice count k and write (k, mean_total_points, stderr)
compare     coupled cost comparison of the two thinning mechanizations

Exit codes: 0 ok, 1 validation failure, 2 usage/configuration error, 3 budget
exhausted.  All floats are printed with 17 significant digits; a fixed seed
makes every output byte-identical across reruns and worker counts.
"""

import argparse
import csv
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from functools import partial

from .drift import (BoundCertificate, GammaField, _certify_scan, _scan_grid,
                    default_domain_hint, model_from_spec, truncate_drift)
from .errors import BudgetError, ConfigError, FptsimError
from .harness import (SampleSet, delta_compare, histogram_export, ig_cdf,
                      iteration_identity_check, ks_statistic)
from .rng import RandomStream
from .samplers import VARIANTS, SamplerConfig, sample_batch, validate_config

_CLAIM_MARGIN = 1e-9


def _fmt(x):
    return f"{x:.17g}"


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(text):
    value = float(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def _add_common(p):
    p.add_argument("--model", required=True,
                   help="drift spec, e.g. constant:mu=1 | sine | arctan-shift | "
                        "neg-arctan | ou:alpha=0.3,beta=1")
    p.add_argument("--x", type=float, default=0.0, help="starting point (default 0)")
    p.add_argument("--level", type=float, required=True, help="target level L > x")
    p.add_argument("--variant", default="a1", choices=VARIANTS)
    p.add_argument("--n", type=_positive_int, default=10000,
                   help="number of draws/replicates (>= 1)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--streams", type=int, default=0, help="base stream id")
    p.add_argument("--kappa", type=float, default=None, help="gamma upper bound override")
    p.add_argument("--gamma0", type=float, default=None, help="gamma lower bound (shift variants)")
    p.add_argument("--m", type=float, default=None, help="allowed gamma negativity (a3)")
    p.add_argument("--t0", type=float, default=None, help="conditioning horizon (a3)")
    p.add_argument("--rho", type=float, default=None, help="drift truncation depth")
    p.add_argument("--k", default=None, help="slice count (int) or sweep range lo..hi")
    p.add_argument("--scan-from", type=float, default=None,
                   help="left end of the certification grid (default -1000*(1+|L|))")
    p.add_argument("--grid-step", type=_positive_float, default=1e-3,
                   help="certification grid step (> 0)")
    p.add_argument("--max-iterations", type=int, default=10**8)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default=None, help="output CSV path")
    p.add_argument("--bins", type=int, default=60, help="histogram bins for --hist")
    p.add_argument("--hist", default=None, help="also write a density histogram CSV here")
    p.add_argument("--verbose", action="store_true")


def _parse_k(text):
    if text is None:
        return 1, None
    if ".." in text:
        lo, _, hi = text.partition("..")
        lo, hi = int(lo), int(hi)
        if not 1 <= lo <= hi:
            raise ConfigError(f"bad slice range {text!r}")
        return lo, hi
    return int(text), None


def _resolve_claim(args, scan):
    """The certificate to judge: the given bounds, the rest derived from the grid pass."""
    kappa = args.kappa if args.kappa is not None else (
        scan.gmax + _CLAIM_MARGIN + 1e-9 * abs(scan.gmax))
    gamma0 = 0.0
    m = 0.0
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
    model = model_from_spec(args.model)
    effective = truncate_drift(model, args.rho) if args.rho is not None else model
    gamma = GammaField(effective)
    scan_from = args.scan_from if args.scan_from is not None else default_domain_hint(args.level)
    # one grid pass both derives the missing bounds and certifies the claim
    scan = _scan_grid(gamma, scan_from, args.level, args.grid_step)
    cert = _resolve_claim(args, scan)
    report = _certify_scan(gamma, cert, scan)
    if not report.passed:
        raise ConfigError("bound certificate failed:\n" + report.text())
    if args.verbose:
        print(report.text())
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
    with ProcessPoolExecutor(max_workers=args.workers) as pool:
        for part in pool.map(job, los, his):
            rows.extend(part)
    return rows


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_sample(args):
    split_k, sweep = _parse_k(args.k)
    if sweep is not None:
        raise ConfigError("a k range only applies to split-scan")
    config = _resolve(args, split_k=split_k)
    rows = _run_batch(args, config)
    out = args.out or "samples.csv"
    with open(out, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "value", "iterations", "total_points"])
        for idx, value, iters, pts in rows:
            writer.writerow([idx, _fmt(value), iters, pts])
    values = [r[1] for r in rows]
    iters = [r[2] for r in rows]
    pts = [r[3] for r in rows]
    print(f"wrote {len(rows)} draws to {out}")
    print(f"mean value {sum(values)/len(values):.6g}, "
          f"mean iterations {sum(iters)/len(iters):.6g}, "
          f"mean total points {sum(pts)/len(pts):.6g}")
    if args.hist:
        histogram_export(SampleSet(values, [], fingerprint=args.model), args.bins, args.hist)
        print(f"wrote histogram to {args.hist}")
    return 0


def _cmd_validate(args):
    """Closed-form exactness suite on the drifted Brownian benchmark."""
    failures = 0
    n = args.n
    threshold = 0.02
    gap = 2.0
    suites = [
        ("a1", {"variant": "a1", "kappa": 0.5}),
        ("a2", {"variant": "a2", "kappa": 0.5}),
        ("a1-shift", {"variant": "a1-shift", "kappa": 0.5, "gamma0": 0.5}),
        ("a1 split k=3", {"variant": "a1", "kappa": 0.5, "k": "3"}),
    ]
    for label, overrides in suites:
        sub = argparse.Namespace(**{**vars(args), "model": "constant:mu=1", "x": 0.0,
                                    "level": 2.0, "t0": None, "rho": None,
                                    "m": None, "gamma0": overrides.get("gamma0"),
                                    "kappa": overrides.get("kappa"),
                                    "variant": overrides["variant"],
                                    "k": overrides.get("k")})
        split_k, _ = _parse_k(sub.k)
        config = _resolve(sub, split_k=split_k)
        base = RandomStream(args.seed, args.streams)
        draws = sample_batch(config, n, base)
        ks = ks_statistic([d.value for d in draws], lambda t: ig_cdf(t, gap, 1.0))
        ok = ks < threshold
        failures += 0 if ok else 1
        print(f"validate {label}: KS vs closed form = {ks:.5f} "
              f"({'PASS' if ok else 'FAIL'}, threshold {threshold})")
    return 0 if failures == 0 else 1


def _cmd_bench(args):
    split_k, sweep = _parse_k(args.k)
    if sweep is not None:
        raise ConfigError("a k range only applies to split-scan")
    config = _resolve(args, split_k=split_k)
    rows = _run_batch(args, config)
    iters = [r[2] for r in rows]
    mean_iters = sum(iters) / len(rows)
    mean_pts = sum(r[3] for r in rows) / len(rows)
    # the per-slice identity does not aggregate to one exponent under splitting,
    # so the identity line is only meaningful for unsplit runs
    effective = (truncate_drift(config.model, config.rho)
                 if config.rho is not None else config.model)
    report = iteration_identity_check(iters, effective, args.x, args.level,
                                      gamma0=config.cert.gamma0,
                                      kappa=config.cert.kappa)
    if split_k == 1:
        print(report.text())
    print(f"mean iterations {mean_iters:.6g}, mean total points (N_sigma) {mean_pts:.6g}")
    if args.out:
        with open(args.out, "w", encoding="ascii", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "mean_iterations", "identity_target", "z_score",
                             "upper_bound", "mean_total_points"])
            writer.writerow([len(rows), _fmt(mean_iters), _fmt(report.target_mean),
                             _fmt(report.z_score), _fmt(report.upper_bound), _fmt(mean_pts)])
        print(f"wrote bench report to {args.out}")
    return 0


def _cmd_split_scan(args):
    lo, hi = _parse_k(args.k or "1..20")
    if hi is None:
        hi = lo
    out = args.out or "scan.csv"
    config = _resolve(args)
    rows = []
    for k in range(lo, hi + 1):
        base = RandomStream(args.seed, args.streams + k)
        draws = sample_batch(replace(config, split_k=k), args.n, base)
        pts = [d.stats.total_points for d in draws]
        mean = sum(pts) / len(pts)
        var = sum((p - mean) ** 2 for p in pts) / (len(pts) - 1) if len(pts) > 1 else 0.0
        stderr = math.sqrt(var / len(pts))
        rows.append((k, mean, stderr))
        if args.verbose:
            print(f"k={k}: mean N_sigma {mean:.4g} +- {stderr:.2g}")
    with open(out, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "mean_total_points", "stderr"])
        for k, mean, stderr in rows:
            writer.writerow([k, _fmt(mean), _fmt(stderr)])
    best = min(rows, key=lambda r: r[1])
    print(f"wrote {len(rows)} rows to {out}; minimum mean N_sigma {best[1]:.4g} at k={best[0]}")
    return 0


def _cmd_compare(args):
    config = _resolve(args)
    base = RandomStream(args.seed, args.streams)
    report = delta_compare(config, args.n, base)
    out = args.out or "delta.csv"
    with open(out, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "mean_delta", "std_delta", "t_stat", "ratio"])
        writer.writerow([report.n, _fmt(report.mean_delta), _fmt(report.std_delta),
                         _fmt(report.t_statistic), _fmt(report.ratio)])
    print(report.text())
    significant = abs(report.t_statistic) > 2.5758  # two-sided 1%
    print(f"difference {'is' if significant else 'is NOT'} significant at the 1% level; "
          f"wrote {out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fptsim",
        description="Exact sampling of diffusion first-passage times")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in [("sample", _cmd_sample), ("validate", _cmd_validate),
                     ("bench", _cmd_bench), ("split-scan", _cmd_split_scan),
                     ("compare", _cmd_compare)]:
        p = sub.add_parser(name)
        _add_common(p)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, FptsimError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
