"""Law gate: tests a run's output against the committed reference laws.

Each check has false-alarm probability at most ALPHA, so over the few hundred
checks a full benchmark campaign makes, a correct program fails none of them
with probability above 0.999.  A failed check counts as a failed operation in
the run's ``fail_rate``.

* ``ks``: two-sample Kolmogorov-Smirnov distance to a committed reference
  sample, against the asymptotic critical value c(ALPHA) sqrt((n+m)/(n m)).
* ``ig``: one-sample KS distance to the closed-form inverse-Gaussian law.
* ``identity``: z-score of mean(I) against exp{beta(L)-beta(x)}.
* ``compare``: criterion 5 of the acceptance suite, on the coupled comparator.
  The mean cost difference N2 - N1 must be negative: over the at least
  COMPARE_MIN_N replicates a run makes, a correct comparator (per-replicate
  mean -200, std 1530) gives a positive mean with probability below ALPHA.
  An ALPHA-level interval of the ratio mean_delta / mean_N1, taking mean_N1
  as fixed, must meet the band [-0.15, -0.07].
"""

import math
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist

import numpy as np

ALPHA = 1e-6
KS_C = math.sqrt(-0.5 * math.log(ALPHA / 2.0))
Z_CRIT = NormalDist().inv_cdf(1.0 - ALPHA / 2.0)
RATIO_BAND = (-0.15, -0.07)
COMPARE_MIN_N = 1500

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def load_reference(name):
    return np.load(REFERENCE_DIR / f"{name}.npy").astype(float)


def ks_check(F, name, values, reference):
    n, m = len(values), len(reference)
    d = F.two_sample_ks(values, reference)
    crit = KS_C * math.sqrt((n + m) / (n * m))
    return Check(name, d <= crit, f"KS {d:.4f} <= {crit:.4f} (n={n}, ref n={m})")


def ig_check(F, name, values, gap, mu):
    d = F.ks_statistic(values, lambda t: F.ig_cdf(t, gap, mu))
    crit = KS_C / math.sqrt(len(values))
    return Check(name, d <= crit, f"KS vs IG {d:.4f} <= {crit:.4f} (n={len(values)})")


def identity_check(F, name, iterations, model, x, L):
    report = F.iteration_identity_check(iterations, model, x, L)
    return Check(name, abs(report.z_score) <= Z_CRIT,
                 f"mean I {report.observed_mean:.2f} vs {report.target_mean:.2f}, "
                 f"|z| {abs(report.z_score):.2f} <= {Z_CRIT:.2f}")


def compare_checks(n, mean_delta, std_delta, mean_n1):
    """Sign and ratio-band checks of criterion 5 on pooled comparator output."""
    se = std_delta / math.sqrt(n) / mean_n1
    ratio = mean_delta / mean_n1
    lo, hi = RATIO_BAND
    return [
        Check("compare.sign", mean_delta < 0.0, f"mean delta {mean_delta:.1f} < 0 (n={n})"),
        Check("compare.ratio", ratio + Z_CRIT * se >= lo and ratio - Z_CRIT * se <= hi,
              f"ratio {ratio:.4f} +- {Z_CRIT * se:.4f} meets [{lo}, {hi}]"),
    ]


def tally(draws_attempted, draws_failed, checks):
    """(attempted, failed) operations: every draw and every law check counts once."""
    return (draws_attempted + len(checks),
            draws_failed + sum(1 for c in checks if not c.ok))
