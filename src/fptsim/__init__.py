"""Exact rejection sampling of first-passage times for one-dimensional diffusions."""

from .bridge import (BridgeSkeleton, SequentialBridgeState, bessel_norm,
                     bisect_insert, sequential_advance)
from .drift import (BoundCertificate, CertificateReport, DriftModel, GammaField,
                    arctan_shift_drift, certify_bounds, constant_drift,
                    custom_drift, default_domain_hint, eval_beta, eval_gamma,
                    eval_scale_p, gamma_fn, lamperti_drift, model_from_spec,
                    neg_arctan_drift, ou_drift, recurrence_diagnostic,
                    scan_gamma_range, sine_drift, truncate_drift,
                    truncated_ou_kappa)
from .errors import (BudgetError, ConfigError, FptsimError, ModelError,
                     NumericError)
from .harness import (DeltaReport, brownian_fpt_cdf, delta_compare, em_fpt_oracle,
                      geometric_iteration_gof, histogram_export, ig_cdf, ig_pdf,
                      iteration_identity_check, iteration_identity_target,
                      ks_statistic, rho_distance_bound, truncated_brownian_fpt_cdf,
                      two_sample_ks)
from .rng import (ProposalDraw, RandomStream, draw_brownian_fpt,
                  draw_inverse_gaussian, draw_truncated_brownian_fpt)
from .samplers import (FptDraw, RunStats, SamplerConfig, optimal_split_count,
                       poisson_time_points, sample, sample_batch,
                       validate_config)

__version__ = "0.1.0"
