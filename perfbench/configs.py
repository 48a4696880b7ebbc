"""Sampler configurations shared by the workloads, the reference script and the self-test.

Every function takes the imported ``fptsim`` module as ``F``, so that importing
this file costs nothing and the workload process can time the library import.
"""

import math

# Reference samples are drawn on stream ids from 901 up; workloads use ids
# below 900, so for any --seed the gate compares independent samples.
REF_SEED = 170506881
REF_STREAM = {"sine-L2": 901, "neg-arctan-a3": 902, "ou-rho5": 903}
REF_SIZE = 20000

# the config each reference sample is drawn from
REF_CONFIG = {"sine-L2": "sine-a1", "neg-arctan-a3": "neg-arctan-a3", "ou-rho5": "ou-rho5"}

# the reference law each config's output is tested against
REFERENCE_OF = {
    "sine-a1": "sine-L2",
    "sine-a2": "sine-L2",
    "sine-split20": "sine-L2",
    "neg-arctan-a3": "neg-arctan-a3",
    "ou-rho5": "ou-rho5",
}


def build(F, name, level=None):
    """SamplerConfig for a named configuration; ``level`` overrides L (self-test only)."""
    if name.startswith("sine-"):
        L = 2.0 if level is None else level
        variant = "a2" if name == "sine-a2" else "a1"
        return F.SamplerConfig(
            x=0.0, L=L, model=F.sine_drift(),
            cert=F.BoundCertificate(kappa=5.0, domain_hint=F.default_domain_hint(L)),
            variant=variant, split_k=20 if name == "sine-split20" else 1)
    if name == "neg-arctan-a3":
        return F.SamplerConfig(
            x=0.0, L=1.0, model=F.neg_arctan_drift(),
            cert=F.BoundCertificate(kappa=math.pi ** 2 / 8, m=0.5,
                                    domain_hint=F.default_domain_hint(1.0)),
            variant="a3", t0=1.0)
    if name == "ou-rho5":
        return F.SamplerConfig(
            x=0.0, L=1.0, model=F.ou_drift(0.3, 1.0),
            cert=F.BoundCertificate(kappa=F.truncated_ou_kappa(0.3, 5.0, 1.0),
                                    domain_hint=F.default_domain_hint(1.0)),
            variant="a1", rho=5.0)
    raise KeyError(name)


def effective_model(F, config):
    """The drift the sampler actually runs: truncated below -rho when rho is set."""
    if config.rho is None:
        return config.model
    return F.truncate_drift(config.model, config.rho)


def has_identity(config):
    """The iteration identity E[I] = exp{beta(L)-beta(x)} holds for unsplit a1/a2 runs."""
    return config.variant in ("a1", "a2") and config.split_k == 1
