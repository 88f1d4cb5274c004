"""Seeded parameter generators for the benchmark workloads.

Every draw is a plain dict of physical parameters (CGS-calorie units), made
from ``numpy.random.default_rng([seed, stream, index])``, so draw ``index``
of a stream is the same whatever the run length. The critical heat-transfer
coefficient is computed here from its closed form, not by the program.
"""

from __future__ import annotations

import math

import numpy as np

# The medium of configs/thaw_convective.cfg: water/ice in a porous soil.
BASE = dict(
    epsilon=0.4, rho_w=1.0, rho_i=0.917, c_w=1.0, c_i=0.5, c_u=0.8,
    c_f=0.6, k_u=0.0014, k_f=0.0053, rho_u=1.2, rho_f=1.4, latent_l=80.0,
    gamma_cc=0.115, mu=0.0179, perm_k=1e-7, a_init=4.0, b_ext=10.0, h0=0.05,
)

# stream ids keep the workloads' draws apart for one seed
STREAMS = {"population": 1, "h0_sweep": 2, "verify": 3, "cli": 4}

QUADRANTS = ("pp", "pm", "mp", "mm")


def critical_h0(params: dict) -> float:
    """(A/B) k_F / sqrt(pi d_F), d_F = k_F / (rho_F c_F)."""
    d_f = params["k_f"] / (params["rho_f"] * params["c_f"])
    return (params["a_init"] / params["b_ext"]) * params["k_f"] / math.sqrt(math.pi * d_f)


def rng_for(seed: int, workload: str, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, STREAMS[workload], index])


def _loguniform(rng, lo, hi):
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def quadrant_medium(rng, quadrant: str) -> dict:
    """The acceptance-suite ranges for one (M, N) sign quadrant, with h0
    drawn above the critical value."""
    c_i = (rng.uniform(0.25, 0.75) if quadrant in ("pp", "mm")
           else rng.uniform(1.2, 1.8))
    sign = 1.0 if quadrant in ("pp", "pm") else -1.0
    params = dict(
        BASE,
        epsilon=rng.uniform(0.25, 0.55),
        c_i=c_i,
        gamma_cc=sign * rng.uniform(0.05, 0.3),
        a_init=rng.uniform(1.0, 8.0),
        b_ext=rng.uniform(5.0, 15.0),
        latent_l=rng.uniform(60.0, 90.0),
    )
    crit = critical_h0(params)
    params["h0"] = max(rng.uniform(0.02, 0.2), crit * rng.uniform(1.05, 3.0))
    return {k: float(v) for k, v in params.items()}


def subcritical_medium(rng) -> dict:
    """M > 0, N > 0, p <= 1 with h0 below the critical value."""
    params = quadrant_medium(rng, "pp")
    params["h0"] = critical_h0(params) * rng.uniform(0.1, 0.95)
    return params


def wide_medium(rng) -> dict:
    """Log-uniform over one decade in b_ext, a_init, latent_l, h0 / critical
    and |gamma_cc|; c_i on either side of c_w; either sign of gamma_cc."""
    c_i = _loguniform(rng, 1.15, 3.0)
    if rng.uniform() < 0.5:
        c_i = 1.0 / c_i
    params = dict(
        BASE,
        c_i=c_i,
        gamma_cc=_loguniform(rng, 0.03, 0.3) * (1.0 if rng.uniform() < 0.5 else -1.0),
        a_init=_loguniform(rng, 1.0, 10.0),
        b_ext=_loguniform(rng, 3.0, 30.0),
        latent_l=_loguniform(rng, 30.0, 300.0),
    )
    params["h0"] = critical_h0(params) * _loguniform(rng, 1.1, 11.0)
    return {k: float(v) for k, v in params.items()}


def population_block(seed: int, index: int) -> list[tuple[str, dict]]:
    """One fresh parameter set from each class, in a fixed order."""
    rng = rng_for(seed, "population", index)
    block = [(q, quadrant_medium(rng, q)) for q in QUADRANTS]
    block.append(("sub", subcritical_medium(rng)))
    block.append(("wide", wide_medium(rng)))
    return block


def sweep_medium(seed: int, index: int) -> dict:
    """An M > 0, N > 0, p <= 1 medium (acceptance ranges) for an h0 sweep."""
    return quadrant_medium(rng_for(seed, "h0_sweep", index), "pp")


def verify_medium(seed: int, index: int) -> dict:
    """An M > 0, N > 0 medium (acceptance ranges) with h0 8 to 40 times the
    critical value, which keeps the front coefficient above about 0.15, clear
    of the shallow fronts that F2 rejects."""
    rng = rng_for(seed, "verify", index)
    params = quadrant_medium(rng, "pp")
    params["h0"] = critical_h0(params) * rng.uniform(8.0, 40.0)
    return params


# Kept faults: fixed inputs, the same for every seed, that fail every time.
# F1: a converged root (y ~ 15.98, residual ~3.6e-12 against the absolute
# 1e-12 tolerance) is rejected with ToleranceNotReached.
F1_MEDIUM = dict(
    BASE, c_i=6.207436735262693, latent_l=0.17628045036819887,
    gamma_cc=0.013327427236916925, a_init=73.95134849987143,
    b_ext=5784.912816202971, h0=3.642679400222342,
)
# F2: a correct shallow front (xi ~ 0.043) is rejected by verify_convective
# with a fitted pde_u_order of ~1.61 against the 1.8 minimum.
F2_MEDIUM = dict(
    BASE, epsilon=0.5212239649791841, c_i=0.6953389003056538,
    latent_l=69.9548808700423, gamma_cc=0.1938544759318886,
    a_init=3.1779742066221095, b_ext=6.083257112999655, h0=0.03143431182590702,
)

# The four shipped configs (configs/*.cfg) as parameter sets.
CLI_MEDIA = {
    "convective": dict(BASE, b0_wall=3.0),
    "two_roots": dict(BASE, gamma_cc=-0.115),
    "subcritical": dict(BASE, h0=0.01),
    "classical": dict(BASE, rho_i=1.0, b0_wall=3.0),
}
# (subcommand, medium, extra flags, expected exit code); one round of `cli`
CLI_CYCLE = (
    ("solve", "convective", (), 0),
    ("solve", "two_roots", (), 0),
    ("solve", "subcritical", (), 2),
    ("solve", "classical", ("--mode", "classical"), 0),
    ("classify", "convective", (), 0),
    ("verify", "convective", (), 0),
    ("equiv", "convective", (), 0),
    ("sweep", "convective", (), 0),
)


def cli_medium(seed: int, index: int, medium: str) -> dict:
    """A shipped medium with h0 scaled by a fresh factor in [0.9, 1.1], so no
    two commands read the same config."""
    rng = rng_for(seed, "cli", index)
    params = dict(CLI_MEDIA[medium])
    params["h0"] *= rng.uniform(0.9, 1.1)
    return params


def config_text(params: dict) -> str:
    return "".join(f"{k} = {v!r}\n" for k, v in params.items())
