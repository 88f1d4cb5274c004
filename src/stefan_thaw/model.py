"""Physical parameters of the thawing problem and their dimensionless reduction.

All quantities are in the CGS-calorie system (cm, s, g, cal, degC). Units are
trusted as given; there is no conversion layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .errors import ConfigError, DegenerateDensityJump, InvalidParameter

__all__ = [
    "PhysicalParams",
    "DimensionlessParams",
    "reduce_params",
    "load_config",
    "parse_config_text",
]


@dataclass(frozen=True)
class PhysicalParams:
    """Dimensional material and boundary constants.

    ``h0`` selects the convective problem (Robin condition with coefficient
    h0/sqrt(t)); ``b0_wall`` selects the fixed-temperature problem. Both may
    be stored, but a problem instance uses exactly one of them.
    """

    epsilon: float       # porosity, in (0, 1)
    rho_w: float         # water density, g/cm^3
    rho_i: float         # ice density, g/cm^3
    c_w: float           # specific heat of water, cal/(g degC)
    c_i: float           # specific heat of ice, cal/(g degC)
    c_u: float           # specific heat, unfrozen zone
    c_f: float           # specific heat, frozen zone
    k_u: float           # conductivity, unfrozen zone, cal/(s cm degC)
    k_f: float           # conductivity, frozen zone
    rho_u: float         # bulk density, unfrozen zone, g/cm^3
    rho_f: float         # bulk density, frozen zone
    latent_l: float      # latent heat at u=0, cal/g
    gamma_cc: float      # Clausius-Clapeyron coefficient, s^2 cm degC / g
    mu: float            # liquid viscosity, g/(s cm)
    perm_k: float        # hydraulic permeability, cm^2
    a_init: float        # A: far-field temperature magnitude (initial temp is -A)
    b_ext: float         # B: external boundary temperature at x=0 (convective)
    b0_wall: float | None = None  # B0: wall temperature at x=0 (temperature problem)
    h0: float | None = None       # heat-transfer coefficient, cal/(s^1/2 cm^2 degC)

    _POSITIVE = (
        "rho_w", "rho_i", "c_w", "c_i", "c_u", "c_f", "k_u", "k_f",
        "rho_u", "rho_f", "latent_l", "mu", "perm_k", "a_init", "b_ext",
        "d_u", "d_f",     # k / (rho c) can underflow or overflow
    )

    def __post_init__(self):
        if not (0.0 < self.epsilon < 1.0):
            raise InvalidParameter("epsilon", f"must be in (0, 1), got {self.epsilon}")
        for name in self._POSITIVE:
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value)):
                raise InvalidParameter(name, f"must be a finite number, got {value!r}")
            if value <= 0.0:
                raise InvalidParameter(name, f"must be > 0, got {value}")
        if not math.isfinite(self.gamma_cc):
            raise InvalidParameter("gamma_cc", "must be finite")
        for name in ("h0", "b0_wall"):
            value = getattr(self, name)
            if value is not None and (not math.isfinite(value) or value <= 0.0):
                raise InvalidParameter(name, f"must be > 0 when given, got {value}")
        if self.h0 is None and self.b0_wall is None:
            raise InvalidParameter("h0", "one of h0 or b0_wall must be given")

    @property
    def d_u(self) -> float:  # diffusivity of the unfrozen zone, cm^2/s
        return self.k_u / (self.rho_u * self.c_u)

    @property
    def d_f(self) -> float:  # diffusivity of the frozen zone
        return self.k_f / (self.rho_f * self.c_f)

    @property
    def rho_jump(self) -> float:
        return (self.rho_w - self.rho_i) / self.rho_w

    def critical_h0(self) -> float:
        """Threshold on h0 separating phase change from pure heat transfer.

        (A/B) * k_F / sqrt(pi * d_F): below it, in the M>0, N>0, p<=1 regime,
        the front equation has no admissible root.
        """
        return (self.a_init / self.b_ext) * self.k_f / math.sqrt(math.pi * self.d_f)


@dataclass(frozen=True)
class DimensionlessParams:
    """Dimensionless groups governing the front equation.

    The front coefficient solves  G(M, p, y) = y + N y^3  where G is built
    from delta1, delta2, K0, gamma0 (convective problem) or delta1_tilde
    (temperature problem). A and B (and B0 when present) are carried along
    because G depends on the ratio AM/B.
    """

    d_u: float           # diffusivity of unfrozen zone, cm^2/s
    d_f: float           # diffusivity of frozen zone
    alpha_u: float       # sqrt(d_u)
    alpha_f: float       # sqrt(d_f)
    b_coef: float        # eps rho_w c_w / (rho_u c_u)
    d_coef: float        # eps gamma mu / K
    rho_jump: float      # (rho_w - rho_i) / rho_w
    alpha_lat: float     # eps rho_i l
    beta_coef: float     # eps d rho_i (c_w - c_i)
    m_par: float         # M = 2 d rho alpha_u^2 / A
    n_par: float         # N = 2 beta rho alpha_u^2 / alpha
    p_par: float         # p = 2 b rho
    delta1: float        # k_u B / (2 alpha alpha_u^2)
    delta2: float        # k_f A / (alpha alpha_u alpha_f sqrt(pi))
    gamma0: float        # alpha_u / alpha_f
    a_init: float
    b_ext: float
    k0: float | None = None           # k_u / (2 alpha_u h0), convective problem
    delta1_tilde: float | None = None  # k_u B0 / (2 alpha alpha_u^2)
    b0_wall: float | None = None
    classical: bool = False           # rho = 0 reduction was requested

    _FREE = ("b_coef", "d_coef", "rho_jump", "beta_coef", "m_par", "n_par", "p_par")
    # B0 comes before the delta1_tilde formed from it, so a bad B0 is named
    _POSITIVE = ("d_u", "d_f", "alpha_u", "alpha_f", "alpha_lat", "delta1", "delta2",
                 "gamma0", "a_init", "b_ext", "b0_wall", "delta1_tilde")

    def __post_init__(self):
        for name in self._FREE + self._POSITIVE + ("k0",):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise InvalidParameter(name, f"must be a finite number, got {value!r}")
            if value is not None and name in self._POSITIVE and value <= 0.0:
                raise InvalidParameter(name, f"must be > 0, got {value}")
        if self.k0 is not None and self.k0 < 0.0:
            raise InvalidParameter("k0", f"must be >= 0, got {self.k0}")

    def with_b0(self, b0: float) -> "DimensionlessParams":
        """Copy with the wall temperature (and delta1_tilde) replaced."""
        return replace(self, b0_wall=b0, delta1_tilde=self.delta1 / self.b_ext * b0)


def reduce_params(phys: PhysicalParams, classical: bool = False) -> DimensionlessParams:
    """Map dimensional parameters to the dimensionless groups.

    The density jump rho and the coupling beta are assumed nonzero; a zero
    value is a hard error unless ``classical=True``, which sets the affected
    groups (p, M, N for rho=0; N for beta=0) to zero and proceeds as the
    classical Stefan reduction.
    """
    d_u, d_f = phys.d_u, phys.d_f
    alpha_u = math.sqrt(d_u)
    alpha_f = math.sqrt(d_f)

    b = phys.epsilon * phys.rho_w * phys.c_w / (phys.rho_u * phys.c_u)
    d = phys.epsilon * phys.gamma_cc * phys.mu / phys.perm_k
    rho = phys.rho_jump
    alpha = phys.epsilon * phys.rho_i * phys.latent_l
    beta = phys.epsilon * d * phys.rho_i * (phys.c_w - phys.c_i)

    if rho == 0.0 and not classical:
        raise DegenerateDensityJump(
            "rho_w == rho_i gives rho = 0; pass classical=True for the "
            "classical Stefan reduction"
        )
    if beta == 0.0 and rho != 0.0 and not classical:
        raise DegenerateDensityJump(
            "beta = eps*d*rho_i*(c_w - c_i) = 0; pass classical=True to "
            "solve with N = 0"
        )

    if rho == 0.0:
        m_par = n_par = p_par = 0.0
    else:
        m_par = 2.0 * d * rho * d_u / phys.a_init
        n_par = 2.0 * beta * rho * d_u / alpha
        p_par = 2.0 * b * rho

    delta1 = phys.k_u * phys.b_ext / (2.0 * alpha * d_u)
    delta2 = phys.k_f * phys.a_init / (alpha * alpha_u * alpha_f * math.sqrt(math.pi))
    gamma0 = alpha_u / alpha_f

    k0 = None
    if phys.h0 is not None:
        k0 = phys.k_u / (2.0 * alpha_u * phys.h0)
    delta1_tilde = None
    if phys.b0_wall is not None:
        delta1_tilde = phys.k_u * phys.b0_wall / (2.0 * alpha * d_u)

    return DimensionlessParams(
        d_u=d_u, d_f=d_f, alpha_u=alpha_u, alpha_f=alpha_f,
        b_coef=b, d_coef=d, rho_jump=rho, alpha_lat=alpha, beta_coef=beta,
        m_par=m_par, n_par=n_par, p_par=p_par,
        delta1=delta1, delta2=delta2, gamma0=gamma0,
        a_init=phys.a_init, b_ext=phys.b_ext,
        k0=k0, delta1_tilde=delta1_tilde, b0_wall=phys.b0_wall,
        classical=classical,
    )


_FIELD_NAMES = {f.name for f in fields(PhysicalParams)}
_REQUIRED = _FIELD_NAMES - {"h0", "b0_wall"}


def parse_config_text(text: str, source: str = "<config>") -> PhysicalParams:
    """Parse a flat key=value config (one key per line, ``#`` comments)."""
    values: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}: expected key=value, got {line!r}", line=lineno)
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _FIELD_NAMES:
            raise ConfigError(f"{source}: unknown key {key!r}", line=lineno, key=key)
        if key in values:
            raise ConfigError(f"{source}: duplicate key {key!r}", line=lineno, key=key)
        try:
            values[key] = float(val.strip())
        except ValueError:
            raise ConfigError(
                f"{source}: value for {key!r} is not a number: {val.strip()!r}",
                line=lineno, key=key,
            ) from None
    missing = sorted(_REQUIRED - values.keys())
    if missing:
        raise ConfigError(f"{source}: missing keys: {', '.join(missing)}")
    return PhysicalParams(**values)


def load_config(path: str | Path) -> PhysicalParams:
    path = Path(path)
    return parse_config_text(path.read_text(), source=str(path))
