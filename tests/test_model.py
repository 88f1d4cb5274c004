import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stefan_thaw.errors import ConfigError, DegenerateDensityJump, InvalidParameter
from stefan_thaw.model import PhysicalParams, parse_config_text, reduce_params

from conftest import BASE_PARAMS, make_phys


def test_reduce_matches_hand_recomputation():
    phys = make_phys()
    dl = reduce_params(phys)
    # independent recomputation straight from the definitions
    b = BASE_PARAMS
    d_u = b["k_u"] / (b["rho_u"] * b["c_u"])
    d_f = b["k_f"] / (b["rho_f"] * b["c_f"])
    rho = (b["rho_w"] - b["rho_i"]) / b["rho_w"]
    bb = b["epsilon"] * b["rho_w"] * b["c_w"] / (b["rho_u"] * b["c_u"])
    dd = b["epsilon"] * b["gamma_cc"] * b["mu"] / b["perm_k"]
    alpha = b["epsilon"] * b["rho_i"] * b["latent_l"]
    beta = b["epsilon"] * dd * b["rho_i"] * (b["c_w"] - b["c_i"])

    assert dl.d_u == pytest.approx(d_u, rel=1e-15)
    assert dl.d_f == pytest.approx(d_f, rel=1e-15)
    assert dl.m_par == pytest.approx(2 * dd * rho * d_u / b["a_init"], rel=1e-14)
    assert dl.n_par == pytest.approx(2 * beta * rho * d_u / alpha, rel=1e-14)
    assert dl.p_par == pytest.approx(2 * bb * rho, rel=1e-14)
    assert dl.delta1 == pytest.approx(b["k_u"] * b["b_ext"] / (2 * alpha * d_u), rel=1e-14)
    assert dl.delta2 == pytest.approx(
        b["k_f"] * b["a_init"] / (alpha * math.sqrt(d_u) * math.sqrt(d_f) * math.sqrt(math.pi)),
        rel=1e-14,
    )
    assert dl.k0 == pytest.approx(b["k_u"] / (2 * math.sqrt(d_u) * b["h0"]), rel=1e-14)
    assert dl.gamma0 == pytest.approx(math.sqrt(d_u / d_f), rel=1e-14)
    # the density jump here is small and positive, so p is too
    assert 0.0 < dl.p_par < 1.0
    assert all(map(math.isfinite, (dl.m_par, dl.n_par, dl.p_par)))


def test_equal_densities_is_degenerate():
    phys = make_phys(rho_i=1.0)
    with pytest.raises(DegenerateDensityJump):
        reduce_params(phys)


def test_classical_mode_zeroes_the_coupling():
    dl = reduce_params(make_phys(rho_i=1.0), classical=True)
    assert dl.m_par == dl.n_par == dl.p_par == 0.0
    assert dl.classical


def test_equal_specific_heats_zero_beta():
    phys = make_phys(c_i=1.0)  # c_w == c_i -> beta = 0
    with pytest.raises(DegenerateDensityJump):
        reduce_params(phys)
    dl = reduce_params(phys, classical=True)
    assert dl.n_par == 0.0
    assert dl.m_par != 0.0


@pytest.mark.parametrize("field,value", [
    ("epsilon", 0.0), ("epsilon", 1.0), ("rho_w", -1.0), ("k_u", 0.0),
    ("latent_l", -5.0), ("a_init", 0.0), ("h0", -0.1),
])
def test_invalid_parameters_name_the_field(field, value):
    with pytest.raises(InvalidParameter) as exc:
        make_phys(**{field: value})
    assert exc.value.field == field


@pytest.mark.parametrize("field, overrides, message", [
    ("d_f", dict(k_f=1e-200, rho_f=1e200, c_f=1e200), "must be > 0, got 0.0"),
    ("d_u", dict(k_u=1e300, rho_u=1e-10, c_u=1e-10), "must be a finite number, got inf"),
], ids=["d_f", "d_u"])
def test_derived_diffusivities_checked(field, overrides, message):
    with pytest.raises(InvalidParameter) as exc:
        make_phys(**overrides)
    assert (exc.value.field, str(exc.value)) == (field, f"{field}: {message}")


BAD_GROUPS = [
    ("p_par", math.nan, "must be a finite number, got nan"),
    ("m_par", -math.inf, "must be a finite number, got -inf"),
    ("gamma0", 0.0, "must be > 0, got 0.0"),
    ("delta2", -1.0, "must be > 0, got -1.0"),
    ("alpha_lat", math.inf, "must be a finite number, got inf"),
    ("k0", -1e-3, "must be >= 0, got -0.001"),
    ("delta1_tilde", 0.0, "must be > 0, got 0.0"),
]


@pytest.mark.parametrize("field, value, message", BAD_GROUPS,
                         ids=[f"{field}-{value}" for field, value, _ in BAD_GROUPS])
def test_dimensionless_groups_checked(field, value, message):
    dl = reduce_params(make_phys(b0_wall=3.0))
    with pytest.raises(InvalidParameter) as exc:
        replace(dl, **{field: value})
    assert (exc.value.field, str(exc.value)) == (field, f"{field}: {message}")


def test_dimensionless_groups_allowed():
    dl = reduce_params(make_phys())
    assert replace(dl, k0=0.0).k0 == 0.0            # the fixed-wall Robin group
    assert replace(dl, m_par=-1.0, n_par=0.0, p_par=0.0).m_par == -1.0
    for b0 in (-3.0, 0.0, math.nan):                # a bad B0 is named, not delta1~
        with pytest.raises(InvalidParameter) as exc:
            dl.with_b0(b0)
        assert exc.value.field == "b0_wall"


def test_one_boundary_coefficient_required():
    params = dict(BASE_PARAMS)
    params.pop("h0")
    with pytest.raises(InvalidParameter):
        PhysicalParams(**params)
    # b0_wall alone is fine
    PhysicalParams(**params, b0_wall=3.0)


@given(lam=st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=30, deadline=None)
def test_conductivity_scaling(lam):
    # scaling k_U, k_F, h0 by lambda at fixed diffusivities (bulk heat
    # capacities co-scaled) multiplies delta1, delta2 by lambda and leaves
    # K0, gamma0 unchanged
    base = reduce_params(make_phys())
    scaled = reduce_params(make_phys(
        k_u=BASE_PARAMS["k_u"] * lam, k_f=BASE_PARAMS["k_f"] * lam,
        rho_u=BASE_PARAMS["rho_u"] * lam, rho_f=BASE_PARAMS["rho_f"] * lam,
        h0=BASE_PARAMS["h0"] * lam,
    ))
    assert scaled.d_u == pytest.approx(base.d_u, rel=1e-14)
    assert scaled.delta1 == pytest.approx(base.delta1 * lam, rel=1e-12)
    assert scaled.delta2 == pytest.approx(base.delta2 * lam, rel=1e-12)
    assert scaled.k0 == pytest.approx(base.k0, rel=1e-12)
    assert scaled.gamma0 == pytest.approx(base.gamma0, rel=1e-14)


def test_reduce_is_deterministic():
    phys = make_phys()
    assert reduce_params(phys) == reduce_params(phys)


def test_with_b0_rescales_delta1_tilde():
    dl = reduce_params(make_phys(b0_wall=3.0))
    assert dl.delta1_tilde == pytest.approx(dl.delta1 * 3.0 / dl.b_ext, rel=1e-14)
    dl2 = dl.with_b0(6.0)
    assert dl2.delta1_tilde == pytest.approx(2.0 * dl.delta1_tilde, rel=1e-14)


CONFIG_OK = "\n".join(f"{k} = {v}" for k, v in BASE_PARAMS.items())


def test_config_roundtrip():
    phys = parse_config_text(CONFIG_OK + "\n# trailing comment\n")
    assert phys == make_phys()


def test_config_unknown_key():
    with pytest.raises(ConfigError) as exc:
        parse_config_text(CONFIG_OK + "\nbogus_key = 1.0\n")
    assert exc.value.key == "bogus_key"


def test_config_bad_number_and_missing_key():
    with pytest.raises(ConfigError, match="not a number"):
        parse_config_text(CONFIG_OK.replace("epsilon = 0.4", "epsilon = banana"))
    with pytest.raises(ConfigError, match="missing"):
        parse_config_text("epsilon = 0.4\n")


def test_config_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text(CONFIG_OK + "\nepsilon = 0.3\n")
