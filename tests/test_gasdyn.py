"""Gas relations, flux primitives, and the derived-constants record."""

import math

import numpy as np
import pytest

import jetstream as js
import oracle_data as od
from jetstream import errors, gasdyn


def test_sonic_speed_and_density(gas):
    assert abs(gas.c_star - od.C_STAR) < 1e-14
    assert abs(gas.rho(gas.c_star) - od.RHO_CSTAR) < 1e-14
    assert abs(gas.rho(od.C_E) - od.RHO_CE) < 1e-14
    assert gas.rho(0.0) == 1.0


def test_pressure_values(gas):
    assert abs(js.pressure(gas, gas.rho(od.C_E)) - od.P_E) < 1e-14
    assert abs(js.pressure(gas, gas.rho(gas.c_star)) - od.P_SONIC) < 1e-14
    assert abs(js.pressure(gas, 1.0) - od.P_STAG) < 1e-14


def test_mass_flux_peak_at_sonic(gas):
    assert abs(js.mass_flux(gas, gas.c_star) - od.J_MAX) < 1e-14
    eps = 1e-4
    assert js.mass_flux(gas, gas.c_star - eps) < od.J_MAX
    # mass flux is strictly increasing on the subsonic branch
    qs = np.linspace(0.01, gas.c_star, 200)
    assert np.all(np.diff(js.mass_flux(gas, qs)) > 0)


def test_flux_values_against_oracles(gas):
    assert abs(js.flux_A(gas, od.C_E) - od.A_CE) < 1e-12
    assert abs(js.flux_B(gas, od.C_E) - od.B_CE) < 1e-12
    assert abs(js.flux_A(gas, 0.7) - od.A_07) < 1e-12
    assert abs(js.flux_B(gas, 0.7) - od.B_07) < 1e-12
    # both anchored to zero at the sonic speed
    assert abs(js.flux_A(gas, gas.c_star)) < 1e-12
    assert abs(js.flux_B(gas, gas.c_star)) < 1e-12


def test_flux_round_trips(gas):
    rng = np.random.default_rng(31)
    for q in rng.uniform(0.05 * gas.c_star, 0.999 * gas.c_star, 10):
        assert abs(js.flux_A_inverse(gas, js.flux_A(gas, q)) - q) < 1e-11
    for q in rng.uniform(0.05 * gas.c_star, 0.95 * gas.c_star, 10):
        assert abs(js.mass_flux_inverse(gas, js.mass_flux(gas, q)) - q) < 1e-11


def test_flux_E_composition(gas):
    # E = A after B^{-1}: E(B(q)) = A(q)
    for q in (0.3, 0.55, 0.8):
        assert abs(js.flux_E(gas, js.flux_B(gas, q)) - js.flux_A(gas, q)) < 1e-11


def test_f_prime_positive_and_oracle(gas):
    got = gas.fast_Fprime_of_A(od.A_07)
    assert abs(got - od.FPRIME_AT_A07) < 1e-7
    a_grid = gas.fast_A(np.linspace(0.05, 0.99 * gas.c_star, 200))
    assert np.all(gas.fast_Fprime_of_A(a_grid) > 0)


def test_fast_tables_match_quadrature(gas):
    qs = np.linspace(0.05, 0.995 * gas.c_star, 17)
    for q in qs:
        assert abs(gas.fast_A(q) - js.flux_A(gas, q)) < 1e-10
        assert abs(gas.fast_B(q) - js.flux_B(gas, q)) < 1e-10
        assert abs(gas.fast_q_of_A(js.flux_A(gas, q)) - q) < 1e-11


def test_vacuum_limit_guard():
    gas = js.GasModel(1.4)
    with pytest.raises(errors.ConstraintError):
        gas.rho(10.0)


def test_gamma_must_exceed_one():
    with pytest.raises(errors.ConstraintError):
        js.GasModel(1.0)


def test_gamma_must_be_finite():
    with pytest.raises(errors.ConstraintError):
        js.GasModel(math.inf)


@pytest.mark.parametrize("key", ["R0", "m"])
def test_flow_config_rejects_infinite_R0_and_m(key):
    kwargs = dict(R0=1.0, vartheta=0.5, m=0.25, c_e=0.8)
    kwargs[key] = math.inf
    with pytest.raises(errors.ConfigError):
        js.FlowConfig(**kwargs)


def test_flow_config_needs_exactly_one_outlet_condition():
    with pytest.raises(errors.ConfigError):
        js.FlowConfig(R0=1.0, vartheta=0.5, m=0.25)
    with pytest.raises(errors.ConfigError):
        js.FlowConfig(R0=1.0, vartheta=0.5, m=0.25, c_e=0.8, P_e=0.4)


def test_c_e_from_pressure_matches_direct(gas, cfg, consts):
    cfg_p = js.FlowConfig(R0=1.0, vartheta=od.VARTHETA, m=0.25, P_e=od.P_E)
    consts_p = js.derive_constants(gas, cfg_p)
    assert abs(consts_p.c_e - od.C_E) < 1e-12
    assert abs(consts_p.zeta_hat - consts.zeta_hat) < 1e-12


def test_derived_constants_match_oracles(consts):
    assert abs(consts.c_m - od.C_M) < 1e-12
    assert abs(consts.c_l - od.C_L) < 1e-12
    assert abs(consts.zeta_hat - od.ZETA_HAT) < 1e-12
    assert abs(consts.R_hat - od.R_HAT) < 1e-12
    assert abs(consts.zeta_cap - od.ZETA_CAP) < 1e-12
    assert abs(consts.m_window[0] - od.M_WINDOW_LO) < 1e-10
    assert abs(consts.m_window[1] - od.M_WINDOW_HI) < 1e-10
    assert consts.admissible


def test_zeta_hat_below_cap_even_outside_window(gas):
    # The cap inequality zeta_hat < R0 c_l holds for every m, including
    # inadmissible ones below the window, so it cannot certify admissibility.
    cfg = js.FlowConfig(
        R0=od.R0, vartheta=od.VARTHETA, m=od.M_BELOW_WINDOW, c_e=od.C_E
    )
    c = js.derive_constants(gas, cfg)
    assert not c.admissible
    assert abs(c.c_m - od.C_M_BELOW_WINDOW) < 1e-10
    assert abs(c.zeta_hat - od.ZETA_HAT_BELOW_WINDOW) < 1e-10
    assert 0.0 < c.zeta_hat < od.R0 * c.c_l


def test_infeasible_mass_flux_raises(gas):
    # m larger than the sonic-throat maximum R0 vartheta j_max cannot pass
    # through the inlet at all.
    m_max = od.R0 * od.VARTHETA * od.J_MAX
    cfg = js.FlowConfig(R0=od.R0, vartheta=od.VARTHETA, m=1.01 * m_max, c_e=od.C_E)
    with pytest.raises(errors.ConstraintError):
        js.derive_constants(gas, cfg)


def test_density_pressure_helpers(gas):
    assert abs(js.density(gas, od.C_E) - od.RHO_CE) < 1e-14
    rho = js.density(gas, 0.5)
    assert js.pressure(gas, rho) == pytest.approx(rho**1.4 / 1.4, abs=1e-15)
