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


# The A-indexed lookups: one cubic Hermite table each, on knots uniform in
# s = sqrt(-A), against the quadrature path at the exact speed.
_A_LOOKUPS = ("fast_q_of_A", "fast_F_of_A", "fast_Fprime_of_A")


def test_A_indexed_lookups_match_quadrature(gas):
    cs = gas.c_star
    qs = np.concatenate([np.geomspace(1e-3, 0.05, 6), np.linspace(0.05, 0.999, 24) * cs])
    for q in qs:
        a = js.flux_A(gas, q)
        assert abs(gas.fast_q_of_A(a) - q) < 1e-11, q
        assert abs(gas.fast_F_of_A(a) - js.flux_B(gas, q)) < 1e-11, q
        assert abs(gas.fast_Fprime_of_A(a) / gas.f_prime_of_q(q) - 1.0) < 1e-8, q


def test_A_indexed_lookups_clip_at_the_table_ends(gas):
    # The tables span A(q) for q in [q_knots[0], q_knots[-1]]; arguments
    # beyond either end, positive A included, read the end value.
    lo, hi = float(gas._a_knots[0]), float(gas._a_knots[-1])
    q_lo, q_hi = float(gas._q_knots[0]), float(gas._q_knots[-1])
    ends = {
        "fast_q_of_A": (q_lo, q_hi),
        "fast_F_of_A": (float(gas._b_knots[0]), float(gas._b_knots[-1])),
        "fast_Fprime_of_A": (gas.f_prime_of_q(q_lo), gas.f_prime_of_q(q_hi)),
    }
    for name in _A_LOOKUPS:
        f = getattr(gas, name)
        want_lo, want_hi = ends[name]
        assert f(lo) == pytest.approx(want_lo, rel=1e-12, abs=1e-15), name
        assert f(hi) == pytest.approx(want_hi, rel=1e-9), name
        for beyond in (lo - 1.0, np.nextafter(lo, -np.inf)):
            assert f(beyond) == f(lo), name
        for beyond in (np.nextafter(hi, np.inf), 0.0, 1.0):
            assert f(beyond) == f(hi), name


def test_A_indexed_lookups_keep_the_argument_shape(gas):
    a = gas.fast_A(np.linspace(0.05, 0.99, 12).reshape(3, 4) * gas.c_star)
    for name in _A_LOOKUPS:
        f = getattr(gas, name)
        for scalar in (-0.5, np.float64(-0.5), np.array(-0.5)):
            assert np.ndim(f(scalar)) == 0, name
        out = f(a)
        assert out.shape == (3, 4), name
        assert np.array_equal(out.ravel(), [f(v) for v in a.ravel()]), name


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
