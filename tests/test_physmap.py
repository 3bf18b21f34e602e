"""Flow-angle recovery and physical-plane reconstruction."""

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

import jetstream as js
import oracle_data as od
from jetstream import errors, physmap


def _recon(sol, gas, cfg):
    angles = js.recover_theta(sol.field, gas, cfg)
    phys = js.reconstruct(sol.field, angles, cfg, gas)
    return angles, phys


# ---------------------------------------------------------------------------
# Angle recovery


def test_symmetric_theta_matches_exact(sym_free_runs, gas, cfg, consts):
    sol = sym_free_runs[64]
    angles = js.recover_theta(sol.field, gas, cfg)
    sym = js.SymmetricSolution(gas, cfg, consts)
    theta_exact = sym.theta_hat(sol.field.grid.psi_nodes)
    assert np.max(np.abs(angles.theta - theta_exact[None, :])) < 1e-12
    assert angles.discrepancy < 1e-12


def test_theta_anchored_on_axis(asym_free, gas, cfg):
    angles = js.recover_theta(asym_free.field, gas, cfg)
    assert np.max(np.abs(angles.theta[:, 0])) == 0.0
    # wall side is steered toward -vartheta, axis toward 0
    assert np.all(angles.theta <= 1e-15)


def test_angle_estimate_matches_scipy_pchip_probes(asym_free, gas, cfg):
    # The error probes restated with scipy's PCHIP objects: antiderivative
    # minus trapezoid, and derivative minus stencil at the nodes.
    field = asym_free.field
    grid = field.grid
    phi, psi = grid.phi_nodes, grid.psi_nodes
    dQ = physmap._dQ_dphi(field, gas, cfg)
    dF = physmap._dF_dpsi(field, gas)
    F = np.asarray(gas.fast_F_of_A(field.Q))

    def quad(x, y):
        return np.max(np.abs(PchipInterpolator(x, y).antiderivative()(x)
                             - physmap._cumtrapz(y, x, axis=0)))

    def stencil(x, y, dy):
        return np.max(np.abs(PchipInterpolator(x, y).derivative()(x) - dy))

    want = (
        quad(psi, dQ.T) + quad(phi, dF) + stencil(phi, field.Q, dQ) * grid.m
        + stencil(psi, F.T, dF.T) * grid.xi + field.residual_norm * grid.xi * grid.m
    )
    got = js.recover_theta(field, gas, cfg).estimate
    assert abs(got - want) <= 1e-12 * want


def test_consistency_guard_flags_non_solution_fields(gas, cfg, consts):
    # A field whose cross-derivative compatibility is broken, but which looks
    # smooth to every single-coordinate probe (inlet slope matches the Robin
    # derivative, zero normal derivative at both psi edges), must raise once
    # its residual norm understates the equation violation.
    zh = consts.zeta_hat
    grid = js.build_grid(zh / 2, zh, cfg.m, 32, 16, consts)
    a_cm = float(gas.fast_A(consts.c_m))
    a_ce = float(gas.fast_A(consts.c_e))
    P, S = np.meshgrid(grid.phi_nodes, grid.psi_nodes, indexing="ij")
    envelope = 0.5 * (1.0 - np.cos(np.pi * S / cfg.m))
    Q = a_cm + (a_ce - a_cm) * P / zh - 0.005 * (P / zh) ** 2 * envelope
    field = js.SpeedField(
        grid=grid, Q=Q, q=gas.fast_q_of_A(Q), residual_norm=0.0, newton_iters=0
    )
    with pytest.raises(errors.NonconvergenceError):
        js.recover_theta(field, gas, cfg)


# ---------------------------------------------------------------------------
# Reconstruction


def test_symmetric_potential_oracle_second_order(sym_free_runs, gas, cfg, consts):
    # phi_hat(x, y) at the reconstructed nodes recovers the potential
    # coordinate; the error contracts at second order under refinement.
    sym = js.SymmetricSolution(gas, cfg, consts)
    errs = {}
    for n in (64, 128):
        sol = sym_free_runs[n]
        _, phys = _recon(sol, gas, cfg)
        # Reconstructed nodes sit O(h^2) off the exact annular sector, so clip
        # into phi_hat's domain and count the clip distance toward the error.
        r = np.hypot(phys.x, phys.y)
        ang = np.arctan2(phys.y, -phys.x)
        r_c = np.clip(r, consts.R_hat, cfg.R0)
        ang_c = np.clip(ang, 0.0, cfg.vartheta)
        phi_back = sym.phi_hat(-r_c * np.cos(ang_c), r_c * np.sin(ang_c))
        errs[n] = float(
            np.max(np.abs(phi_back - sol.field.grid.phi_nodes[:, None]))
            + np.max(np.abs(r - r_c))
        )
    assert errs[128] < errs[64] / 2.5, f"potential errors {errs}"


def test_symmetric_outlet_arc_radius(sym_free_runs, gas, cfg):
    sol = sym_free_runs[128]
    _, phys = _recon(sol, gas, cfg)
    r = np.hypot(phys.outlet_curve[:, 0], phys.outlet_curve[:, 1])
    assert np.max(np.abs(r - od.R_HAT)) < 5e-5


def test_symmetric_has_no_free_streamline(sym_free_runs, gas, cfg):
    sol = sym_free_runs[64]
    angles, phys = _recon(sol, gas, cfg)
    assert phys.free_streamline.shape == (0, 2)
    assert phys.outlet_curve.shape[0] == sol.field.grid.n_psi + 1


def test_inlet_arc_endpoints_and_radius(asym_free, gas, cfg):
    _, phys = _recon(asym_free, gas, cfg)
    inlet = phys.inlet_curve
    assert np.allclose(inlet[0], [-od.R0, 0.0], atol=1e-14)
    end = [-od.R0 * np.cos(od.VARTHETA), od.R0 * np.sin(od.VARTHETA)]
    assert np.allclose(inlet[-1], end, atol=1e-12)
    assert np.max(np.abs(np.hypot(inlet[:, 0], inlet[:, 1]) - od.R0)) < 1e-12


def test_curves_share_junction_vertices(asym_free, gas, cfg):
    _, phys = _recon(asym_free, gas, cfg)
    assert np.array_equal(phys.inlet_curve[-1], phys.wall_curve[0])
    assert np.array_equal(phys.wall_curve[-1], phys.free_streamline[0])
    assert np.array_equal(phys.free_streamline[-1], phys.outlet_curve[-1])
    assert phys.outlet_curve[0, 1] == 0.0  # outlet starts on the axis


def test_outlet_mass_flux_recovered(asym_free, gas, cfg):
    _, phys = _recon(asym_free, gas, cfg)
    assert abs(phys.mass_flux_out - od.M_FLUX) <= 1e-3 * od.M_FLUX


def test_fold_over_detection(asym_free, gas, cfg):
    from dataclasses import replace

    angles = js.recover_theta(asym_free.field, gas, cfg)
    theta_bad = angles.theta.copy()
    mid = asym_free.field.grid.n_phi // 2
    theta_bad[mid:, :] += np.pi  # reverse the marching direction mid-domain
    bad = replace(angles, theta=theta_bad)
    with pytest.raises(errors.FoldOverError):
        js.reconstruct(asym_free.field, bad, cfg, gas)


# ---------------------------------------------------------------------------
# Geometry checks


def test_geometry_checks_all_pass_on_good_runs(asym_free, gas, cfg):
    angles, phys = _recon(asym_free, gas, cfg)
    checks = js.geometry_checks(phys, angles, asym_free.field, gas, cfg)
    failed = [c.name for c in checks if not c.passed]
    assert not failed, f"failing checks: {failed}"
    names = {c.name for c in checks}
    for expected in (
        "inlet_circularity",
        "wall_collinearity",
        "wall_angle",
        "free_convexity",
        "outlet_convexity",
        "mass_flux_columns",
    ):
        assert expected in names


def test_wall_endpoint_radius_check(gas, cfg, consts, opts64):
    R = 0.92
    sol = js.match_R(R, cfg, gas, consts, opts64)
    angles, phys = _recon(sol, gas, cfg)
    checks = js.geometry_checks(phys, angles, sol.field, gas, cfg, R=R)
    by_name = {c.name: c for c in checks}
    assert "wall_endpoint_radius" in by_name
    assert by_name["wall_endpoint_radius"].passed
    # the same flow graded against the wrong radius must fail that check
    wrong = js.geometry_checks(phys, angles, sol.field, gas, cfg, R=0.7)
    by_name_wrong = {c.name: c for c in wrong}
    assert not by_name_wrong["wall_endpoint_radius"].passed
