"""Recovery of the flow angle and the physical-plane geometry.

The potential-stream coordinates satisfy

    d theta / d psi = - dQ/dphi,        d theta / d phi = dF(Q)/dpsi,

with theta = 0 on the axis psi = 0, so the angle can be integrated two
independent ways: up each column from the axis (primary), or across each row
from the inlet trace theta(0, psi) = -s(psi)/R0 (the inlet arc is circular
and the flow crosses it normally).  The mismatch of the two paths is the
discretization's residual circulation; it is compared against an a priori
estimate built from quadrature probes, stencil probes, and the solver
residual, and a disagreement beyond 10x the estimate is an error.

Physical coordinates follow from integrating

    dx = cos(theta)/q dphi - sin(theta)/(rho q) dpsi,
    dy = sin(theta)/q dphi + cos(theta)/(rho q) dpsi

along streamlines (phi rows), seeded on the inlet arc x^2 + y^2 = R0^2; the
psi-direction relations are reserved as checks.  ``reconstruct`` verifies
every cell of the image mesh has positive orientation and raises
FoldOverError at the first folded cell.  ``geometry_checks`` audits the
reconstructed flow against the facts the continuum solution must satisfy
(straight axis and wall, circular inlet, angle range, monotone convex free
streamline and outlet curve, mass balance) without raising; the speed
bounds belong to the field, which ``solve_fixed`` has already checked
(``checks.field_checks``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .checks import Check, angle_check, check
from .errors import FoldOverError, NonconvergenceError
from .fixedbvp import SpeedField, inlet_flux
from .gasdyn import FlowConfig, GasModel


@dataclass(frozen=True, eq=False)
class AngleField:
    """Flow angle on the solver grid, integrated along both coordinate paths.

    ``theta`` is the axis-anchored column integral (the field of record);
    ``theta_cross`` the inlet-anchored row integral kept for diagnostics;
    ``discrepancy`` their max mismatch and ``estimate`` its a priori bound."""

    theta: np.ndarray
    theta_cross: np.ndarray
    discrepancy: float
    estimate: float


@dataclass(frozen=True, eq=False)
class PhysicalField:
    """Image of the solver grid in the physical plane plus its boundary
    curves, each an (n, 2) array of (x, y) samples.  Adjacent curves share
    junction vertices at identical indices (exact float equality), so
    stitching drops duplicates by index, never by coordinate comparison.
    ``free_streamline`` is empty (0, 2) for a symmetric run (zeta == xi)."""

    x: np.ndarray
    y: np.ndarray
    inlet_curve: np.ndarray
    wall_curve: np.ndarray
    free_streamline: np.ndarray
    outlet_curve: np.ndarray
    mass_flux_out: float


def _cumtrapz(y: np.ndarray, x: np.ndarray, axis: int = 0) -> np.ndarray:
    yl = np.moveaxis(np.asarray(y, dtype=float), axis, 0)
    dx = np.diff(np.asarray(x, dtype=float)).reshape((-1,) + (1,) * (yl.ndim - 1))
    seg = 0.5 * (yl[1:] + yl[:-1]) * dx
    out = np.concatenate([np.zeros((1,) + yl.shape[1:]), np.cumsum(seg, axis=0)])
    return np.moveaxis(out, 0, axis)


def _dQ_dphi(field: SpeedField, gas: GasModel, cfg: FlowConfig) -> np.ndarray:
    """phi-derivative of Q at every node: the inlet row uses the boundary
    relation dQ/dphi = 1/(R0 q rho) exactly, interior rows the nonuniform
    centered stencil, the outlet row a one-sided second-order stencil."""
    grid = field.grid
    Q = field.Q
    phi = grid.phi_nodes
    h = np.diff(phi)
    out = np.empty_like(Q)
    out[0, :] = inlet_flux(field.q[0, :], gas, cfg)
    hW = h[:-1, None]
    hE = h[1:, None]
    out[1:-1, :] = (
        hW**2 * Q[2:, :] - hE**2 * Q[:-2, :] - (hW**2 - hE**2) * Q[1:-1, :]
    ) / (hW * hE * (hW + hE))
    h2 = h[-1]
    out[-1, :] = (3.0 * Q[-1, :] - 4.0 * Q[-2, :] + Q[-3, :]) / (2.0 * h2)
    return out


def _dF_dpsi(field: SpeedField, gas: GasModel) -> np.ndarray:
    """psi-derivative of F(Q): zero on the axis and the wetted wall (straight
    boundaries), centered inside, one-sided on the free part of the top."""
    grid = field.grid
    F = np.asarray(gas.fast_F_of_A(field.Q))
    k = grid.psi_nodes[1] - grid.psi_nodes[0]
    out = np.empty_like(F)
    out[:, 0] = 0.0
    out[:, 1:-1] = (F[:, 2:] - F[:, :-2]) / (2.0 * k)
    out[:, -1] = (3.0 * F[:, -1] - 4.0 * F[:, -2] + F[:, -3]) / (2.0 * k)
    out[: grid.zeta_index + 1, -1] = 0.0
    return out


def _inlet_arclength(field: SpeedField, gas: GasModel) -> np.ndarray:
    q0 = field.q[0, :]
    return _cumtrapz(1.0 / (q0 * np.asarray(gas.rho(q0))), field.grid.psi_nodes, axis=0)


def recover_theta(field: SpeedField, gas: GasModel, cfg: FlowConfig) -> AngleField:
    """Integrate the flow angle along both coordinate paths.

    Raises NonconvergenceError if the cross-path discrepancy fails
    ``checks.angle_check``, 10x the combined truncation/residual estimate
    (a discrete incompatibility of the field with the angle system)."""
    grid = field.grid
    phi, psi = grid.phi_nodes, grid.psi_nodes
    dQdphi = _dQ_dphi(field, gas, cfg)
    dFdpsi = _dF_dpsi(field, gas)

    theta = -_cumtrapz(dQdphi, psi, axis=1)
    s_in = _inlet_arclength(field, gas)
    theta_cross = -s_in[None, :] / cfg.R0 + _cumtrapz(dFdpsi, phi, axis=0)

    discrepancy = float(np.max(np.abs(theta - theta_cross)))

    # Error probes against the monotone cubic (PCHIP) through the nodes:
    # quadrature (trapezoid against the PCHIP antiderivative, which exceeds
    # it by h^2 (d_k - d_k+1) / 12 on a cell of width h with PCHIP node
    # slopes d_k), stencils (finite difference against the PCHIP slope,
    # integrated over the path length), and the residual circulation over
    # the domain.
    pchip, excess = numerics.pchip_slopes, numerics.hermite_excess
    e_quad_psi = float(np.max(np.abs(excess(psi, pchip(psi, dQdphi.T)))))
    e_quad_phi = float(np.max(np.abs(excess(phi, pchip(phi, dFdpsi)))))
    e_sten_phi = float(np.max(np.abs(pchip(phi, field.Q) - dQdphi))) * grid.m
    F = np.asarray(gas.fast_F_of_A(field.Q))
    e_sten_psi = float(np.max(np.abs(pchip(psi, F.T) - dFdpsi.T))) * grid.xi
    e_resid = field.residual_norm * grid.xi * grid.m
    estimate = max(e_quad_psi + e_quad_phi + e_sten_phi + e_sten_psi + e_resid, 1e-14)

    if not angle_check(discrepancy, estimate).passed:
        raise NonconvergenceError(
            f"angle integration paths disagree by {discrepancy:.3e}, beyond "
            f"10x the truncation/residual estimate {estimate:.3e}",
            estimate=estimate,
        )
    return AngleField(
        theta=theta,
        theta_cross=theta_cross,
        discrepancy=discrepancy,
        estimate=estimate,
    )


def reconstruct(
    field: SpeedField, angles: AngleField, cfg: FlowConfig, gas: GasModel
) -> PhysicalField:
    """Map the solver grid into the physical plane by marching streamlines
    from the circular inlet arc; raises FoldOverError on the first cell whose
    image has nonpositive orientation."""
    grid = field.grid
    phi = grid.phi_nodes
    theta, q = angles.theta, field.q
    rho = np.asarray(gas.rho(q))

    s_in = _inlet_arclength(field, gas)
    alpha = s_in / cfg.R0
    x0 = -cfg.R0 * np.cos(alpha)
    y0 = cfg.R0 * np.sin(alpha)

    x = x0[None, :] + _cumtrapz(np.cos(theta) / q, phi, axis=0)
    y = y0[None, :] + _cumtrapz(np.sin(theta) / q, phi, axis=0)

    ex = np.diff(x, axis=0)[:, :-1]
    ey = np.diff(y, axis=0)[:, :-1]
    fx = np.diff(x, axis=1)[:-1, :]
    fy = np.diff(y, axis=1)[:-1, :]
    orient = ex * fy - ey * fx
    if float(orient.min()) <= 0.0:
        i, j = np.unravel_index(int(np.argmin(orient)), orient.shape)
        raise FoldOverError(
            f"physical mesh folds over at cell ({i}, {j}): orientation "
            f"{float(orient[i, j]):.3e}",
            i=int(i),
            j=int(j),
        )

    iz = grid.zeta_index
    inlet_curve = np.column_stack([x[0, :], y[0, :]])
    wall_curve = np.column_stack([x[: iz + 1, -1], y[: iz + 1, -1]])
    if iz < grid.n_phi:
        free_streamline = np.column_stack([x[iz:, -1], y[iz:, -1]])
    else:
        free_streamline = np.empty((0, 2))
    outlet_curve = np.column_stack([x[-1, :], y[-1, :]])

    seg = np.hypot(np.diff(x[-1, :]), np.diff(y[-1, :]))
    flux_density = rho[-1, :] * q[-1, :]
    mid = 0.5 * (flux_density[1:] + flux_density[:-1])
    mass_flux_out = float(np.sum(mid * seg))

    return PhysicalField(
        x=x,
        y=y,
        inlet_curve=inlet_curve,
        wall_curve=wall_curve,
        free_streamline=free_streamline,
        outlet_curve=outlet_curve,
        mass_flux_out=mass_flux_out,
    )


def geometry_checks(
    phys: PhysicalField,
    angles: AngleField,
    field: SpeedField,
    gas: GasModel,
    cfg: FlowConfig,
    R: float | None = None,
) -> list[Check]:
    """Audit the reconstructed flow against the exact geometric facts.

    Tolerances separate exact-by-construction identities (roundoff level)
    from genuinely discretized quantities (an h^2-scaled allowance on top of
    a fixed floor).  Never raises; failed checks land in the returned list
    alongside the passing ones, each with its measured value and tolerance.
    """
    grid = field.grid
    checks: list[Check] = []
    h_bar = float(np.max(np.diff(grid.phi_nodes)))
    k = float(grid.psi_nodes[1] - grid.psi_nodes[0])
    disc = (h_bar**2 + k**2) * cfg.R0

    def add(name, measured, tolerance):
        checks.append(check(name, measured, tolerance))

    # Inlet arc is seeded on the circle; any drift means a seeding bug.
    radii = np.hypot(phys.inlet_curve[:, 0], phys.inlet_curve[:, 1])
    add("inlet_circularity", np.max(np.abs(radii - cfg.R0)), 1e-9 * cfg.R0)

    # The flow crosses the inlet normally: theta(0, psi) == -s(psi)/R0, an
    # identity of the column-path integration.
    s_in = _inlet_arclength(field, gas)
    add("inlet_normality", np.max(np.abs(angles.theta[0, :] + s_in / cfg.R0)), 1e-12)

    # Straight boundaries.
    add("axis_collinearity", np.max(np.abs(phys.y[:, 0])), 1e-10 * cfg.R0)
    t = cfg.vartheta
    wall_line = np.abs(
        phys.wall_curve[:, 0] * math.sin(t) + phys.wall_curve[:, 1] * math.cos(t)
    )
    add("wall_collinearity", np.max(wall_line), 1e-6 * cfg.R0 + 50.0 * disc)
    # The detachment node sits on the gradient singularity, where the angle
    # integral converges only like sqrt(h); check it separately at that
    # scale and hold the rest of the wetted wall to the tight tolerance.
    wall_theta = angles.theta[: grid.zeta_index, -1]
    add("wall_angle", np.max(np.abs(wall_theta + t)), 1e-6 + 100.0 * disc)
    h_w = grid.phi_nodes[grid.zeta_index] - grid.phi_nodes[grid.zeta_index - 1]
    add(
        "detachment_angle",
        abs(float(angles.theta[grid.zeta_index, -1]) + t),
        1e-6 + 1.5 * math.sqrt(h_w),
    )

    # Angle range [-vartheta, 0] up to discretization.
    add("theta_min", -(float(angles.theta.min()) + t), 1e-8 + 100.0 * disc)
    add("theta_max", float(angles.theta.max()), 1e-10)

    # Free streamline: x strictly increasing, slope in (-tan vartheta, 0),
    # convex (nonnegative signed-curvature numerator along the curve).
    fs = phys.free_streamline
    if len(fs) >= 2:
        dx = np.diff(fs[:, 0])
        dy = np.diff(fs[:, 1])
        add("free_x_increasing", -float(dx.min()), 1e-14)
        slopes = dy / np.where(dx > 0, dx, np.inf)
        add("free_slope_upper", float(slopes.max()), 1e-9 + 50.0 * disc)
        add("free_slope_lower", -(float(slopes.min()) + math.tan(t)), 1e-9 + 50.0 * disc)
    if len(fs) >= 3:
        xp = 0.5 * (fs[2:, 0] - fs[:-2, 0])
        yp = 0.5 * (fs[2:, 1] - fs[:-2, 1])
        xpp = fs[2:, 0] - 2.0 * fs[1:-1, 0] + fs[:-2, 0]
        ypp = fs[2:, 1] - 2.0 * fs[1:-1, 1] + fs[:-2, 1]
        kappa = xp * ypp - yp * xpp
        scale = float(np.max(np.abs(kappa)))
        add("free_convexity", -float(kappa.min()), 1e-6 * scale + 1e-14)

    # Outlet curve as a graph x = J(y): dJ/dy = -tan(theta) in [0, tan vartheta],
    # increasing with height.
    oc = phys.outlet_curve
    dyo = np.diff(oc[:, 1])
    dxo = np.diff(oc[:, 0])
    add("outlet_y_increasing", -float(dyo.min()), 1e-14)
    j_slope = dxo / np.where(dyo > 0, dyo, np.inf)
    add("outlet_slope_lower", -float(j_slope.min()), 1e-9 + 50.0 * disc)
    add("outlet_slope_upper", float(j_slope.max()) - math.tan(t), 1e-9 + 50.0 * disc)
    if len(j_slope) >= 2:
        add(
            "outlet_convexity",
            -float(np.diff(j_slope).min()),
            1e-6 * float(np.max(np.abs(j_slope))) + 1e-12,
        )

    # Mass balance through every phi = const curve from reconstructed
    # arclengths (the outlet value is also stored on the PhysicalField).
    rho = np.asarray(gas.rho(field.q))
    seg = np.hypot(np.diff(phys.x, axis=1), np.diff(phys.y, axis=1))
    dens = rho * field.q
    col_flux = np.sum(0.5 * (dens[:, 1:] + dens[:, :-1]) * seg, axis=1)
    add("mass_flux_columns", float(np.max(np.abs(col_flux - grid.m))), 1e-3 * grid.m)
    add("outlet_mass_flux", abs(phys.mass_flux_out - grid.m), 1e-3 * grid.m)

    if R is not None:
        end = phys.wall_curve[-1, :]
        add(
            "wall_endpoint_radius",
            abs(float(np.hypot(end[0], end[1])) - R),
            1e-4 * cfg.R0 + 50.0 * disc,
        )
    return checks
