"""Closed-form symmetric jet: the detachment point coincides with the outlet.

Whenever xi = zeta the stream problem degenerates: the free streamline has
zero length, the speed depends on the potential coordinate alone, and
Q = A(q) is linear in phi, its slope the one root of the inlet condition
(``fixedbvp`` starts such solves from that discrete solution).  At
zeta = xi = zeta_hat the slope is vartheta/m, the inlet carries the arc's
mass flux, and the physical flow is radial inside the annular sector
R_hat <= r <= R0.  These formulas are the verification oracle for the PDE
solver, so everything here is computed from quadrature/root-finding
primitives rather than from the solver itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import ConstraintError
from .gasdyn import DerivedConstants, FlowConfig, GasModel


@dataclass(frozen=True, eq=False)
class SymmetricSolution:
    """Radial reference flow for (gas, cfg) with constants ``consts``."""

    gas: GasModel
    cfg: FlowConfig
    consts: DerivedConstants

    def q_hat(self, phi):
        """Speed along the potential axis: A(q) rises linearly from A(c_m) at the
        inlet (phi=0) to A(c_e) at the outlet (phi=zeta_hat)."""
        zh = self.consts.zeta_hat
        phi_arr = np.asarray(phi, dtype=float)
        if np.any(phi_arr < -1e-12) or np.any(phi_arr > zh * (1.0 + 1e-12) + 1e-15):
            raise ConstraintError(f"phi outside [0, zeta_hat={zh}]")
        a_ce = self.gas.fast_A(self.consts.c_e)
        a = a_ce - self.cfg.vartheta * (zh - np.clip(phi_arr, 0.0, zh)) / self.cfg.m
        out = self.gas.fast_q_of_A(a)
        return out if out.ndim else float(out)

    def phi_hat(self, x, y):
        """Potential at a physical point of the annular sector.

        With r = |(x, y)| the radial speed satisfies vartheta r q rho(q^2) = m,
        so phi(r) = (m / vartheta) (A(q(r)) - A(c_m)); r is clamped to
        [R_hat - 1e-8, R0 + 1e-8] and the sector angle is checked."""
        x_arr = np.asarray(x, dtype=float)
        y_arr = np.asarray(y, dtype=float)
        r = np.hypot(x_arr, y_arr)
        lo = self.consts.R_hat - 1e-8
        hi = self.cfg.R0 + 1e-8
        if np.any(r < lo) or np.any(r > hi):
            raise ConstraintError(
                f"radius outside the annular sector [{self.consts.R_hat}, {self.cfg.R0}]"
            )
        ang = np.arctan2(y_arr, -x_arr)
        if np.any(ang < -1e-9) or np.any(ang > self.cfg.vartheta + 1e-9):
            raise ConstraintError("angle outside the sector [0, vartheta]")
        r = np.clip(r, self.consts.R_hat, self.cfg.R0)
        j = self.cfg.m / (self.cfg.vartheta * r)
        q = self.gas.fast_q_of_j(j)
        a_cm = self.gas.fast_A(self.consts.c_m)
        out = (self.cfg.m / self.cfg.vartheta) * (self.gas.fast_A(q) - a_cm)
        return out if out.ndim else float(out)

    def theta_hat(self, psi):
        """Flow angle is linear in the stream coordinate: -vartheta psi / m."""
        out = -self.cfg.vartheta * np.asarray(psi, dtype=float) / self.cfg.m
        return out if out.ndim else float(out)

    def sym_wall_length(self) -> float:
        """Arc length of the wetted wall, int_0^zeta_hat dphi / q_hat(phi).

        Equals R0 - R_hat analytically; computed here by quadrature along the
        wall streamline as an independent consistency path."""
        f = lambda phi: 1.0 / self.q_hat(phi)
        return numerics.integrate_adaptive(f, 0.0, self.consts.zeta_hat, tol=1e-12)
