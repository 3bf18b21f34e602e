"""Compressible-gas primitives and the flux coordinates of the stream problem.

All speeds are normalized by the stagnation sound speed, so the density law
is rho(q^2) = (1 - (gamma-1) q^2 / 2)^(1/(gamma-1)) and the critical speed is
c* = sqrt(2/(gamma+1)).  Two flux primitives drive everything downstream:

    A(q) = int_{c*}^{q} (1 - s^2/c^2(s)) / (s rho(s^2)) ds      (A(c*) = 0)
    B(q) = int_{c*}^{q} rho(s^2) / s ds                         (B(c*) = 0)

Both are strictly increasing on the subsonic range, and the stream equation
becomes d^2 A/d phi^2 + d^2 B/d psi^2 = 0 with Q = A(q) as the unknown.

Public entry points (flux_A, flux_A_inverse, ...) evaluate adaptive quadrature
and bracketed root finding to tight tolerances.  GasModel also carries dense
cubic Hermite lookup tables, built eagerly at construction, that the PDE
solver uses on hot paths; their accuracy against the quadrature path is
asserted in tests.  The solver's unknown is Q = A(q), so its hot lookups are
indexed by A: the speed q, the flux F = B(q) and the slope F' = dB/dA.  Near
c* these behave like sqrt(-A) (A' vanishes at the sonic speed), so they are
tabulated on knots uniform in s = sqrt(-A), where q, F and s F' are smooth
up to c* and the interval of a point is one multiply away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .errors import ConfigError, ConstraintError

#: flux_A_inverse refuses arguments below A(Q_FLOOR_FRAC * c*).
Q_FLOOR_FRAC = 1e-4
#: Knots of the A-indexed tables, uniform in s = sqrt(-A).
_S_KNOTS = 16385
#: Newton steps that place the speed at each s-knot.
_S_NEWTON_STEPS = 2


@dataclass(frozen=True, eq=False)
class GasModel:
    """Polytropic gas with cached flux tables.

    The tables cover q in [1e-5 c*, (1 - 1e-6) c*], with analytically exact
    knot derivatives.  A(q), B(q) and the inverse of the mass flux q rho
    are cubic Hermite interpolants (``numerics.HermiteTable``) on 8193
    speed knots, whose A and B values come from Gauss-Kronrod integrals
    accumulated from the c* anchor.  The A-indexed lookups ``fast_q_of_A``,
    ``fast_F_of_A`` and ``fast_Fprime_of_A`` each evaluate one
    ``numerics.UniformHermiteTable`` of q, F and s F' over 16385 knots
    uniform in s = sqrt(-A), spanning the same range; the speed at each
    s-knot is the forward A table's inverse to roundoff.  Against the
    quadrature path (gamma 1.05 to 3), q and F agree within ~1e-13 up to
    0.999 c*, and F' within ~1e-13 relative up to 0.99 c* and ~3e-11 at
    0.999 c*.
    """

    gamma: float
    c_star: float = field(init=False)

    def __post_init__(self):
        if not (self.gamma > 1.0 and math.isfinite(self.gamma)):
            raise ConstraintError(f"gamma must be finite and exceed 1, got {self.gamma}")
        object.__setattr__(self, "c_star", math.sqrt(2.0 / (self.gamma + 1.0)))
        self._build_tables()

    # -- closed-form pointwise relations (vectorized) --

    def rho(self, q):
        q = np.asarray(q, dtype=float)
        base = 1.0 - 0.5 * (self.gamma - 1.0) * q * q
        if np.any(base <= 0.0):
            raise ConstraintError("speed at or beyond the vacuum limit")
        out = base ** (1.0 / (self.gamma - 1.0))
        return out if out.ndim else float(out)

    def csq(self, q):
        q = np.asarray(q, dtype=float)
        out = 1.0 - 0.5 * (self.gamma - 1.0) * q * q
        return out if out.ndim else float(out)

    def a_prime(self, q):
        q = np.asarray(q, dtype=float)
        return (1.0 - q * q / self.csq(q)) / (q * self.rho(q))

    def b_prime(self, q):
        q = np.asarray(q, dtype=float)
        return self.rho(q) / q

    def j_prime(self, q):
        q = np.asarray(q, dtype=float)
        return self.rho(q) * (1.0 - q * q / self.csq(q))

    def f_prime_of_q(self, q):
        """dB/dA as a function of speed: rho^2 c^2 / (c^2 - q^2) > 0 subsonic."""
        q = np.asarray(q, dtype=float)
        c2 = self.csq(q)
        return self.rho(q) ** 2 * c2 / (c2 - q * q)

    # -- cached tables --

    def _build_tables(self):
        cs = self.c_star
        q_lo = 1e-5 * cs
        q_hi = cs * (1.0 - 1e-6)
        split = 0.2 * cs
        knots = np.concatenate(
            [
                np.geomspace(q_lo, split, 4096, endpoint=False),
                np.linspace(split, q_hi, 4097),
            ]
        )
        # Per-interval Gauss-Kronrod integrals of A' and B', vectorized over
        # all intervals at once, then accumulated downward from the c* anchor.
        mid = 0.5 * (knots[1:] + knots[:-1])
        half = 0.5 * (knots[1:] - knots[:-1])
        nodes = mid[None, :] + numerics._XK[:, None] * half[None, :]
        int_a = half * (numerics._WK @ self.a_prime(nodes))
        int_b = half * (numerics._WK @ self.b_prime(nodes))
        tail_mid = 0.5 * (q_hi + cs)
        tail_half = 0.5 * (cs - q_hi)
        tail_nodes = tail_mid + numerics._XK * tail_half
        tail_a = tail_half * float(numerics._WK @ self.a_prime(tail_nodes))
        tail_b = tail_half * float(numerics._WK @ self.b_prime(tail_nodes))
        a_knots = -(tail_a + np.concatenate([np.cumsum(int_a[::-1])[::-1], [0.0]]))
        b_knots = -(tail_b + np.concatenate([np.cumsum(int_b[::-1])[::-1], [0.0]]))
        A_of_q = numerics.HermiteTable(knots, a_knots, self.a_prime(knots))
        B_of_q = numerics.HermiteTable(knots, b_knots, self.b_prime(knots))
        j_knots = knots * self.rho(knots)

        # The A-indexed law on knots uniform in s = sqrt(-A), over the same
        # A range.  The speed at each s-knot solves sqrt(-A(q)) = s against
        # the forward table, by Newton from the linear interpolant of the
        # q-knots; sqrt(-A) is nearly linear in q up to c*, so two steps
        # reach roundoff.
        s_of_q = np.sqrt(-a_knots)
        s = np.linspace(s_of_q[-1], s_of_q[0], _S_KNOTS)
        q = np.interp(s, s_of_q[::-1], knots[::-1])
        for _ in range(_S_NEWTON_STEPS):
            r = np.sqrt(-A_of_q(q))
            q = np.clip(q + 2.0 * r * (r - s) / self.a_prime(q), q_lo, q_hi)
        # Exact s-derivatives: dq/ds = -2 s / A'(q), dF/ds = -2 s F' and
        # d(s F')/ds = F' - 2 s^2 F'', with A' = (c^2 - q^2) / (c^2 q rho),
        # F' = rho^2 c^2 / (c^2 - q^2) and
        # F''(A) = (gamma + 1) q^4 rho^3 c^2 / (c^2 - q^2)^3.
        rho, c2 = self.rho(q), self.csq(q)
        q2 = q * q
        gap = c2 - q2
        fp = rho * rho * c2 / gap
        fpp = (self.gamma + 1.0) * q2 * q2 * rho * rho * rho * c2 / (gap * gap * gap)
        tabs = {
            "_q_knots": knots,
            "_a_knots": a_knots,
            "_b_knots": b_knots,
            "_A_of_q": A_of_q,
            "_B_of_q": B_of_q,
            "_q_of_j": numerics.HermiteTable(j_knots, knots, 1.0 / self.j_prime(knots)),
            "_j_lo": float(j_knots[0]),
            "_j_hi": float(j_knots[-1]),
            "_q_of_s": numerics.UniformHermiteTable(s, q, -2.0 * s * c2 * q * rho / gap),
            "_F_of_s": numerics.UniformHermiteTable(s, B_of_q(q), -2.0 * s * fp),
            "_sFp_of_s": numerics.UniformHermiteTable(s, s * fp, fp - 2.0 * s * s * fpp),
        }
        for k, v in tabs.items():
            object.__setattr__(self, k, v)

    def fast_A(self, q):
        return self._A_of_q(np.clip(q, self._q_knots[0], self._q_knots[-1]))

    def fast_B(self, q):
        return self._B_of_q(np.clip(q, self._q_knots[0], self._q_knots[-1]))

    def _s_of_A(self, a):
        return np.sqrt(-np.clip(a, self._a_knots[0], self._a_knots[-1]))

    def fast_q_of_A(self, a):
        return self._q_of_s(self._s_of_A(a))

    def fast_F_of_A(self, a):
        return self._F_of_s(self._s_of_A(a))

    def fast_Fprime_of_A(self, a):
        s = self._s_of_A(a)
        return self._sFp_of_s(s) / s

    def fast_q_of_j(self, j):
        j = np.clip(j, self._j_lo, self._j_hi)
        q = self._q_of_j(j)
        q = q - (q * self.rho(q) - j) / self.j_prime(q)
        return np.clip(q, self._q_knots[0], self._q_knots[-1])


@dataclass(frozen=True)
class FlowConfig:
    """Nozzle/jet data: inlet radius R0, wall half-angle vartheta, stream mass
    m, and the exit condition as either a speed c_e or a pressure P_e."""

    R0: float
    vartheta: float
    m: float
    c_e: float | None = None
    P_e: float | None = None

    def __post_init__(self):
        if not (self.R0 > 0.0 and math.isfinite(self.R0)):
            raise ConfigError(f"R0 must be positive and finite, got {self.R0}")
        if not 0.0 < self.vartheta < 0.5 * math.pi:
            raise ConfigError(f"vartheta must lie in (0, pi/2), got {self.vartheta}")
        if not (self.m > 0.0 and math.isfinite(self.m)):
            raise ConfigError(f"m must be positive and finite, got {self.m}")
        if (self.c_e is None) == (self.P_e is None):
            raise ConfigError("exactly one of c_e or P_e must be given")


@dataclass(frozen=True)
class DerivedConstants:
    """Constants fixed by (gas, config): exit speed c_e and its flux value
    a_ce = A(c_e) (``flux_A``, the Dirichlet data of the fixed problem),
    inlet-matched speed c_m, minimal admissible speed c_l, the
    symmetric-flow radius R_hat and detachment abscissa zeta_hat, the
    phi-domain cap zeta_cap = R0 c_l, the admissible mass-flux window, and
    the admissibility verdict."""

    c_e: float
    a_ce: float
    c_m: float
    c_l: float
    R_hat: float
    zeta_hat: float
    zeta_cap: float
    m_window: tuple[float, float]
    admissible: bool


def density(gas: GasModel, q):
    """Gas density at speed q (stagnation-normalized)."""
    return gas.rho(q)


def pressure(gas: GasModel, rho):
    """Pressure from density: rho^gamma / gamma."""
    rho = np.asarray(rho, dtype=float)
    if np.any(rho <= 0.0):
        raise ConstraintError("density must be positive")
    out = rho**gas.gamma / gas.gamma
    return out if out.ndim else float(out)


def mass_flux(gas: GasModel, q):
    """q * rho(q^2); increasing on the subsonic range, max at q = c*."""
    return np.asarray(q, dtype=float) * gas.rho(q) if np.ndim(q) else q * gas.rho(q)


def flux_A(gas: GasModel, q: float) -> float:
    """A(q) by adaptive quadrature from c*, to 1e-12.  Subsonic only: 0 < q <= c*."""
    if not 0.0 < q <= gas.c_star:
        raise ConstraintError(f"flux_A needs 0 < q <= c* = {gas.c_star}, got {q}")
    return numerics.integrate_adaptive(gas.a_prime, gas.c_star, q, 1e-12)


def flux_B(gas: GasModel, q: float) -> float:
    """B(q) by adaptive quadrature from c*, to 1e-12.  Subsonic only: 0 < q <= c*."""
    if not 0.0 < q <= gas.c_star:
        raise ConstraintError(f"flux_B needs 0 < q <= c* = {gas.c_star}, got {q}")
    return numerics.integrate_adaptive(gas.b_prime, gas.c_star, q, 1e-12)


def _narrowed_bracket(f, lo: float, hi: float, guess: float, pad: float) -> numerics.Bracket:
    """Bracket a root near a table-provided guess, widening to [lo, hi] if needed."""
    glo = max(lo, guess - pad)
    ghi = min(hi, guess + pad)
    if glo < ghi:
        f_glo, f_ghi = f(glo), f(ghi)
        if f_glo == 0.0 or f_ghi == 0.0 or f_glo * f_ghi < 0.0:
            return numerics.Bracket(glo, ghi, f_glo, f_ghi)
    return numerics.Bracket(lo, hi, f(lo), f(hi))


def flux_A_inverse(gas: GasModel, a: float) -> float:
    """Speed q with A(q) = a, resolved to 1e-12 against the quadrature A.

    The admissible argument range is [A(q_floor), 0] with
    q_floor = Q_FLOOR_FRAC * c*; values outside raise ConstraintError.
    """
    if a > 0.0:
        raise ConstraintError(f"flux_A is nonpositive on the subsonic range, got a={a}")
    q_floor = Q_FLOOR_FRAC * gas.c_star
    a_floor = flux_A(gas, q_floor)
    if a < a_floor:
        raise ConstraintError(
            f"flux_A_inverse argument {a} below floor A({q_floor:.3e}) = {a_floor:.6f}"
        )
    f = lambda q: flux_A(gas, q) - a
    br = _narrowed_bracket(f, q_floor, gas.c_star, float(gas.fast_q_of_A(a)), 1e-6)
    return numerics.find_root_monotone(f, br, 1e-12)


def mass_flux_inverse(gas: GasModel, j: float) -> float:
    """Subsonic speed with q rho(q^2) = j, to 1e-13.  Requires 0 < j < c* rho(c*^2)."""
    j_max = gas.c_star * gas.rho(gas.c_star)
    if not 0.0 < j < j_max:
        raise ConstraintError(
            f"mass flux must lie in (0, {j_max}) for a subsonic inversion, got {j}"
        )
    f = lambda q: q * gas.rho(q) - j
    br = _narrowed_bracket(f, 0.5 * j, gas.c_star, float(gas.fast_q_of_j(j)), 1e-6)
    return numerics.find_root_monotone(f, br, 1e-13)


def flux_E(gas: GasModel, s: float) -> float:
    """E(s) = A(B^{-1}(s)): the A-flux expressed against the B-flux, B inverted to 1e-12."""
    if s > 0.0:
        raise ConstraintError(f"flux_B is nonpositive on the subsonic range, got s={s}")
    q_floor = Q_FLOOR_FRAC * gas.c_star
    s_floor = flux_B(gas, q_floor)
    if s < s_floor:
        raise ConstraintError(f"flux_E argument {s} below floor B({q_floor:.3e}) = {s_floor:.6f}")
    f = lambda q: flux_B(gas, q) - s
    k = min(max(int(np.searchsorted(gas._b_knots, s)), 0), len(gas._q_knots) - 1)
    br = _narrowed_bracket(f, q_floor, gas.c_star, float(gas._q_knots[k]), 1e-4)
    q = numerics.find_root_monotone(f, br, 1e-12)
    return flux_A(gas, q)


def resolve_c_e(gas: GasModel, cfg: FlowConfig) -> float:
    """Exit speed of the configuration: c_e as given, or the speed at which
    the isentropic pressure equals P_e."""
    if cfg.c_e is not None:
        return cfg.c_e
    p_e = cfg.P_e
    p_sonic = pressure(gas, gas.rho(gas.c_star))
    p_stag = 1.0 / gas.gamma
    if not p_sonic < p_e < p_stag:
        raise ConstraintError(
            f"exit pressure {p_e} outside the subsonic window ({p_sonic}, {p_stag})"
        )
    rho_e = (gas.gamma * p_e) ** (1.0 / gas.gamma)
    q2 = 2.0 * (1.0 - rho_e ** (gas.gamma - 1.0)) / (gas.gamma - 1.0)
    return math.sqrt(q2)


def derive_constants(gas: GasModel, cfg: FlowConfig) -> DerivedConstants:
    """Resolve c_e and compute the free constants of the configuration.

    Raises ConstraintError if the prescribed mass m cannot pass the inlet at
    the exit speed (m >= R0 vartheta c_e rho(c_e^2)), since then no subsonic
    jet carries it.  The admissibility flag records whether m also clears the
    lower window edge R0 vartheta c_l rho(c_l^2); the containment
    0 < zeta_hat < R0 c_l holds for every feasible m (window or not) and is
    asserted here, but it does not certify admissibility by itself.
    """
    c_e = resolve_c_e(gas, cfg)
    if not 0.0 < c_e < gas.c_star:
        raise ConstraintError(f"exit speed must be subsonic: 0 < c_e < {gas.c_star}, got {c_e}")
    rho_e = gas.rho(c_e)
    m_hi = cfg.R0 * cfg.vartheta * c_e * rho_e
    if cfg.m >= m_hi:
        raise ConstraintError(
            f"infeasible mass flux: m = {cfg.m} >= R0 vartheta c_e rho(c_e^2) = {m_hi}"
        )
    a_ce = flux_A(gas, c_e)
    c_m = mass_flux_inverse(gas, cfg.m / (cfg.R0 * cfg.vartheta))
    g = lambda q: gas.rho(q) * (a_ce - flux_A(gas, q)) - 1.0
    lo = 1e-3 * c_e
    c_l = numerics.find_root_monotone(
        g, numerics.Bracket(lo, c_e, g(lo), g(c_e)), tol=1e-14
    )
    if abs(gas.rho(c_l) * (a_ce - flux_A(gas, c_l)) - 1.0) > 1e-10:
        raise ConstraintError("c_l identity failed to resolve to 1e-10")
    zeta_hat = cfg.m * (a_ce - flux_A(gas, c_m)) / cfg.vartheta
    r_hat = cfg.m / (cfg.vartheta * c_e * rho_e)
    zeta_cap = cfg.R0 * c_l
    m_lo = cfg.R0 * cfg.vartheta * c_l * gas.rho(c_l)
    if not 0.0 < zeta_hat < zeta_cap:
        raise ConstraintError(
            f"zeta_hat = {zeta_hat} escaped (0, R0 c_l) = (0, {zeta_cap})"
        )
    return DerivedConstants(
        c_e=c_e,
        a_ce=a_ce,
        c_m=c_m,
        c_l=c_l,
        R_hat=r_hat,
        zeta_hat=zeta_hat,
        zeta_cap=zeta_cap,
        m_window=(m_lo, m_hi),
        admissible=bool(m_lo < cfg.m < m_hi),
    )
