"""Fixed-geometry stream problem: given detachment point zeta and outlet
potential xi, solve the quasilinear equation

    d2Q/dphi2 + d2F(Q)/dpsi2 = 0,   Q = A(q),  F = B o A^{-1}

on (0, xi) x (0, m) with a nonlinear inlet flux condition dQ/dphi = G(Q)
(G = 1/(R0 q rho)), zero transverse flux on the axis psi=0 and on the wetted
wall psi=m, phi < zeta, and Dirichlet data Q = A(c_e) on the free part of the
top boundary and on the outlet column.

Discretization: two-point-flux finite volumes (Eymard, Gallouet & Herbin,
Finite Volume Methods, 2000) on a tensor grid, uniform in psi, with zeta
pinned to a phi node.  A node's row is the net flux through its cell's four
faces, each a face conductance (dpsi/h on a phi-face, dphi/k on a psi-face,
dpsi and dphi the cell's extents) times the difference of Q, or of F(Q),
across it.  The phi cell counts depend on zeta alone, not on xi
(``build_grid``): they are chosen at a reference outlet potential
xi_ref(zeta), a closed-form estimate of the flow's xi, where the segments
[0, zeta] and [zeta, xi_ref] are uniform with spacings within a factor 2,
except that when they would differ by more the coarser one is graded
geometrically away from zeta (first cell twice the fine spacing,
neighbouring cells within a factor 1 + 8/n_phi), which keeps the cell count
at most 2 n_phi for every zeta.  Any other xi stretches the same cells, so
the discrete inlet defect is continuous in xi.  The graded bounds hold at
every xi; at the answer xi* the two uniform spacings are within a
factor 2 rho, rho = max(L/L_ref, L_ref/L) with L = xi* - zeta and
L_ref = xi_ref - zeta.  On the desk configuration rho <= 1.07 for zeta from
1e-3 to 0.999 zeta_hat at 64x32 and 128x64 cells; over 102 flows of random
configurations (c_e +-10%, vartheta +-15%, m 5-95% of its window) rho
reached 4.7, where zeta_hat lies far below the cap, and the spacing ratio at
zeta stayed in [0.34, 2].

A face on the axis, the top boundary or the inlet has conductance 0, the
inlet face carrying the Robin flux dpsi G(Q) instead.  Every off-diagonal
entry of the Newton matrix is then minus a conductance times F' > 0, so it
is a Z-matrix and an M-matrix certificate can be asserted at each
factorization (a literal one-sided 3-point boundary row would put a
wrong-signed entry in the matrix).  On uniform cells every row is
second-order accurate; on graded cells the leading truncation term of a row
is proportional to h_E - h_W, which the ratio bound keeps O(h^2).  The
observed order of the shot outlet potential xi is lower, set by the
detachment-corner singularity rather than the grading: on the desk
configuration at zeta = 0.01 zeta_hat over 64x32, 128x64 and 256x128 cells
it is 1.26, so not second order.

The certificate is a weighted-column dominance test with weight
w(phi) = xi + eps - phi: flux columns telescope to exact zero, the inlet
columns absorb the Robin term iff R0 * min q(0, psi) >= xi (the coercivity
margin sets eps), and columns adjacent to Dirichlet data stay strictly
dominant, chaining the rest.  The telescoping needs no uniform spacing: a
phi-face of width h between nodes p and q adds dpsi/h (w_p - w_q) = +-dpsi to
their two columns, because w is linear in phi, and the two faces of a column
cancel; psi-faces join nodes of equal phi and so of equal weight.

A solve without a donor field starts from a profile linear in phi and
constant in psi (``_Operator.subsolution``).  On the symmetric grid xi = zeta
with the Robin inlet that profile is the discrete solution: the flow is the
radial one, every interior and wall row vanishes on a linear profile over
uniform cells, and the inlet row leaves one scalar equation for the inlet
value, solved by ``numerics.find_root_monotone``.  Newton then finds the
residual at its tolerance and returns with no factorization.  Off the
symmetric grid, and for a prescribed inlet flux, the start is the
subsolution of slope G(c_l).

Newton iterates are clamped to [a_floor, A(c_e)], the clamp floor a_floor
being A at half the minimal admissible speed c_l (never below the flux
tables' floor), and damped by halving down to 2**-20.  Convergence is
measured on the residual in PDE-density units (finite-volume row divided by
its cell measure).  Its tolerance ``_NEWTON_TOL`` = 1e-10 is floored a
priori by the attainable level of that norm in double precision,
64 eps (|A(c_l)| / h_min^2 + |B(c_l)| / k^2), h_min the smallest phi cell
and k the psi cell: every admissible field has c_l <= q <= c_e, and A and B
increase and are negative below c*, so |A(c_l)| and |B(c_l)| bound |Q| and
|F| = |B(q)| on all of them.  The floor is fixed per grid (per xi in a
bordered solve) and not read from an iterate: a start near A(c_e) has a
max|Q| ~80x below the answer's on small-zeta cap shots, and a floor read
from it would sit below the roundoff level Newton can reach.  A solve
that has not met the tolerance after ``_MAX_ITERS`` = 100 factorizations
raises NonconvergenceError.

Chord steps (Shamanskii's method; Kelley, Solving Nonlinear Equations with
Newton's Method, SIAM 2003, ch. 2-3): after a step, the next one is first
tried with the last factorization (``numerics.back_solve``) at the current
residual, at full length only, and kept when it cuts the residual (for a
bordered solve, the line search's merit, the larger of the scaled residual
and scaled defect) to at most ``_CHORD_DECREASE`` = 1/4 of its value or
meets the convergence test.  A chord step follows only a full-length step,
and it must leave R0 min q(0, psi) >= xi, the one condition of the
certificate that depends on the iterate, so that a refactorization at the
new iterate is certified.  Otherwise the Newton matrix is assembled,
certified and factored again at the same iterate and the damped Newton
step above is taken.  The matrix of every factorization so still
carries the certificate, and the acceptance test is the same for both
kinds of step.  ``newton_iters`` counts factorizations, ``back_solves`` the
back-solves with the last factorization (a bordered one whose xi step is
not available is counted but not tried); from a coarse start a 512x128
solve takes 1 factorization and 5-6 chord steps where Newton took 3
factorizations.

Bordered row (``solve_fixed(..., free_xi=True)``): xi becomes one more
unknown and the inlet mass-flux defect D(Q) one more equation (Keller's
bordering algorithm).  The cell counts do not move with xi, so the nodes
do, at known rates (``Grid.dh_dxi``), and g = dr/dxi is analytic.  Each step
factors the same certified M = -J once and solves M [y z] = [r g]; with c
the defect's gradient on the inlet column, the xi correction is
-(D + c.y) / (c.z) and Q moves by y + dxi z.  The certificate therefore
still covers every factorized matrix.  The scalar Schur complement c.z is
the slope d'(xi) of the defect along the solution family, positive by the
defect's monotonicity in xi; a step where it is not positive (a start flat
on [zeta, xi]) keeps xi fixed.  A bordered chord step solves [r g] at the
current iterate (g = dr/dxi on the current grid, c from the current inlet)
with the last factorization and moves by y + dxi z; when the xi step is not
available it is not tried and the solve refactors.  The "xi step is
refused" failure is only declared after a freshly factorized step.

Sensitivity in zeta (``zeta_tangent``): at held cell counts and fixed xi the
nodes also move with zeta at known rates (``Grid.dh_dzeta``), so
dr/dzeta is the net flux through the conductances' zeta-rates, formed by
the same helper as dr/dxi.  Differentiating r(Q, zeta) = 0 gives
dQ/dzeta = M^-1 dr/dzeta, M factored and certified afresh at the converged
field, and the inlet defect's slope c . dQ/dzeta.  The minimal-detachment
search steps by Newton on that slope, and a ``ZetaTangent`` start advances
its flow along dQ/dzeta to the zeta being solved.  A solve that does not
ask for either forms no rate of the conductances.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .checks import field_checks, require
from .errors import ConstraintError, NonconvergenceError, SingularSystemError
from .gasdyn import (
    DerivedConstants,
    FlowConfig,
    GasModel,
    Q_FLOOR_FRAC,
    derive_constants,
)


@dataclass(frozen=True, eq=False)
class Grid:
    """Tensor grid in the potential-stream rectangle [0, xi] x [0, m].

    phi_nodes has zeta pinned at ``zeta_index``; each of [0, zeta] and
    [zeta, xi] is uniform, or the coarser one is graded away from zeta
    (``build_grid``).  The phi cell counts are fixed by zeta alone, so grids
    of one zeta differ only in where their nodes sit; ``dh_dxi`` and
    ``dh_dzeta`` are the rates at which each phi cell's width moves with xi
    and with zeta at these counts (None for the symmetric geometry
    zeta == xi, which puts zeta_index at the outlet column).  psi_nodes is
    uniform.
    """

    zeta: float
    xi: float
    m: float
    phi_nodes: np.ndarray
    psi_nodes: np.ndarray
    zeta_index: int
    dh_dxi: np.ndarray | None
    dh_dzeta: np.ndarray | None

    @property
    def n_phi(self) -> int:
        return len(self.phi_nodes) - 1

    @property
    def n_psi(self) -> int:
        return len(self.psi_nodes) - 1


@dataclass(frozen=True, eq=False)
class SpeedField:
    """A solved (or injected) field on a Grid: Q = A(q) and the speed q at
    every node, plus the Newton diagnostics of the solve that produced it:
    ``newton_iters`` counts its factorizations and ``back_solves`` its
    back-solves with the last factorization."""

    grid: Grid
    Q: np.ndarray
    q: np.ndarray
    residual_norm: float
    newton_iters: int
    back_solves: int = 0


@dataclass(frozen=True, eq=False)
class ZetaTangent:
    """The derivative in zeta of the fixed-xi flow family through a solved
    field, at that field's xi and cell counts (``zeta_tangent``): ``dQ`` is
    dQ/dzeta on every node of its grid (0 on the Dirichlet nodes) and
    ``slope`` the inlet defect's d D/d zeta."""

    field: SpeedField
    dQ: np.ndarray
    slope: float


@dataclass(frozen=True)
class SolverOptions:
    """The requested grid, shared by the fixed and free solvers: cell counts
    in phi and psi (``build_grid``).  Tolerances and iteration caps are not
    options: each is a named constant of the module that uses it."""

    n_phi: int = 128
    n_psi: int = 64


def _graded_count(
    length: float, n_req: int, h0: float, ratio: float, max_cells: int
) -> int:
    """Cell count of a segment graded away from a first cell of width ``h0``:
    the smallest that keeps the common width the widths grow to (see
    ``_graded``) at or below the uniform width length / n_req, capped at
    ``max_cells``."""
    geo = h0 * ratio ** np.arange(max_cells)
    H = length / n_req
    k = int(np.count_nonzero(geo < H))
    return min(k + math.ceil((length - float(geo[:k].sum())) / H), max_cells)


def _graded(length: float, n: int, h0: float, ratio: float) -> tuple[np.ndarray, int]:
    """``n`` cell widths, summing to ``length``, for a segment graded away
    from a first cell of width ``h0``, and the number j of cells still
    growing.

    Widths are min(h0 ratio^i, c): they grow geometrically until they reach a
    common width c, then stay uniform (cells j, j+1, ...); c is set so the
    widths fill the segment exactly.
    """
    geo = h0 * ratio ** np.arange(n)
    # f(c) = sum(min(geo, c)) increases with c; on [geo[j-1], geo[j]] it is
    # G_j + (n - j) c with G_j the sum of the first j widths.
    G = np.concatenate([[0.0], np.cumsum(geo)[:-1]])
    f_at = G + (n - np.arange(n)) * geo
    j = int(np.searchsorted(f_at, length))
    if j == n:
        raise ConstraintError(
            f"cannot grade a segment {length / h0:.3g} times its first cell "
            f"in {n} cells at ratio {ratio:.4g}; raise n_phi"
        )
    c = (length - float(G[j])) / (n - j)
    return np.minimum(geo, c), j


def _reference_xi(zeta: float, consts: DerivedConstants) -> float:
    """The outlet potential the cell counts are chosen for: the closed-form
    estimate zeta_hat + (zeta_cap - zeta_hat)/2 (1 - zeta/zeta_hat)^2 of
    xi(zeta), which meets xi(zeta_hat) = zeta_hat with zero slope.  From
    zeta_hat on, where no flow has xi > zeta, it is held just above zeta:
    the limit zeta -> zeta_hat of the counts below."""
    zh = consts.zeta_hat
    xi = zh + 0.5 * (consts.zeta_cap - zh) * (1.0 - zeta / zh) ** 2
    return max(xi, zeta * (1.0 + 1e-9))


def _split(zeta: float, n_phi: int, consts: DerivedConstants) -> tuple:
    """Cell counts of the phi segments [0, zeta] and [zeta, xi] for every xi
    at this zeta: (n1, n2, side, count) with the side graded (None when the
    two uniform spacings are within a factor 2) and its cell count, all
    chosen at ``_reference_xi``."""
    xi = _reference_xi(zeta, consts)
    n1 = int(round(n_phi * zeta / xi))
    n1 = min(max(n1, 4), n_phi - 4)
    n2 = n_phi - n1
    h1, h2 = zeta / n1, (xi - zeta) / n2
    ratio = 1.0 + 8.0 / n_phi
    if h2 / h1 > 2.0:
        count = _graded_count(xi - zeta, n2, 2.0 * h1, ratio, 2 * n_phi - n1)
        return (n1, n2, "right", count)
    if h1 / h2 > 2.0:
        count = _graded_count(zeta, n1, 2.0 * h2, ratio, 2 * n_phi - n2)
        return (n1, n2, "left", count)
    return (n1, n2, None, None)


def _phi_nodes(zeta: float, xi: float, n_phi: int, split: tuple):
    """phi nodes for a split (``_split``), zeta's node index, and
    d(cell width)/d xi and d(cell width)/d zeta with the cell counts held
    fixed (the other of xi and zeta held too).

    The width rates are exact for this parametrization: uniform cells on
    [0, zeta] grow as 1/n1 with zeta, uniform cells on [zeta, xi] as 1/n2
    with xi - zeta; graded cells on the right keep their geometric run, which
    scales with its first width 2 zeta/n1, and the uniform tail absorbs the
    change; graded cells on the left scale with their first width
    2 (xi - zeta)/n2 and the tail keeps [0, zeta] at its length.
    """
    n1, n2, side, count = split
    ratio = 1.0 + 8.0 / n_phi
    L = xi - zeta
    if side == "right":
        widths, j = _graded(L, count, 2.0 * (zeta / n1), ratio)
        right = zeta + np.concatenate([[0.0], np.cumsum(widths)])
        right[-1] = xi
        left = np.linspace(0.0, zeta, n1 + 1)
        grow = widths[:j] / zeta
        rate_r = np.where(np.arange(count) >= j, 1.0 / (count - j), 0.0)
        zrate_r = np.concatenate([grow, np.full(count - j, -(1.0 + grow.sum()) / (count - j))])
        rate_l, zrate_l = np.zeros(n1), np.full(n1, 1.0 / n1)
    elif side == "left":
        widths, j = _graded(zeta, count, 2.0 * (L / n2), ratio)
        left = (zeta - np.concatenate([[0.0], np.cumsum(widths)]))[::-1]
        left[0] = 0.0
        right = np.linspace(zeta, xi, n2 + 1)
        grow = widths[:j] / L
        tail = np.full(count - j, grow.sum() / (count - j))
        rate_l = np.concatenate([grow, -tail])[::-1]
        zrate_l = np.concatenate([-grow, tail + 1.0 / (count - j)])[::-1]
        rate_r, zrate_r = np.full(n2, 1.0 / n2), np.full(n2, -1.0 / n2)
    else:
        left = np.linspace(0.0, zeta, n1 + 1)
        right = np.linspace(zeta, xi, n2 + 1)
        rate_l, rate_r = np.zeros(n1), np.full(n2, 1.0 / n2)
        zrate_l, zrate_r = np.full(n1, 1.0 / n1), np.full(n2, -1.0 / n2)
    phi_nodes = np.concatenate([left, right[1:]])
    return (
        phi_nodes,
        len(left) - 1,
        np.concatenate([rate_l, rate_r]),
        np.concatenate([zrate_l, zrate_r]),
    )


def build_grid(
    zeta: float,
    xi: float,
    m: float,
    n_phi: int,
    n_psi: int,
    consts: DerivedConstants,
) -> Grid:
    """Construct the solver grid for a (zeta, xi) geometry.

    n_phi/n_psi are cell counts (node counts are one larger).  The cell
    counts depend on zeta, n_phi and ``consts`` only, never on xi: n_phi is
    split between the two phi segments in proportion to their lengths at
    the reference outlet potential xi_ref(zeta) (``_reference_xi``), each
    segment keeping at least 4 cells.  When the two uniform spacings at
    xi_ref are within a factor 2 of each other, both segments are uniform.
    Otherwise the finer segment is uniform and the coarser one is graded
    away from zeta: its first cell is twice the fine spacing, neighbouring
    cells differ by a ratio of at most 1 + 8/n_phi, and past the graded run
    the spacing is uniform again; its cell count, chosen at xi_ref, keeps
    the total at most 2 n_phi however small zeta/xi_ref or 1 - zeta/xi_ref
    gets.  At any other xi the same counts are stretched to [zeta, xi]
    (``Grid.dh_dxi``); an xi at which the graded run cannot fill its
    segment raises ConstraintError.  xi = zeta (the symmetric geometry) is
    the one exception: n_phi uniform cells.  xi must not exceed the
    solvability bound R0 c_l = ``consts.zeta_cap``.
    """
    if not zeta > 0.0:
        raise ConstraintError(f"need 0 < zeta, got zeta={zeta}")
    if not zeta <= xi * (1.0 + 1e-14):
        raise ConstraintError(f"need zeta <= xi, got zeta={zeta} > xi={xi}")
    if xi > consts.zeta_cap * (1.0 + 1e-12):
        raise ConstraintError(f"need xi <= R0 c_l = {consts.zeta_cap}, got xi={xi}")
    if n_phi < 16:
        raise ConstraintError(f"n_phi must be >= 16, got {n_phi}")
    if n_psi < 8:
        raise ConstraintError(f"n_psi must be >= 8, got {n_psi}")
    psi_nodes = np.linspace(0.0, m, n_psi + 1)
    if xi - zeta <= 1e-14 * xi:
        phi_nodes = np.linspace(0.0, xi, n_phi + 1)
        return Grid(zeta, xi, m, phi_nodes, psi_nodes, n_phi, None, None)
    phi_nodes, iz, dh_dxi, dh_dzeta = _phi_nodes(zeta, xi, n_phi, _split(zeta, n_phi, consts))
    return Grid(zeta, xi, m, phi_nodes, psi_nodes, iz, dh_dxi, dh_dzeta)


class _Operator:
    """The discrete problem on one grid and everything a Newton solve on it
    reads, built from the configuration's ``DerivedConstants``:

    - the face conductances ``c = (cE, cW, cN, cS)`` of each free node's
      cell, cE = dpsi/h_E, cW = dpsi/h_W and cN = cS = dphi/k (dpsi and dphi
      the cell's extents), 0 on an inlet, axis or top face;
    - the residual, the net face flux (``_net_flux``) less dpsi G(Q) on the
      inlet rows, and its derivatives ``dr_dxi`` and ``dr_dzeta`` at held
      cell counts, the net flux through the conductances' rates
      (``_rates``), formed only when asked for;
    - the certified Newton matrix M = -J: diagonal cE + cW + (cN + cS) F'_C,
      less dpsi/(R0 q) on the inlet rows, off-diagonal entries -cE, -cW,
      -cN F'_N and -cS F'_S;
    - the Dirichlet value ``a_ce`` = A(c_e) and the clamp floor ``a_floor``
      = A(max(c_l/2, the flux tables' floor));
    - the stopping tolerance ``tol`` of the density-norm residual, a
      constant of the grid (module docstring);
    - the cold start (``subsolution``), on the symmetric grid the discrete
      solution itself;
    - the bordered row: the inlet mass-flux defect (``inlet_defect``) and
      its gradient (``defect_dot``).

    ``fixed_inlet_flux`` switches the inlet condition from the nonlinear
    Robin coupling G(Q) to a prescribed flux profile (the Picard map).
    ``on`` gives the same operator on another grid of the same zeta.
    """

    def __init__(self, grid, gas, cfg, consts, fixed_inlet_flux=None):
        self.gas = gas
        self.cfg = cfg
        self.consts = consts
        self.a_ce = consts.a_ce
        self.a_floor = float(gas.fast_A(max(Q_FLOOR_FRAC * gas.c_star, 0.5 * consts.c_l)))
        # Bounds of |Q| = |A(q)| and |F| = |B(q)| on the admissible speeds
        # c_l <= q <= c_e: A and B increase and are negative below c*.
        self.a_bound = abs(float(gas.fast_A(consts.c_l)))
        self.b_bound = abs(float(gas.fast_B(consts.c_l)))
        self.fixed_inlet_flux = fixed_inlet_flux

        psi = grid.psi_nodes
        np_, nq = grid.n_phi, grid.n_psi
        iz = grid.zeta_index
        self.k = float(psi[1] - psi[0])

        free = np.ones((np_ + 1, nq + 1), dtype=bool)
        free[np_, :] = False
        free[iz:, nq] = False
        self.free = free
        idx = np.full((np_ + 1, nq + 1), -1, dtype=np.int64)
        idx[free] = np.arange(int(free.sum()))
        ii, jj = np.nonzero(free)  # row-major == phi-major ordering
        self.ii = ii
        self.n_free = len(ii)

        self.at_inlet = ii == 0
        self.has_S = jj > 0
        self.has_N = jj < nq
        self.dpsi = np.where((jj == 0) | (jj == nq), 0.5 * self.k, self.k)
        # The defect's gradient on the inlet column is -w_j / q_0j, w_j the
        # trapezoid weights in psi, because d(1/(q rho))/dA = -1/q.
        dpsi = np.diff(psi)
        self.defect_w = -0.5 * (np.concatenate([[0.0], dpsi]) + np.concatenate([dpsi, [0.0]]))

        # Flat indices into a full-grid array of each free node and of its
        # E, W, N and S neighbours; a neighbour across the inlet, the axis
        # or the top boundary is the node itself, behind a zero conductance.
        iW, jN, jS = np.maximum(ii - 1, 0), np.minimum(jj + 1, nq), np.maximum(jj - 1, 0)
        self.stencil = tuple(
            a * (nq + 1) + b for a, b in ((ii, jj), (ii + 1, jj), (iW, jj), (ii, jN), (ii, jS))
        )
        # The neighbour table: per face, in the order of ``c``, the free nodes
        # whose neighbour across it is free too, the entry's column and its row
        # among the ``offsets`` (column less row, decreasing: 0, +-1, +-(n_psi
        # + 1), and +-n_psi past zeta, where the top node is Dirichlet).
        p = np.arange(self.n_free)
        faces = []
        for face, flat in zip((True, ~self.at_inlet, self.has_N, self.has_S), self.stencil[1:]):
            col = idx.ravel()[flat]
            mask = face & (col >= 0)
            faces.append((mask, col[mask], col[mask] - p[mask]))
        # Offsets counted, not sorted (a sort costs as much as the rest of
        # __init__); an offset's row is the number of held offsets above it.
        every = np.concatenate([[0]] + [d for *_, d in faces])
        lo = int(every.min())
        held = np.bincount(every - lo).astype(bool)
        row = np.cumsum(held[::-1])[::-1] - 1
        self.offsets = tuple((np.flatnonzero(held)[::-1] + lo).tolist())
        self.neighbours = [(m, c, row[d - lo]) for m, c, d in faces]
        self._set_phi(grid)

    def _set_phi(self, grid):
        """Everything that depends on the phi node positions: the cell
        extents, the conductances and ``tol``."""
        self.grid = grid
        ii, inner = self.ii, ~self.at_inlet
        h = np.diff(grid.phi_nodes)
        hE, hW = h[ii], h[ii - 1]  # hW wraps on the inlet column, masked below
        self.dphi = 0.5 * (np.where(inner, hW, 0.0) + hE)
        self.cell = self.dphi * self.dpsi
        self.phi_of_p = grid.phi_nodes[ii]
        cE = self.dpsi / hE
        cW = np.where(inner, self.dpsi / hW, 0.0)
        cT = self.dphi / self.k
        self.c = (cE, cW, cT * self.has_N, cT * self.has_S)
        self.hE, self.hW = hE, hW
        # Density-norm rows divide second differences by cell spacings, so
        # assembly roundoff is amplified by 1/h^2; the constant covers the
        # row-term count and observed cancellation on extreme-aspect grids.
        eps = np.finfo(float).eps
        floor = 64.0 * eps * (self.a_bound / float(h.min()) ** 2 + self.b_bound / self.k**2)
        self.tol = max(_NEWTON_TOL, floor)

    def on(self, grid: Grid) -> "_Operator":
        """The same operator on another grid of the same zeta, cell counts
        and psi nodes: the index arrays and the neighbour table are shared
        and only the phi geometry is recomputed."""
        moved = copy.copy(self)
        moved._set_phi(grid)
        return moved

    def _net_flux(self, c, Qfull, F):
        """cE (Q_E - Q_C) - cW (Q_C - Q_W) + cN (F_N - F_C) - cS (F_C - F_S)
        at every free node C, for face conductances c = (cE, cW, cN, cS)."""
        C, E, W, N, S = self.stencil
        cE, cW, cN, cS = c
        QC, FC = Qfull.take(C), F.take(C)
        return (
            cE * (Qfull.take(E) - QC)
            - cW * (QC - Qfull.take(W))
            + cN * (F.take(N) - FC)
            - cS * (FC - F.take(S))
        )

    def residual(self, Qfull, F=None, q0=None):
        """Finite-volume residual over free nodes (cell-integrated units):
        the net face flux, less the inlet face's flux dpsi G on the inlet
        rows.  ``F`` is F(Qfull) and ``q0`` the inlet speeds
        (``inlet_speeds``) when the caller already has them."""
        if F is None:
            F = self.gas.fast_F_of_A(Qfull)
        if self.fixed_inlet_flux is None:
            if q0 is None:
                q0 = self.inlet_speeds(Qfull)
            G = inlet_flux(q0, self.gas, self.cfg)
        else:
            G = self.fixed_inlet_flux
        r = self._net_flux(self.c, Qfull, F)
        r[self.at_inlet] -= self.dpsi[self.at_inlet] * G
        return r

    def _rates(self, dh):
        """The conductances' rates when the phi cell widths move at the
        rates ``dh`` (``Grid.dh_dxi`` or ``Grid.dh_dzeta``)."""
        ii, inner = self.ii, ~self.at_inlet
        cE, cW, _, _ = self.c
        dcT = 0.5 * (np.where(inner, dh[ii - 1], 0.0) + dh[ii]) / self.k
        return (
            -cE * dh[ii] / self.hE,
            -cW * dh[ii - 1] / self.hW,
            dcT * self.has_N,
            dcT * self.has_S,
        )

    def dr_dxi(self, Qfull, F):
        """d(residual)/d xi at fixed nodal values Q (and F = F(Q)), with the
        grid's cell counts held fixed: the net flux through conductances
        moving at their xi-rates (the inlet flux does not depend on xi)."""
        return self._net_flux(self._rates(self.grid.dh_dxi), Qfull, F)

    def dr_dzeta(self, Qfull, F):
        """d(residual)/d zeta at fixed nodal values Q (and F = F(Q)) and
        fixed xi, with the grid's cell counts held fixed, like ``dr_dxi``."""
        return self._net_flux(self._rates(self.grid.dh_dzeta), Qfull, F)

    def density_norm(self, r):
        return float(np.max(np.abs(r) / self.cell))

    def subsolution(self):
        """The start of a solve that has no donor field, linear in phi and
        constant in psi: Q0 = A(c_e) - (xi - phi) s.

        On the symmetric grid (xi = zeta) with the Robin inlet it is the
        discrete solution itself: a profile linear in phi zeroes every
        interior and wall row on the uniform cells, and the inlet row
        s = G(q(A(c_e) - xi s)) is one scalar equation.  Its root a* =
        A(c_e) - xi s is found on [A(c_l), A(c_e)], where h(a) = (A(c_e) -
        a)/xi - G(q(a)) decreases (dG/dA = -1/(R0 q) and R0 q >= R0 c_l >=
        xi) from (1/rho(c_l))(1/xi - 1/(R0 c_l)) >= 0 to -G(c_e) < 0.
        Elsewhere s = G(c_l) = 1/(R0 c_l rho(c_l^2)), a subsolution."""
        xi = self.grid.xi
        slope = inlet_flux(self.consts.c_l, self.gas, self.cfg)
        if self.grid.dh_dxi is None and self.fixed_inlet_flux is None:
            gas, cfg = self.gas, self.cfg
            h = lambda a: (self.a_ce - a) / xi - float(inlet_flux(gas.fast_q_of_A(a), gas, cfg))
            a = float(gas.fast_A(self.consts.c_l))
            h_l = h(a)
            if h_l > 0.0:  # else xi is at the cap R0 c_l, where a* = A(c_l)
                br = numerics.Bracket(a, self.a_ce, h_l, h(self.a_ce))
                a = numerics.find_root_monotone(h, br, _ROOT_TOL * abs(a))
            slope = (self.a_ce - a) / xi
        prof = self.a_ce - (xi - self.grid.phi_nodes) * slope
        return np.repeat(prof[:, None], self.grid.n_psi + 1, axis=1)

    def inlet_speeds(self, Qfull):
        """The speeds q(0, psi) on the inlet column."""
        return self.gas.fast_q_of_A(Qfull[0, :])

    def inlet_defect(self, q0) -> float:
        """The bordered row, the inlet defect D(Q) (``inlet_defect``), from
        the inlet speeds q0 (``inlet_speeds``); D has no direct xi
        dependence."""
        return _mass_defect(q0, self.grid.psi_nodes, self.gas, self.cfg)

    def defect_dot(self, q0, v) -> float:
        """(dD/dQ) . v for a vector v over the free nodes."""
        n = len(q0)  # inlet nodes come first in the free-node ordering
        return float(np.dot(self.defect_w / q0, v[:n]))

    def coercive(self, q0) -> bool:
        """Whether the inlet speeds q0 keep R0 min q0 >= xi (to 1e-9 xi), so
        that the inlet columns of the Newton matrix absorb the Robin term:
        the one part of the certificate that depends on the iterate, F' > 0
        holding on the whole clamp range."""
        return self.cfg.R0 * float(np.min(q0)) - self.grid.xi >= -1e-9 * self.grid.xi

    def newton_matrix(self, Qfull, q0=None):
        """Assemble M = -J by its diagonals and certify it is an M-matrix;
        ``q0`` is the inlet speeds when the caller already has them."""
        C, _, _, N, S = self.stencil
        # One lookup on the full grid, gathered at the C, N and S neighbours.
        fp = self.gas.fast_Fprime_of_A(Qfull)
        fpC = fp.take(C)
        if np.any(fpC <= 0.0):
            raise SingularSystemError("flux slope F' lost positivity (supersonic state)")
        cE, cW, cN, cS = self.c
        diag = cE + cW + (cN + cS) * fpC
        offdiag = (-cE, -cW, -cN * fp.take(N), -cS * fp.take(S))

        # --- M-matrix certificate: weighted column sums with w = xi + eps - phi.
        xi = self.grid.xi
        if self.fixed_inlet_flux is None:
            # G(Q) = 1/(R0 q rho) has dG/dA = -1/(R0 q) on the inlet rows.
            if q0 is None:
                q0 = self.inlet_speeds(Qfull)
            diag[self.at_inlet] -= self.dpsi[self.at_inlet] / (self.cfg.R0 * q0)
            q_min = float(np.min(q0))
            if not self.coercive(q0):
                raise SingularSystemError(
                    "inlet coercivity lost: R0 * min q(0,psi) = "
                    f"{self.cfg.R0 * q_min:.6g} < xi = {xi:.6g}"
                )
            eps = max(1e-12 * xi, self.cfg.R0 * q_min - xi)
        else:
            eps = xi
        w = xi + eps - self.phi_of_p
        colsum = w * diag
        for (mask, col, _), v in zip(self.neighbours, offdiag):
            np.add.at(colsum, col, (w * v)[mask])
        scale = float(np.max(w * diag))
        if float(colsum.min()) < -1e-9 * scale:
            raise SingularSystemError(
                f"M-matrix certificate failed: weighted column sum "
                f"{float(colsum.min()):.3e} below -1e-9 * {scale:.3e}"
            )
        if float(colsum.max()) <= 0.0:
            raise SingularSystemError(
                "M-matrix certificate failed: no strictly dominant column"
            )

        diags = np.zeros((len(self.offsets), self.n_free))
        diags[self.offsets.index(0)] = diag
        for (mask, col, row), v in zip(self.neighbours, offdiag):
            diags[row, col] = v[mask]
        return numerics.BandedSystem(self.n_free, self.offsets, diags)


#: Newton tolerance on the density-norm residual (floored by roundoff).
_NEWTON_TOL = 1e-10
#: Relative width, in A, to which the symmetric grid's inlet root is found.
_ROOT_TOL = 1e-13
#: Factorizations a Newton solve may take before it gives up.
_MAX_ITERS = 100
#: Smallest damping of a fixed-xi Newton step before the line search stalls.
_DAMPING_FLOOR = 2.0**-20
#: Smallest damping of a bordered step before the fixed-xi step is taken.
_BORDERED_DAMPING_FLOOR = 2.0**-6
#: A chord step is kept when it cuts the residual (bordered: the merit) to
#: this fraction of its value, or converges.  Chord steps contract linearly,
#: so a weaker rule trades a factorization for many slow steps: at 1/2 the
#: 64x32 cap shots of a classify took ~20 chord steps each and ran ~10%
#: slower than Newton alone, at 1/4 ~15% faster; 512x128 solves gain the
#: same at both.
_CHORD_DECREASE = 0.25


def shoot_tolerance(cfg: FlowConfig) -> float:
    """Tolerance on |inlet_defect| for a free solution: 1e-8 R0 vartheta."""
    return 1e-8 * cfg.R0 * cfg.vartheta


def inlet_flux(q, gas: GasModel, cfg: FlowConfig):
    """The inlet flux G(q) = 1/(R0 q rho(q^2)) at inlet speed(s) q: the Robin
    condition reads dQ/dphi = G(q) on the inlet column phi = 0."""
    return 1.0 / (cfg.R0 * q * gas.rho(q))


def _mass_defect(q0, psi_nodes, gas: GasModel, cfg: FlowConfig) -> float:
    integrand = 1.0 / (q0 * np.asarray(gas.rho(q0)))
    return float(np.trapezoid(integrand, psi_nodes)) - cfg.R0 * cfg.vartheta


def inlet_defect(field: SpeedField, gas: GasModel, cfg: FlowConfig) -> float:
    """Mass-flux imbalance of the inlet arc: integral of 1/(q rho) minus
    R0 * vartheta.  Zero (to shooting tolerance) for a true free solution."""
    return _mass_defect(field.q[0, :], field.grid.psi_nodes, gas, cfg)


def interp_onto(grid_new: Grid, grid_old: Grid, Q_old: np.ndarray) -> np.ndarray:
    """Q_old, given on grid_old's nodes, carried onto grid_new's nodes by
    tensor-linear interpolation: along phi on each psi line of grid_old,
    then along psi on each phi line of grid_new.  A direction whose nodes
    match is not interpolated, so matching grids return a copy of Q_old."""
    out = np.array(Q_old, dtype=float)
    if not np.array_equal(grid_new.phi_nodes, grid_old.phi_nodes):
        out = np.stack(
            [np.interp(grid_new.phi_nodes, grid_old.phi_nodes, col) for col in out.T],
            axis=1,
        )
    if not np.array_equal(grid_new.psi_nodes, grid_old.psi_nodes):
        out = np.stack(
            [np.interp(grid_new.psi_nodes, grid_old.psi_nodes, row) for row in out]
        )
    return out


def _newton_solve(op: _Operator, Qfull0, regrid=None):
    """Damped Newton on the finite-volume system, with chord steps.

    Returns (operator, Qfull, norm, factorizations, back-solves); the
    operator's grid is the one the field was solved on.  With ``regrid``, the
    map from xi to ``build_grid(zeta, xi, ...)``, the outlet potential xi is
    solved for too (the bordered row, see ``solve_fixed``).
    """
    Qfull = Qfull0.copy()
    Qfull[~op.free] = op.a_ce
    Qfull[op.free] = np.clip(Qfull[op.free], op.a_floor, op.a_ce)
    F = op.gas.fast_F_of_A(Qfull)
    # The inlet speeds of an iterate are looked up once and read by the
    # residual, the chord step's coercivity test, the defect and the Newton
    # matrix alike; a fixed inlet flux (no bordered row then) reads none.
    robin = op.fixed_inlet_flux is None
    q0 = op.inlet_speeds(Qfull) if robin else None
    r = op.residual(Qfull, F, q0)
    norm = op.density_norm(r)
    D = scale = merit = shoot_tol = None
    if regrid is not None:
        D = op.inlet_defect(q0)
        shoot_tol = shoot_tolerance(op.cfg)

    def trial(delta, dxi, lam, chord=False):
        # The state after the step (delta, dxi) damped by lam if the line
        # search accepts it, else None; reads the current iterate.  A chord
        # step must cut the residual (bordered: the merit) by
        # _CHORD_DECREASE and keep the Newton matrix certifiable, so that
        # the refactorization it may need is not refused.
        op_t = op
        if dxi != 0.0:
            try:
                op_t = op.on(regrid(op.grid.xi + lam * dxi))
            except ConstraintError:  # the graded run cannot fill this xi
                return None
        Q_t = Qfull.copy()
        Q_t[op.free] = np.clip(Qfull[op.free] + lam * delta, op.a_floor, op.a_ce)
        q0_t = op.inlet_speeds(Q_t) if robin else None
        if chord and robin and not op_t.coercive(q0_t):
            return None
        decrease = _CHORD_DECREASE if chord else 1.0 - 0.25 * lam
        F_t = op.gas.fast_F_of_A(Q_t)
        r_t = op_t.residual(Q_t, F_t, q0_t)
        norm_t = op_t.density_norm(r_t)
        if dxi == 0.0:
            if not (norm_t <= decrease * norm or norm_t <= op_t.tol):
                return None
            D_t = None
            if regrid is not None:
                D_t = op_t.inlet_defect(q0_t)
        else:
            D_t = op_t.inlet_defect(q0_t)
            merit_t = max(norm_t / scale[0], abs(D_t) / scale[1])
            if not (
                merit_t <= decrease * merit
                or (norm_t <= op_t.tol and abs(D_t) <= shoot_tol)
            ):
                return None
        return op_t, Q_t, F_t, r_t, norm_t, D_t, q0_t, dxi

    def candidates(solve):
        # Steps (dQ, dxi, smallest damping) at the current iterate, in the
        # order they are tried; ``solve`` applies M^-1 to an (n,) or (n, 2)
        # right-hand side.
        nonlocal scale, merit
        if regrid is None:
            return [(solve(r), 0.0, _DAMPING_FLOOR)]
        # Two right-hand sides: y = M^-1 r is the fixed-xi step, z =
        # M^-1 dr/dxi the field's slope dQ/dxi.  The Schur complement c.z is
        # the defect's slope d'(xi), positive by the defect's monotonicity.
        # The bordered step comes first when the slope is positive and the
        # step keeps xi inside (zeta, R0 c_l); the fixed-xi step y is the
        # fallback (a start flat on [zeta, xi], or a failed line search).
        rhs = np.empty((op.n_free, 2), order="F")  # as LAPACK stores it
        rhs[:, 0] = r
        rhs[:, 1] = op.dr_dxi(Qfull, F)
        yz = solve(rhs)
        y, z = yz[:, 0], yz[:, 1]
        cy = op.defect_dot(q0, y)
        if scale is None:
            # The merit scales the residual by its starting value and the
            # defect by the larger of its starting value and the first field
            # correction's change of it, c.y: a start close to the root (a
            # coarse solution) has a tiny defect that the first correction
            # alone moves by orders of magnitude more.
            scale = (max(norm, op.tol), max(abs(D), abs(cy), shoot_tol))
        merit = max(norm / scale[0], abs(D) / scale[1])
        steps = [(y, 0.0, _DAMPING_FLOOR)]
        slope = op.defect_dot(q0, z)
        if slope > 0.0:
            dxi = -(D + cy) / slope
            if op.grid.zeta < op.grid.xi + dxi < op.consts.zeta_cap:
                steps.insert(0, (y + dxi * z, dxi, _BORDERED_DAMPING_FLOOR))
        return steps

    sys = None  # the last factorized Newton matrix, its LU on sys.lu
    full = False  # whether the last step was taken at full length
    it = back_solves = 0
    while True:
        if norm <= op.tol and (regrid is None or abs(D) <= shoot_tol):
            return op, Qfull, norm, it, back_solves
        accepted = None
        if full:
            # Chord step: the last factorization, at full length only; after
            # a damped step the iterate is too far from where it was made.
            back_solves += 1
            delta, dxi, _ = candidates(lambda rhs: numerics.back_solve(sys, rhs))[0]
            if regrid is None or dxi != 0.0:
                accepted = trial(delta, dxi, 1.0, chord=True)
        if accepted is None:
            if it == _MAX_ITERS:
                raise NonconvergenceError(
                    f"Newton did not reach {op.tol:.3e} in {_MAX_ITERS} iterations "
                    f"(residual {norm:.3e})",
                    estimate=norm,
                )
            it += 1
            sys = op.newton_matrix(Qfull, q0)
            steps = candidates(lambda rhs: numerics.solve_banded(sys, rhs))
            for delta, dxi, lam_min in steps:
                lam = 1.0
                while accepted is None and lam >= lam_min:
                    accepted = trial(delta, dxi, lam)
                    full = lam == 1.0
                    lam *= 0.5
                if accepted is not None:
                    break
            if accepted is None:
                raise NonconvergenceError(
                    f"Newton line search stalled at residual {norm:.3e} "
                    f"(tol {op.tol:.3e})",
                    estimate=norm,
                )
            if regrid is not None and accepted[-1] == 0.0 and norm <= op.tol:
                # Q already solves the problem at this xi and the xi step was
                # refused (it leaves (zeta, R0 c_l) or fails its line
                # search): fixed-xi steps cannot reduce the defect.
                raise NonconvergenceError(
                    f"bordered Newton stalled at xi = {op.grid.xi:.10g} with "
                    f"defect {D:.3e}: the xi step is refused",
                    estimate=D,
                )
        op, Qfull, F, r, norm, D, q0, _ = accepted


def solve_fixed(
    zeta: float,
    xi: float,
    cfg: FlowConfig,
    gas: GasModel,
    consts: DerivedConstants,
    options: SolverOptions | None = None,
    *,
    start: SpeedField | ZetaTangent | None = None,
    free_xi: bool = False,
) -> SpeedField:
    """Solve the fixed-(zeta, xi) stream problem on a fresh grid.

    The initial iterate is the field ``start``, a solved flow on any grid,
    carried onto this grid by ``interp_onto``.  A ``ZetaTangent`` start is
    first advanced along its tangent: Q + (zeta - zeta_0) dQ/dzeta on its
    flow's cell counts stretched to this zeta (the flow as it is when those
    counts cannot fill that grid), a first-order prediction that is already
    on this grid when the counts at zeta are the same.  Without a start it is
    ``_Operator.subsolution``: at xi = zeta the discrete solution, returned
    with ``newton_iters`` = ``back_solves`` = 0, and otherwise the linear
    subsolution Q0 = A(c_e) - (xi - phi) / (R0 c_l rho(c_l^2)).  The
    converged field satisfies the Dirichlet data exactly, and must pass
    ``checks.field_checks`` (the speed bounds c_l <= q <= c_e and
    monotonicity in both coordinates, on every node) or ConstraintError is
    raised.  ``newton_iters`` counts the factorizations and ``back_solves``
    the back-solves with the last factorization.

    With ``free_xi`` the given xi is only the starting value of the outlet
    potential, which becomes one more unknown pinned by the inlet mass flux
    (|inlet_defect| <= ``shoot_tolerance``, the bordered row of the module
    docstring).  Each Newton step moves Q and xi together; the cell counts of
    ``build_grid`` do not depend on xi, so every iterate lives on
    ``build_grid(zeta, xi)`` and the returned field's grid is
    ``build_grid(zeta, xi*)`` node for node.  The caller reads xi* from
    ``field.grid.xi``.
    """
    options = options or SolverOptions()
    grid = build_grid(zeta, xi, cfg.m, options.n_phi, options.n_psi, consts)
    op = _Operator(grid, gas, cfg, consts)
    if start is None:
        Q0 = op.subsolution()
    elif isinstance(start, ZetaTangent):
        Q0 = interp_onto(grid, *_advanced(start, zeta, options.n_phi, consts))
    else:
        Q0 = interp_onto(grid, start.grid, start.Q)
    regrid = None
    if free_xi:
        regrid = lambda x: build_grid(zeta, x, cfg.m, options.n_phi, options.n_psi, consts)
    # A bordered solve moves to an operator per xi; the one it ends on
    # carries the answer's grid.
    op, Qfull, norm, iters, back_solves = _newton_solve(op, Q0, regrid)
    q = np.asarray(gas.fast_q_of_A(Qfull))
    q[~op.free] = consts.c_e
    field = SpeedField(
        grid=op.grid,
        Q=Qfull,
        q=q,
        residual_norm=norm,
        newton_iters=iters,
        back_solves=back_solves,
    )
    require(field_checks(field, consts))
    return field


def _advanced(tangent: ZetaTangent, zeta: float, n_phi: int, consts: DerivedConstants):
    """(grid, Q) of the tangent's flow advanced to ``zeta`` at its xi: its
    cell counts (those ``build_grid`` gives its zeta for ``n_phi``)
    stretched to zeta, and Q + (zeta - zeta_0) dQ/dzeta on their nodes.  The
    flow's own grid and Q when those counts cannot fill that grid or are not
    the flow's."""
    src = tangent.field.grid
    try:
        phi, iz, dh_dxi, dh_dzeta = _phi_nodes(
            zeta, src.xi, n_phi, _split(src.zeta, n_phi, consts)
        )
    except ConstraintError:  # the graded run cannot fill the stretched segment
        return src, tangent.field.Q
    if (len(phi), iz) != (len(src.phi_nodes), src.zeta_index):
        return src, tangent.field.Q
    grid = Grid(zeta, src.xi, src.m, phi, src.psi_nodes, iz, dh_dxi, dh_dzeta)
    return grid, tangent.field.Q + (zeta - src.zeta) * tangent.dQ


def zeta_tangent(
    field: SpeedField, gas: GasModel, cfg: FlowConfig, consts: DerivedConstants
) -> ZetaTangent:
    """The zeta-derivative of the fixed-xi flow family through ``field``, a
    solved flow with zeta < xi, at its xi and cell counts.

    Differentiating r(Q, zeta) = 0 gives dQ/dzeta = M^-1 dr/dzeta with
    M = -J the Newton matrix, assembled, certified and factored here at the
    field itself (the solve's last factorization lags the converged field
    and would bias the slope), and dr/dzeta the net flux through the
    conductances' zeta-rates (``Grid.dh_dzeta``).  The defect's slope is
    c . dQ/dzeta, c its gradient on the inlet column.  Both are exact for
    the discrete problem between the zetas where ``build_grid``'s cell
    counts change; across such a zeta the defect jumps.
    """
    op = _Operator(field.grid, gas, cfg, consts)
    q0 = op.inlet_speeds(field.Q)
    system = op.newton_matrix(field.Q, q0)
    y = numerics.solve_banded(system, op.dr_dzeta(field.Q, gas.fast_F_of_A(field.Q)))
    dQ = np.zeros_like(field.Q)
    dQ[op.free] = y
    return ZetaTangent(field, dQ, op.defect_dot(q0, y))


def assemble_residual(field: SpeedField, gas: GasModel, cfg: FlowConfig) -> np.ndarray:
    """Nodewise residual of the discrete system in classical (non-FV) units.

    Interior nodes report the centered second-difference form
    D2_phi Q + D2_psi F(Q); inlet nodes report the flux-corrected Robin row
    (Q_1j - Q_0j)/h - G(Q_0j) + (h/2) D2_psi F (so a constant field Q = A(c_e)
    yields exactly -1/(R0 c_e rho(c_e^2))); axis/wall nodes the mirrored
    transverse-flux rows; Dirichlet nodes report Q - A(c_e).  Every row reads
    at most 5 nodes.  c_e and the Newton clamp come from
    ``derive_constants(gas, cfg)``, as in ``solve_fixed``.
    """
    grid = field.grid
    op = _Operator(grid, gas, cfg, derive_constants(gas, cfg))
    r = op.residual(field.Q)
    out = np.empty_like(field.Q)
    out[:] = field.Q - op.a_ce  # Dirichlet rows
    # Inlet rows carry 1/dpsi units, transverse-flux rows 1/dphi, interior
    # rows the full density normalization.
    norm = np.where(
        op.at_inlet,
        op.dpsi,
        np.where(op.has_N & op.has_S, op.cell, op.dphi),
    )
    out[op.free] = r / norm
    return out


def picard_T(
    g,
    zeta: float,
    xi: float,
    cfg: FlowConfig,
    gas: GasModel,
    options: SolverOptions | None = None,
) -> np.ndarray:
    """One application of the inlet-profile map: solve the auxiliary problem
    with the inlet flux held at the profile 1/(R0 g rho(g^2)) and return the
    resulting inlet speed trace q(0, psi).

    ``g`` may be a callable of psi, a scalar, or an array over the psi nodes,
    with values in [c_l, c*).  Fixed points of this map coincide with
    solutions of the coupled problem (the Robin inlet condition).
    """
    options = options or SolverOptions()
    consts = derive_constants(gas, cfg)
    grid = build_grid(zeta, xi, cfg.m, options.n_phi, options.n_psi, consts)
    psi = grid.psi_nodes
    if callable(g):
        trace = np.array([float(g(p)) for p in psi])
    else:
        trace = np.broadcast_to(np.asarray(g, dtype=float), psi.shape).copy()
    if not (np.all(trace >= consts.c_l - 1e-12) and np.all(trace < gas.c_star)):
        raise ConstraintError("inlet profile must lie in [c_l, c*)")
    op = _Operator(grid, gas, cfg, consts, fixed_inlet_flux=inlet_flux(trace, gas, cfg))
    _, Qfull, _, _, _ = _newton_solve(op, op.subsolution())
    return np.asarray(gas.fast_q_of_A(Qfull[0, :]))


def corner_exponent(field: SpeedField) -> float:
    """Fitted growth exponent of |Q - A(c_e)| along the ray phi = zeta.

    Samples at dyadic distances d = k, 2k, 4k, ... below the detachment corner
    (zeta, m), capped at half the distance to the nearest other boundary;
    needs at least 5 dyadic levels, otherwise the resolution is insufficient.
    A symmetric field has no detachment corner and is rejected.
    """
    grid = field.grid
    iz = grid.zeta_index
    if iz >= grid.n_phi:
        raise ConstraintError("symmetric field (zeta == xi) has no detachment corner")
    k = float(grid.psi_nodes[1] - grid.psi_nodes[0])
    # Samples must stay inside the corner-dominated region: within half the
    # distance to the inlet and the axis along the sampling ray, and within
    # the (d-independent) phi-distance to the outlet column.
    d_max = min(0.5 * grid.m, 0.5 * grid.zeta, grid.xi - grid.zeta)
    a_ce = float(field.Q[grid.n_phi, 0])
    samples = []
    level = 0
    while True:
        step = 2**level
        d = step * k
        if d > d_max or step > grid.n_psi:
            break
        val = a_ce - float(field.Q[iz, grid.n_psi - step])
        if val <= 0.0:
            raise ConstraintError(
                f"nonpositive corner increment at distance {d}; field not usable"
            )
        samples.append((d, val))
        level += 1
    if len(samples) < 5:
        raise ConstraintError(
            f"insufficient resolution near the corner: {len(samples)} dyadic "
            "levels available, need 5"
        )
    return numerics.fit_power_exponent(samples)
