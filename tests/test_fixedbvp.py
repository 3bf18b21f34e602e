"""Grid construction, finite-volume operator, Newton solver, Picard map."""

from unittest import mock

import numpy as np
import pytest

import jetstream as js
import oracle_data as od
from jetstream import errors, fixedbvp, numerics
from jetstream.checks import field_checks
from jetstream.fixedbvp import _Operator


def _manufactured_Q(gas, phi, psi, xi, m):
    """Smooth field with mid-subsonic speeds, nontrivial in both variables."""
    a_lo = float(gas.fast_A(0.40))
    a_hi = float(gas.fast_A(0.75))
    P, S = np.meshgrid(phi, psi, indexing="ij")
    shape = 0.55 + 0.35 * (P / xi) + 0.08 * np.sin(np.pi * P / xi) * np.cos(
        np.pi * S / m
    )
    return a_lo + (a_hi - a_lo) * shape


def _field_from_Q(gas, grid, Q):
    q = gas.fast_q_of_A(Q)
    return js.SpeedField(grid=grid, Q=Q, q=q, residual_norm=0.0, newton_iters=0)


def _gcl_start(gas, cfg, consts, grid):
    """The linear profile A(c_e) - (xi - phi) G(c_l), constant in psi, as a
    field on ``grid``: the cold start of a solve off the symmetric grid."""
    slope = fixedbvp.inlet_flux(consts.c_l, gas, cfg)
    prof = consts.a_ce - (grid.xi - grid.phi_nodes) * slope
    return _field_from_Q(gas, grid, np.repeat(prof[:, None], grid.n_psi + 1, axis=1))


#: The tight configuration: zeta_star > 0, the cap binds below it.
TIGHT = js.FlowConfig(R0=1.0, vartheta=1.0, m=0.25, c_e=0.8)


# ---------------------------------------------------------------------------
# build_grid


def test_build_grid_symmetric_uniform(consts):
    zh = consts.zeta_hat
    g = js.build_grid(zh, zh, od.M_FLUX, 64, 32, consts)
    assert g.zeta_index == 64
    assert g.n_phi == 64 and g.n_psi == 32
    assert np.allclose(np.diff(g.phi_nodes), zh / 64, rtol=1e-14)
    assert g.phi_nodes[0] == 0.0 and abs(g.phi_nodes[-1] - zh) < 1e-15
    assert abs(g.psi_nodes[-1] - od.M_FLUX) < 1e-15
    assert g.dh_dxi is None


def test_build_grid_asymmetric_split(consts):
    # The split is chosen at xi_ref(0.06) = 0.11593 on the desk config:
    # n1 = round(64 * 0.06 / 0.11593) = 33 cells on [0, zeta].
    g = js.build_grid(0.06, 0.11, 0.25, 64, 32, consts)
    iz = g.zeta_index
    assert iz == 33
    assert abs(g.phi_nodes[iz] - 0.06) < 1e-15
    assert abs(g.phi_nodes[-1] - 0.11) < 1e-15
    h1 = 0.06 / iz
    h2 = (0.11 - 0.06) / (g.n_phi - iz)
    assert iz >= 4 and g.n_phi - iz >= 4
    assert 0.5 <= h1 / h2 <= 2.0


@pytest.mark.parametrize("n_phi", [64, 128])
def test_build_grid_counts_do_not_move_with_xi(consts, n_phi):
    # Across (0, zeta_hat] the cell counts and zeta's index are fixed by
    # zeta: every xi in (zeta, R0 c_l] gets the same counts, its nodes
    # moving at the rates dh_dxi gives.
    zh, cap = consts.zeta_hat, consts.zeta_cap
    for frac in (1e-3, 0.01, 0.1, 0.3, 0.6, 0.9, 0.99, 1.0 - 8e-4, 1.0):
        zeta = frac * zh
        xis = zeta + (cap - zeta) * np.array([0.05, 0.3, 0.6, 1.0])
        grids = [js.build_grid(zeta, float(x), od.M_FLUX, n_phi, n_phi // 2, consts)
                 for x in xis]
        assert len({(g.n_phi, g.zeta_index) for g in grids}) == 1, frac
        for g in grids[:-1]:
            dx = 1e-7 * g.xi
            moved = js.build_grid(zeta, g.xi + dx, od.M_FLUX, n_phi, n_phi // 2, consts)
            rate = (np.diff(moved.phi_nodes) - np.diff(g.phi_nodes)) / dx
            assert np.max(np.abs(rate - g.dh_dxi)) <= 1e-6, frac


def _assert_graded(g, zeta, xi, n_phi):
    """Invariants of a grid whose coarse segment is graded away from zeta."""
    iz = g.zeta_index
    h = np.diff(g.phi_nodes)
    assert g.phi_nodes[iz] == zeta
    assert g.phi_nodes[0] == 0.0 and g.phi_nodes[-1] == xi
    assert g.n_phi <= 2 * n_phi
    assert iz >= 4 and g.n_phi - iz >= 4
    left, right = h[:iz], h[iz:]
    if right[0] > left[-1]:
        fine, coarse = left, right  # graded toward the outlet
    else:
        fine, coarse = right, left[::-1]  # graded toward the inlet
    assert np.ptp(fine) <= 1e-12 * fine[0]
    assert coarse[0] <= 2.0 * fine[0] * (1.0 + 1e-12)
    steps = coarse[1:] / coarse[:-1]
    assert steps.min() >= 1.0 - 1e-9  # spacing never shrinks away from zeta
    assert steps.max() <= (1.0 + 8.0 / n_phi) * (1.0 + 1e-12)


def test_build_grid_extreme_ratio_still_legal(consts):
    # zeta tiny relative to xi: the right segment is graded away from zeta
    # instead of carrying thousands of uniform cells.
    _assert_graded(js.build_grid(0.001, 0.2, 0.25, 64, 32, consts), 0.001, 0.2, 64)
    # The floor probe of the zeta_star search at the outlet cap.
    zeta, xi = 1e-3 * consts.zeta_hat, consts.zeta_cap
    _assert_graded(js.build_grid(zeta, xi, od.M_FLUX, 64, 32, consts), zeta, xi, 64)
    # Near-symmetric: 1 - zeta/xi = 8e-4, the left segment is the graded one.
    xi = consts.zeta_hat
    zeta = (1.0 - 8e-4) * xi
    g = js.build_grid(zeta, xi, od.M_FLUX, 128, 64, consts)
    _assert_graded(g, zeta, xi, 128)
    assert g.n_phi - g.zeta_index == 4
    # Spacings within a factor 2 of each other at xi_ref: no grading, node
    # for node the concatenation of np.linspace over each segment, with
    # n1 = 33 as above.
    g = js.build_grid(0.06, 0.11, 0.25, 64, 32, consts)
    expected = np.concatenate(
        [np.linspace(0.0, 0.06, 34), np.linspace(0.06, 0.11, 64 - 33 + 1)[1:]]
    )
    assert g.zeta_index == 33
    assert np.array_equal(g.phi_nodes, expected)


def test_build_grid_validation(consts):
    with pytest.raises(errors.ConstraintError):
        js.build_grid(-0.01, 0.1, 0.25, 64, 32, consts)
    with pytest.raises(errors.ConstraintError):
        js.build_grid(0.12, 0.1, 0.25, 64, 32, consts)
    with pytest.raises(errors.ConstraintError):
        js.build_grid(0.05, 0.3, 0.25, 64, 32, consts)  # beyond R0 c_l
    with pytest.raises(errors.ConstraintError):
        js.build_grid(0.05, 0.1, 0.25, 8, 32, consts)
    with pytest.raises(errors.ConstraintError):
        js.build_grid(0.05, 0.1, 0.25, 64, 4, consts)


# ---------------------------------------------------------------------------
# interp_onto


@pytest.mark.parametrize(
    "coarse, fine",
    [
        ((0.05, 0.1, 64, 32), (0.05, 0.1, 128, 64)),  # the coarse start
        ((0.05, 0.1, 64, 32), (0.05, 0.104, 64, 32)),  # a move in xi
        ((0.001, 0.17, 64, 32), (0.001, 0.172, 128, 64)),  # graded right
    ],
    ids=["refine", "move-xi", "graded"],
)
def test_interp_onto_is_exact_on_bilinear_fields(consts, coarse, fine):
    # Tensor-linear interpolation reproduces a + b phi + c psi + d phi psi
    # wherever the new nodes lie inside the old grid.
    old = js.build_grid(coarse[0], coarse[1], od.M_FLUX, coarse[2], coarse[3], consts)
    new = js.build_grid(fine[0], fine[1], od.M_FLUX, fine[2], fine[3], consts)

    def field(grid):
        P, S = np.meshgrid(grid.phi_nodes, grid.psi_nodes, indexing="ij")
        return 0.3 + 2.0 * P - 1.5 * S + 7.0 * P * S

    out = fixedbvp.interp_onto(new, old, field(old))
    inside = new.phi_nodes <= old.xi
    assert out.shape == (new.n_phi + 1, new.n_psi + 1)
    assert np.max(np.abs(out[inside] - field(new)[inside])) <= 1e-14


def test_interp_onto_matching_nodes_returns_the_input(consts):
    grid = js.build_grid(0.05, 0.1, od.M_FLUX, 64, 32, consts)
    twin = js.build_grid(0.05, 0.1, od.M_FLUX, 64, 32, consts)
    Q = np.random.default_rng(3).uniform(0.1, 0.2, (65, 33))
    out = fixedbvp.interp_onto(twin, grid, Q)
    assert np.array_equal(out, Q)
    assert out is not Q


# ---------------------------------------------------------------------------
# Residual operator


def test_constant_exit_field_residual(gas, cfg, consts):
    # Q identically A(c_e): interior and Dirichlet rows vanish exactly and
    # the inlet rows equal the (negative) inlet flux density.
    zh = consts.zeta_hat
    grid = js.build_grid(zh, zh, od.M_FLUX, 32, 16, consts)
    Q = np.full((33, 17), od.A_CE)
    field = _field_from_Q(gas, grid, Q)
    r = js.assemble_residual(field, gas, cfg)
    expected_inlet = -1.0 / (od.R0 * od.C_E * od.RHO_CE)
    assert np.max(np.abs(r[1:, :])) < 1e-14
    assert np.max(np.abs(r[0, :] - expected_inlet)) < 1e-12


def test_interior_residual_second_order(gas, cfg, consts):
    # Richardson: on nested uniform grids the interior density residual of a
    # fixed smooth field differs between levels by O(h^2).  At zeta = 0.0584
    # the split's reference outlet potential is 2 zeta to 1e-4, so n1 = n/2
    # on every level and xi = 2 zeta makes the grids fully uniform.
    zeta, m = 0.0584, od.M_FLUX
    xi = 2.0 * zeta
    levels = [16, 32, 64, 128, 256]
    res = {}
    for n in levels:
        grid = js.build_grid(zeta, xi, m, n, n // 2, consts)
        assert grid.zeta_index == n // 2
        Q = _manufactured_Q(gas, grid.phi_nodes, grid.psi_nodes, xi, m)
        res[n] = js.assemble_residual(_field_from_Q(gas, grid, Q), gas, cfg)
    samples = []
    for n in levels[:-1]:
        a, b = res[n], res[2 * n]
        diff = a[1:-1, 1:-1] - b[2:-2:2, 2:-2:2]
        samples.append((xi / n, float(np.max(np.abs(diff)))))
    order = numerics.fit_power_exponent(samples)
    assert order >= 1.8, f"observed interior residual order {order:.3f}"


@pytest.mark.parametrize(
    "zeta, xi, fixed_flux",
    [(0.06, 0.11, False), (0.001, 0.15, False), (0.1, 0.1003, False), (0.06, 0.11, True)],
    ids=["uniform", "graded-right", "graded-left", "fixed-inlet-flux"],
)
def test_newton_matrix_matches_directional_derivative(gas, cfg, consts, zeta, xi, fixed_flux):
    # The grids of test_dr_dxi_matches_central_difference, with the Robin
    # inlet, and the Picard map's operator with a prescribed inlet flux.
    grid = js.build_grid(zeta, xi, od.M_FLUX, 32, 16, consts)
    flux = None
    if fixed_flux:
        trace = np.linspace(consts.c_l, consts.c_e, grid.n_psi + 1)
        flux = fixedbvp.inlet_flux(trace, gas, cfg)
    op = _Operator(grid, gas, cfg, consts, fixed_inlet_flux=flux)
    Qfull = _manufactured_Q(gas, grid.phi_nodes, grid.psi_nodes, xi, od.M_FLUX)
    Qfull[~op.free] = od.A_CE
    rng = np.random.default_rng(11)
    v = rng.uniform(-1.0, 1.0, op.n_free)
    v /= np.max(np.abs(v))
    eps = 1e-7
    Qp, Qm = Qfull.copy(), Qfull.copy()
    Qp[op.free] += eps * v
    Qm[op.free] -= eps * v
    jv_fd = (op.residual(Qp) - op.residual(Qm)) / (2.0 * eps)
    sys = op.newton_matrix(Qfull)
    jv = -numerics.banded_matvec(sys, v)  # matrix is M = -J
    denom = np.max(np.abs(jv))
    assert np.max(np.abs(jv - jv_fd)) / denom < 1e-6


@pytest.mark.parametrize(
    "zeta, xi, side",
    [(0.06, 0.11, None), (0.001, 0.15, "right"), (0.1, 0.1003, "left")],
    ids=["uniform", "graded-right", "graded-left"],
)
def test_dr_dxi_matches_central_difference(gas, cfg, consts, zeta, xi, side):
    # The residual at fixed nodal values, as a function of xi (build_grid
    # holds the cell counts fixed), against its analytic xi-derivative.
    grid = js.build_grid(zeta, xi, od.M_FLUX, 32, 16, consts)
    h_phi, iz = np.diff(grid.phi_nodes), grid.zeta_index
    left, right = (bool(np.ptp(s) > 1e-12 * s.max()) for s in (h_phi[:iz], h_phi[iz:]))
    assert {(False, False): None, (True, False): "left", (False, True): "right"}[
        left, right
    ] == side
    op = _Operator(grid, gas, cfg, consts)
    Qfull = _manufactured_Q(gas, grid.phi_nodes, grid.psi_nodes, xi, od.M_FLUX)
    Qfull[~op.free] = od.A_CE
    F = gas.fast_F_of_A(Qfull)
    g = op.dr_dxi(Qfull, F)
    h = 1e-7 * xi
    r = [
        op.on(js.build_grid(zeta, x, od.M_FLUX, 32, 16, consts)).residual(Qfull)
        for x in (xi + h, xi - h)
    ]
    fd = (r[0] - r[1]) / (2.0 * h)
    assert np.max(np.abs(g - fd)) <= 1e-6 * np.max(np.abs(g))


@pytest.mark.parametrize(
    "zeta, xi, side",
    [(0.06, 0.11, None), (0.001, 0.15, "right"), (0.1, 0.1003, "left")],
    ids=["uniform", "graded-right", "graded-left"],
)
def test_phi_nodes_zeta_rates_match_central_difference(consts, zeta, xi, side):
    # The cell widths at held counts and xi, as a function of zeta, against
    # the zeta-rates _phi_nodes gives next to the xi-rates.
    split = fixedbvp._split(zeta, 32, consts)
    assert split[2] == side
    phi, iz, _, dh_dzeta = fixedbvp._phi_nodes(zeta, xi, 32, split)
    h = 1e-7 * zeta
    moved = [fixedbvp._phi_nodes(z, xi, 32, split)[0] for z in (zeta + h, zeta - h)]
    fd = (np.diff(moved[0]) - np.diff(moved[1])) / (2.0 * h)
    assert np.max(np.abs(dh_dzeta - fd)) <= 1e-6 * np.max(np.abs(dh_dzeta))
    # zeta's node moves at rate 1, the outlet node not at all.
    assert abs(dh_dzeta[:iz].sum() - 1.0) <= 1e-12 and abs(dh_dzeta.sum()) <= 1e-12
    grid = js.build_grid(zeta, xi, od.M_FLUX, 32, 16, consts)
    assert np.array_equal(grid.dh_dzeta, dh_dzeta)


def test_dr_dzeta_matches_central_difference(gas, cfg, consts):
    # The residual at fixed nodal values and held counts, as a function of
    # zeta, against the net flux through the conductances' zeta-rates.
    zeta, xi = 0.06, 0.11
    split = fixedbvp._split(zeta, 32, consts)
    grid = js.build_grid(zeta, xi, od.M_FLUX, 32, 16, consts)
    op = _Operator(grid, gas, cfg, consts)
    Qfull = _manufactured_Q(gas, grid.phi_nodes, grid.psi_nodes, xi, od.M_FLUX)
    Qfull[~op.free] = od.A_CE
    g = op.dr_dzeta(Qfull, gas.fast_F_of_A(Qfull))
    h = 1e-7 * zeta
    r = []
    for z in (zeta + h, zeta - h):
        phi, iz, dh_dxi, dh_dzeta = fixedbvp._phi_nodes(z, xi, 32, split)
        moved = fixedbvp.Grid(z, xi, od.M_FLUX, phi, grid.psi_nodes, iz, dh_dxi, dh_dzeta)
        r.append(op.on(moved).residual(Qfull))
    fd = (r[0] - r[1]) / (2.0 * h)
    assert np.max(np.abs(g - fd)) <= 1e-6 * np.max(np.abs(g))


@pytest.mark.parametrize("tight", [False, True], ids=["desk", "tight"])
def test_zeta_tangent_slope_matches_held_count_difference(gas, cfg, consts, opts64, tight):
    # g'(zeta) of a cap shot, from the tangent's fresh factorization at the
    # converged field, against a central difference of the cap defect over
    # two cap shots whose cell counts are the base shot's.
    if tight:
        cfg = TIGHT
        consts = js.derive_constants(gas, cfg)
    zeta, cap = (0.9 if tight else 0.5) * consts.zeta_hat, consts.zeta_cap
    base = js.solve_fixed(zeta, cap, cfg, gas, consts, opts64)
    tangent = fixedbvp.zeta_tangent(base, gas, cfg, consts)
    h = 1e-4 * zeta
    shots = [
        js.solve_fixed(z, cap, cfg, gas, consts, opts64, start=base) for z in (zeta + h, zeta - h)
    ]
    assert all(
        (s.grid.n_phi, s.grid.zeta_index) == (base.grid.n_phi, base.grid.zeta_index)
        for s in shots
    )
    d = [js.inlet_defect(s, gas, cfg) for s in shots]
    fd = (d[0] - d[1]) / (2.0 * h)
    assert tangent.slope > 0.0
    assert abs(tangent.slope - fd) <= 1e-6 * abs(fd)
    # dQ/dzeta too: the tangent's first-order prediction of the field at
    # zeta + h is O(h^2) off, far closer than the field at zeta.
    grid, predicted = fixedbvp._advanced(tangent, zeta + h, opts64.n_phi, consts)
    assert np.array_equal(grid.phi_nodes, shots[0].grid.phi_nodes)
    miss = np.max(np.abs(predicted - shots[0].Q))
    assert miss <= 1e-3 * np.max(np.abs(base.Q - shots[0].Q))


def test_tangent_start_falls_back_to_the_flow_on_other_counts(gas, cfg, consts, opts64):
    # A tangent whose flow was solved for another n_phi has no counts to
    # stretch: the start is the flow itself, carried by interpolation.
    zeta, cap = 0.5 * consts.zeta_hat, consts.zeta_cap
    base = js.solve_fixed(zeta, cap, cfg, gas, consts, opts64)
    tangent = fixedbvp.zeta_tangent(base, gas, cfg, consts)
    grid, Q = fixedbvp._advanced(tangent, 1.01 * zeta, 2 * opts64.n_phi, consts)
    assert grid is base.grid and Q is base.Q
    f = js.solve_fixed(1.01 * zeta, cap, cfg, gas, consts, opts64, start=tangent)
    cold = js.solve_fixed(1.01 * zeta, cap, cfg, gas, consts, opts64)
    assert np.max(np.abs(f.q - cold.q)) <= 1e-10


def test_schur_complement_is_the_defect_slope(gas, cfg, consts, opts64):
    # c.z with z = M^-1 dr/dxi, at a converged fixed-xi field, against the
    # slope of inlet_defect between two solves of the same zeta (so the same
    # cell counts).
    zeta, xi = 0.6 * consts.zeta_hat, 0.11
    f = js.solve_fixed(zeta, xi, cfg, gas, consts, opts64)
    op = _Operator(f.grid, gas, cfg, consts)
    system = op.newton_matrix(f.Q)
    z = numerics.solve_banded(system, op.dr_dxi(f.Q, gas.fast_F_of_A(f.Q)))
    slope = op.defect_dot(f.q[0, :], z)
    h = 1e-4 * xi
    fields = [js.solve_fixed(zeta, x, cfg, gas, consts, opts64) for x in (xi + h, xi - h)]
    assert all(
        (g.grid.zeta_index, g.grid.n_phi) == (f.grid.zeta_index, f.grid.n_phi)
        for g in fields
    )
    d = [js.inlet_defect(g, gas, cfg) for g in fields]
    fd = (d[0] - d[1]) / (2.0 * h)
    assert slope > 0.0
    assert abs(slope - fd) <= 1e-3 * abs(fd)


def test_certificate_rejects_nonpositive_flux_slope(gas, cfg, consts):
    grid = js.build_grid(0.06, 0.11, od.M_FLUX, 32, 16, consts)
    op = _Operator(grid, gas, cfg, consts)
    Qfull = np.full((33, 17), od.A_07)
    with mock.patch.object(
        js.GasModel,
        "fast_Fprime_of_A",
        new=lambda self, a: -np.ones_like(np.asarray(a, dtype=float)),
    ):
        with pytest.raises(errors.SingularSystemError):
            op.newton_matrix(Qfull)


def test_certificate_rejects_lost_inlet_coercivity(gas, cfg, consts):
    # With the whole inlet at the clamp floor (q = c_l / 2) and xi at
    # the cap, the Robin coupling overwhelms the column weights.
    grid = js.build_grid(0.1, consts.zeta_cap, od.M_FLUX, 32, 16, consts)
    op = _Operator(grid, gas, cfg, consts)
    Qfull = np.full((33, 17), op.a_floor)
    with pytest.raises(errors.SingularSystemError):
        op.newton_matrix(Qfull)


# ---------------------------------------------------------------------------
# solve_fixed


def test_symmetric_solve_is_nodally_exact(gas, cfg, consts):
    opts = js.SolverOptions(n_phi=48, n_psi=24)
    f = js.solve_fixed(consts.zeta_hat, consts.zeta_hat, cfg, gas, consts, opts)
    sym = js.SymmetricSolution(gas, cfg, consts)
    qhat = sym.q_hat(f.grid.phi_nodes)
    assert np.max(np.abs(f.q - qhat[:, None])) < 1e-9


@pytest.mark.parametrize("frac", [1e-3, 0.3, 1.0])
@pytest.mark.parametrize("tight", [False, True], ids=["desk", "tight"])
def test_symmetric_grid_starts_from_its_discrete_solution(gas, cfg, consts, opts64, tight, frac):
    # At xi = zeta the discrete flow is linear in phi and constant in psi,
    # known up to its inlet value: the cold start is the answer, accepted
    # without a factorization or a back-solve.  Newton from the G(c_l)
    # profile reaches the same field.
    if tight:
        cfg, consts = TIGHT, js.derive_constants(gas, TIGHT)
    zeta = frac * consts.zeta_hat
    f = js.solve_fixed(zeta, zeta, cfg, gas, consts, opts64)
    assert (f.newton_iters, f.back_solves) == (0, 0)
    assert float(np.ptp(f.q, axis=1).max()) == 0.0
    assert all(check.passed for check in field_checks(f, consts))
    newton = js.solve_fixed(
        zeta, zeta, cfg, gas, consts, opts64, start=_gcl_start(gas, cfg, consts, f.grid)
    )
    assert newton.newton_iters >= 1
    assert np.max(np.abs(f.q - newton.q)) <= 1e-10


def test_symmetric_grid_at_the_cap_starts_at_c_l(gas, cfg, consts, opts64):
    # At xi = zeta = R0 c_l the inlet root is A(c_l) itself, where the
    # inlet row's function vanishes to roundoff and has no bracket.
    cap = consts.zeta_cap
    f = js.solve_fixed(cap, cap, cfg, gas, consts, opts64)
    assert (f.newton_iters, f.back_solves) == (0, 0)
    assert abs(f.q[0, 0] - consts.c_l) <= 1e-12


@pytest.mark.parametrize("tight", [False, True], ids=["desk", "tight"])
def test_symmetric_grid_root_reproduces_the_radial_flow(gas, cfg, consts, opts64, tight):
    # The inlet root is the solver's own, from the inlet row's lookups; at
    # zeta_hat it lands on the closed-form radial flow to roundoff.
    if tight:
        cfg, consts = TIGHT, js.derive_constants(gas, TIGHT)
    zh = consts.zeta_hat
    f = js.solve_fixed(zh, zh, cfg, gas, consts, opts64)
    q_hat = js.SymmetricSolution(gas, cfg, consts).q_hat(f.grid.phi_nodes)
    assert np.max(np.abs(f.q - q_hat[:, None])) <= 1e-12


def test_solve_fixed_warm_start_converges_immediately(gas, cfg, consts, opts64):
    zeta = 0.6 * consts.zeta_hat
    xi = 0.11
    f = js.solve_fixed(zeta, xi, cfg, gas, consts, opts64)
    f2 = js.solve_fixed(zeta, xi, cfg, gas, consts, opts64, start=f)
    assert f2.newton_iters <= 1
    assert np.max(np.abs(f2.q - f.q)) < 1e-10


def test_solve_fixed_counts_its_chord_steps(gas, cfg, consts, opts64):
    # A cold solve on the desk config factors once and finishes on chord
    # steps with that factorization; the counts repeat exactly.
    zeta, xi = 0.6 * consts.zeta_hat, 0.11
    fields = [js.solve_fixed(zeta, xi, cfg, gas, consts, opts64) for _ in range(2)]
    f = fields[0]
    assert f.newton_iters >= 1
    assert f.back_solves >= 1
    assert (f.newton_iters, f.back_solves) == (fields[1].newton_iters, fields[1].back_solves)
    assert np.array_equal(f.Q, fields[1].Q)


def test_chord_step_keeps_the_newton_matrix_certifiable(gas):
    # zeta_hat sits 0.6% below the cap here, so the symmetric flow has
    # R0 min q(0, psi) barely above xi.  A chord step from the first
    # factorization halves the residual but drops the inlet speed to 0.203
    # < xi = 0.228; kept, its refactorization would fail the certificate
    # ("inlet coercivity lost").  It is refused and Newton refactors.
    cfg = js.FlowConfig(
        R0=1.0, vartheta=0.5500906822597853, m=0.13596355428611936, c_e=0.7817266307914738
    )
    # The G(c_l) profile is passed as the start: from it Newton runs, where
    # the symmetric grid's own cold start is already the solution.
    consts = js.derive_constants(gas, cfg)
    opts = js.SolverOptions(n_phi=64, n_psi=32)
    zh = consts.zeta_hat
    start = _gcl_start(gas, cfg, consts, js.build_grid(zh, zh, cfg.m, 64, 32, consts))
    f = js.solve_fixed(zh, zh, cfg, gas, consts, opts, start=start)
    assert f.back_solves >= 1
    sym = js.SymmetricSolution(gas, cfg, consts)
    assert np.max(np.abs(f.q - sym.q_hat(f.grid.phi_nodes)[:, None])) < 1e-9


def test_solve_fixed_field_structure(asym_free, gas, consts):
    f = asym_free.field
    iz = f.grid.zeta_index
    # Dirichlet values exact (bitwise) against the solver's own boundary
    # value; the frozen oracle constant is one quadrature path away, so it
    # only matches to an ulp.
    a_ce = js.flux_A(gas, consts.c_e)
    assert np.max(np.abs(f.Q[-1, :] - a_ce)) == 0.0
    assert np.max(np.abs(f.Q[iz:, -1] - a_ce)) == 0.0
    assert abs(a_ce - od.A_CE) < 1e-15
    # interior bounds (strict) and monotonicity
    assert f.q[1:-1, 1:-1].min() > consts.c_l
    assert f.q[1:-1, 1:-1].max() < od.C_E
    assert np.diff(f.q, axis=0).min() >= -1e-8
    assert np.diff(f.q, axis=1).min() >= -1e-8


def test_solve_fixed_rejects_xi_beyond_cap(gas, cfg, consts, opts64):
    with pytest.raises(errors.ConstraintError):
        js.solve_fixed(0.05, 1.1 * consts.zeta_cap, cfg, gas, consts, opts64)


def test_bordered_solve_stops_when_xi_cannot_move(gas):
    # On the tight configuration this zeta has no root below the cap: the
    # bordered step would leave (zeta, R0 c_l).  Once the field has
    # converged at the last xi the solve raises instead of taking fixed-xi
    # steps until the iteration cap.
    cfg = js.FlowConfig(R0=1.0, vartheta=1.0, m=0.25, c_e=0.8)
    consts = js.derive_constants(gas, cfg)
    opts = js.SolverOptions(n_phi=64, n_psi=32)
    with mock.patch.object(
        numerics, "solve_banded", wraps=numerics.solve_banded
    ) as lu, pytest.raises(errors.NonconvergenceError, match="xi step is refused"):
        js.solve_fixed(
            0.212, (1.0 - 1e-6) * consts.zeta_cap, cfg, gas, consts, opts, free_xi=True
        )
    assert lu.call_count <= 20


# ---------------------------------------------------------------------------
# Picard map


def test_picard_fixed_point_at_symmetric_inlet(gas, cfg, consts, opts64):
    g = np.full(opts64.n_psi + 1, consts.c_m)
    out = js.picard_T(g, consts.zeta_hat, consts.zeta_hat, cfg, gas, opts64)
    assert np.max(np.abs(out - consts.c_m)) < 1e-8


def test_picard_map_is_monotone(gas, cfg, consts, opts64):
    zh = consts.zeta_hat
    g1 = np.full(opts64.n_psi + 1, consts.c_m - 0.02)
    g2 = np.full(opts64.n_psi + 1, consts.c_m + 0.02)
    t1 = js.picard_T(g1, zh, zh, cfg, gas, opts64)
    t2 = js.picard_T(g2, zh, zh, cfg, gas, opts64)
    assert np.all(t1 <= t2 + 1e-10)


def test_picard_iteration_contracts_to_inlet_speed(gas, cfg, consts, opts64):
    # Supersolution start: iterates decrease monotonically to c_m.
    zh = consts.zeta_hat
    g = np.full(opts64.n_psi + 1, od.C_E)
    errs = []
    for _ in range(50):
        g = js.picard_T(g, zh, zh, cfg, gas, opts64)
        errs.append(float(np.max(np.abs(g - consts.c_m))))
        if errs[-1] <= 1e-6:
            break
    assert errs[-1] <= 1e-6, f"no contraction: {errs[-3:]}"
    assert len(errs) <= 50
    assert all(a >= b for a, b in zip(errs, errs[1:]))


def test_picard_rejects_out_of_range_profile(gas, cfg, consts, opts64):
    g = np.full(opts64.n_psi + 1, 0.5 * consts.c_l)
    with pytest.raises(errors.ConstraintError):
        js.picard_T(g, consts.zeta_hat, consts.zeta_hat, cfg, gas, opts64)


# ---------------------------------------------------------------------------
# Corner exponent


def test_corner_exponent_on_planted_half_power(gas, consts):
    zeta, xi, m = 0.0627, 0.1143, od.M_FLUX
    grid = js.build_grid(zeta, xi, m, 256, 128, consts)
    P, S = np.meshgrid(grid.phi_nodes, grid.psi_nodes, indexing="ij")
    r = np.sqrt((P - zeta) ** 2 + (S - m) ** 2)
    Q = od.A_CE - 0.05 * np.sqrt(r) * (1.0 + 0.2 * (m - S) / m)
    Q[-1, :] = od.A_CE  # outlet column is Dirichlet in genuine fields
    field = _field_from_Q(gas, grid, Q)
    expo = js.corner_exponent(field)
    assert abs(expo - 0.5) < 0.02


def test_corner_exponent_rejects_symmetric(gas, cfg, consts, sym_free_runs):
    with pytest.raises(errors.ConstraintError):
        js.corner_exponent(sym_free_runs[64].field)


def test_corner_exponent_insufficient_resolution(gas, cfg, consts, asym_free_64):
    with pytest.raises(errors.ConstraintError, match="resolution"):
        js.corner_exponent(asym_free_64.field)
