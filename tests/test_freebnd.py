"""Outlet shooting, detachment thresholds, radius matching, sweeps."""

from unittest import mock

import numpy as np
import pytest

import jetstream as js
import oracle_data as od
from jetstream import errors, fixedbvp, freebnd, numerics
from jetstream.checks import field_checks
from jetstream.fixedbvp import shoot_tolerance


def _constant_field(gas, grid, q_value):
    q = np.full((grid.n_phi + 1, grid.n_psi + 1), q_value)
    Q = gas.fast_A(q)
    return js.SpeedField(grid=grid, Q=Q, q=q, residual_norm=0.0, newton_iters=0)


# ---------------------------------------------------------------------------
# Inlet defect


def test_inlet_defect_sign_at_exit_speed(gas, cfg, consts):
    # A uniformly fast inlet under-carries arc length: negative defect.
    grid = js.build_grid(consts.zeta_hat, consts.zeta_hat, od.M_FLUX, 32, 16, consts)
    f = _constant_field(gas, grid, od.C_E)
    d = js.inlet_defect(f, gas, cfg)
    expected = od.M_FLUX / (od.C_E * od.RHO_CE) - od.R0 * od.VARTHETA
    assert d < 0
    assert abs(d - expected) < 1e-12


def test_inlet_defect_sign_at_lower_speed(gas, cfg, consts):
    # A uniformly slow inlet over-carries: positive defect.
    grid = js.build_grid(consts.zeta_hat, consts.zeta_hat, od.M_FLUX, 32, 16, consts)
    f = _constant_field(gas, grid, consts.c_l)
    d = js.inlet_defect(f, gas, cfg)
    expected = od.M_FLUX / (consts.c_l * gas.rho(consts.c_l)) - od.R0 * od.VARTHETA
    assert d > 0
    assert abs(d - expected) < 1e-12


def test_inlet_defect_zero_at_symmetric_speed(gas, cfg, consts):
    grid = js.build_grid(consts.zeta_hat, consts.zeta_hat, od.M_FLUX, 32, 16, consts)
    f = _constant_field(gas, grid, consts.c_m)
    assert abs(js.inlet_defect(f, gas, cfg)) < 1e-12


# ---------------------------------------------------------------------------
# solve_outlet


def test_symmetric_shoot_lands_on_zeta_hat(sym_free_runs, consts):
    for n, sol in sym_free_runs.items():
        h_phi = consts.zeta_hat / n
        assert abs(sol.xi - consts.zeta_hat) <= 2.0 * h_phi
        assert abs(sol.inlet_defect) <= 1e-8 * od.R0 * od.VARTHETA


def test_equivalent_radius_at_symmetric_is_wall_end(sym_free_runs):
    sol = sym_free_runs[128]
    assert abs(sol.r_equiv - od.R_HAT) <= 1e-4 * od.R0
    assert abs(sol.wall_length - od.SYM_WALL_LEN) <= 1e-4 * od.R0


def test_asymmetric_shoot_properties(asym_free, consts):
    assert asym_free.zeta < asym_free.xi < consts.zeta_cap
    assert abs(asym_free.inlet_defect) <= 1e-8 * od.R0 * od.VARTHETA
    assert od.R_HAT < asym_free.r_equiv < od.R0


# xi and r_equiv of solve_outlet at commit 7be6648, where an outer secant
# shoot on xi ran a full fixed-xi solve per shot.  The rows at 0.3 and at the
# floor are re-pinned on the split that depends on zeta only (the older one
# moved with xi): xi moved by 2.8e-6 (was 0.1401693448027569) and 7.1e-7
# (was 0.17239813387998956), under 1% of xi's change on doubling the grid
# (-4.3e-4 and -1.4e-4).
_SECANT_ANSWERS = [
    (0.3, 128, 0.14016653435773477, 0.9542039288526833),
    (0.6, 128, 0.11435050222271577, 0.9032221624051132),
    (0.9, 128, 0.10501686909617874, 0.8547992861797566),
    (1e-3, 64, 0.1723988480092812, 0.999869404112535),
    (1.0 - 8e-4, 128, 0.10445018335180253, 0.8406505955370823),
]


@pytest.mark.parametrize(
    "frac, n_phi, xi_ref, r_ref",
    _SECANT_ANSWERS,
    ids=["0.3", "0.6", "0.9", "floor-graded", "near-symmetric"],
)
def test_bordered_outlet_keeps_the_secant_answers(gas, cfg, consts, frac, n_phi, xi_ref, r_ref):
    zeta = frac * consts.zeta_hat
    opts = js.SolverOptions(n_phi=n_phi, n_psi=n_phi // 2)
    sol = js.solve_outlet(zeta, cfg, gas, consts, opts)
    assert isinstance(sol, js.FreeSolution)
    assert abs(sol.xi - xi_ref) <= 1e-7
    assert abs(sol.r_equiv - r_ref) <= 1e-7
    assert abs(sol.inlet_defect) <= 1e-8 * od.R0 * od.VARTHETA
    assert sol.inlet_defect == js.inlet_defect(sol.field, gas, cfg)
    assert sol.field.grid.xi == sol.xi
    grid = js.build_grid(zeta, sol.xi, od.M_FLUX, n_phi, n_phi // 2, consts)
    assert np.array_equal(sol.field.grid.phi_nodes, grid.phi_nodes)


def test_bordered_outlet_factorizes_less_than_the_secant_shoot(gas, cfg, consts, opts128):
    # The secant shoot of commit 7be6648 factorized 26 times here, and plain
    # damped Newton on the coarse-start ladder 15 times; with chord steps
    # the four Newton solves of this zeta factorize 1, 2, 2 and 1 times.
    with mock.patch.object(
        numerics, "solve_banded", wraps=numerics.solve_banded
    ) as lu:
        sol = js.solve_outlet(0.6 * consts.zeta_hat, cfg, gas, consts, opts128)
    assert isinstance(sol, js.FreeSolution)
    assert lu.call_count <= 6


def test_failed_bordered_solve_raises_without_a_second_search(gas, cfg, consts, opts64):
    # The defect has one root in xi and one bordered solve looks for it:
    # when that solve fails, solve_outlet raises after the two endpoint
    # shots and the refused bordered solve, with no shot on xi after it.
    calls = []
    solve_fixed = freebnd.solve_fixed

    def no_bordered(*args, free_xi=False, **kwargs):
        calls.append(free_xi)
        if free_xi:
            raise errors.NonconvergenceError("bordered solve refused")
        return solve_fixed(*args, **kwargs)

    with mock.patch.object(freebnd, "solve_fixed", no_bordered):
        with pytest.raises(errors.NonconvergenceError, match="bordered solve refused") as exc:
            js.solve_outlet(0.6 * consts.zeta_hat, cfg, gas, consts, opts64)
    assert calls == [False, False, True]
    assert isinstance(exc.value.__cause__, errors.NonconvergenceError)
    assert "bracket" in str(exc.value)


def test_bordered_solve_falls_back_to_the_fixed_xi_step(gas, cfg, consts, opts64):
    # Near the symmetric abscissa (0.9957 zeta_hat; the coarse level of a
    # physmap-cli benchmark op, seed 72, op 15) a bordered step from the
    # secant start fails its line search.  The fixed-xi step taken instead
    # lets the solve converge; without it the solve raises "line search
    # stalled" at residual 0.34.
    sol = js.solve_outlet(0.10399884058160831, cfg, gas, consts, opts64)
    assert isinstance(sol, js.FreeSolution)
    assert abs(sol.xi - 0.10445739744578034) <= 1e-10


# ---------------------------------------------------------------------------
# One discrete root: the cell counts do not move with xi


# A cap-bound configuration (classify-cold benchmark workload, seed 1, op 6)
# and its zeta_star probe, where a split that moved with xi (n1 = 25 or 26
# on [0, zeta]) gave the defect a jump and two discrete roots.
_TWO_ROOT_CFG = dict(
    R0=1.0, vartheta=0.5264345036713102, m=0.2133733019235032, c_e=0.7885107418116236
)
_TWO_ROOT_ZETA = 0.0915132105875253
_TWO_ROOT_BRACKET = (0.2294, 0.22994)


def test_defect_is_continuous_and_increasing_in_xi(gas, opts64):
    cfg = js.FlowConfig(**_TWO_ROOT_CFG)
    consts = js.derive_constants(gas, cfg)
    fields = [
        js.solve_fixed(_TWO_ROOT_ZETA, float(xi), cfg, gas, consts, opts64)
        for xi in np.linspace(*_TWO_ROOT_BRACKET, 55)
    ]
    assert len({f.grid.zeta_index for f in fields}) == 1
    steps = np.diff([js.inlet_defect(f, gas, cfg) for f in fields])
    assert steps.min() > 0.0
    assert np.ptp(steps) <= 0.1 * np.median(steps)  # no jump between shots


def test_bordered_solves_from_either_end_find_one_root(gas, opts64):
    cfg = js.FlowConfig(**_TWO_ROOT_CFG)
    consts = js.derive_constants(gas, cfg)
    xis = [
        js.solve_fixed(
            _TWO_ROOT_ZETA, xi, cfg, gas, consts, opts64, free_xi=True
        ).grid.xi
        for xi in _TWO_ROOT_BRACKET
    ]
    assert abs(xis[0] - xis[1]) <= 1e-12


def test_outlet_solve_that_regridded_without_end_now_converges(gas, opts64):
    # A zeta_star probe (classify-cold benchmark workload, seed 11, op 2)
    # where the bordered solve used to move between two splits until it
    # gave up.
    cfg = js.FlowConfig(
        R0=1.0, vartheta=0.5225547753960804, m=0.1773629367612104, c_e=0.8024316140799237
    )
    consts = js.derive_constants(gas, cfg)
    sol = js.solve_outlet(0.1780163214, cfg, gas, consts, opts64)
    assert isinstance(sol, js.FreeSolution)
    assert abs(sol.inlet_defect) <= shoot_tolerance(cfg)


@pytest.mark.parametrize(
    "vartheta, m, c_e, zeta, n_phi, n_psi, xi",
    [
        (0.5687947683731904, 0.2542700204005862, 0.8707393391152856,
         0.0004239279402045856, 128, 64, None),
        (0.5048584277216186, 0.2626292953870551, 0.8707465010654961,
         9.225404149843708e-05, 128, 32, 0.09601741001499525),
        (0.5833887942910345, 0.2540092766478767, 0.8690399146845048,
         0.0001854431419671217, 128, 64, None),
    ],
    ids=["cap-bound-a", "flow", "cap-bound-b"],
)
def test_small_zeta_solves_clear_their_roundoff_floor(
    gas, vartheta, m, c_e, zeta, n_phi, n_psi, xi
):
    # Census cases at 1e-3 to 4e-3 zeta_hat whose cap shot stalled just
    # above a roundoff floor read from the start iterate (~70x below that of
    # the answer).  xi None: no flow, the outlet cap binds.
    cfg = js.FlowConfig(R0=1.0, vartheta=vartheta, m=m, c_e=c_e)
    consts = js.derive_constants(gas, cfg)
    sol = js.solve_outlet(zeta, cfg, gas, consts, js.SolverOptions(n_phi, n_psi))
    if xi is None:
        assert isinstance(sol, js.Nonexistence)
        assert sol.reason == "outlet-cap-bound"
        return
    assert isinstance(sol, js.FreeSolution)
    assert abs(sol.xi - xi) <= 1e-9 * xi
    assert abs(sol.inlet_defect) <= shoot_tolerance(cfg)
    # The stopping tolerance is fixed per grid from the admissible speeds
    # c_l <= q <= c_e; it must still cover the roundoff level of the
    # answer's own field.
    field = sol.field
    assert all(c.status == "PASS" for c in field_checks(field, consts))
    op = fixedbvp._Operator(field.grid, gas, cfg, consts)
    F = gas.fast_F_of_A(field.Q)
    h_min = float(np.diff(field.grid.phi_nodes).min())
    k = float(field.grid.psi_nodes[1] - field.grid.psi_nodes[0])
    eps = np.finfo(float).eps
    answer_floor = 64.0 * eps * (np.abs(field.Q).max() / h_min**2 + np.abs(F).max() / k**2)
    assert field.residual_norm <= op.tol
    assert op.tol >= answer_floor


# ---------------------------------------------------------------------------
# Coarse start


def test_coarse_levels_halve_down_to_64x32():
    ladder = {}
    for n_phi, n_psi in [(512, 128), (128, 64), (128, 32), (64, 32)]:
        opts, levels = js.SolverOptions(n_phi=n_phi, n_psi=n_psi), []
        while opts is not None:
            levels.append((opts.n_phi, opts.n_psi))
            opts = freebnd._coarser(opts)
        ladder[n_phi, n_psi] = levels
    assert ladder == {
        (512, 128): [(512, 128), (256, 64), (128, 32)],
        (128, 64): [(128, 64), (64, 32)],
        (128, 32): [(128, 32)],
        (64, 32): [(64, 32)],
    }


def _record_solves():
    """Patches recording each solve_fixed call's (n_phi, n_psi, free_xi) and
    each banded solve's unknown count."""
    solves, unknowns = [], []
    solve_fixed, solve_banded = freebnd.solve_fixed, numerics.solve_banded

    def fixed(*args, free_xi=False, **kwargs):
        options = args[5]
        solves.append((options.n_phi, options.n_psi, free_xi))
        return solve_fixed(*args, free_xi=free_xi, **kwargs)

    def banded(system, *args, **kwargs):
        unknowns.append(system.n)
        return solve_banded(system, *args, **kwargs)

    patches = (
        mock.patch.object(freebnd, "solve_fixed", fixed),
        mock.patch.object(numerics, "solve_banded", banded),
    )
    return solves, unknowns, patches


def test_coarse_start_skips_the_fine_endpoint_shots(gas, cfg, consts, opts128):
    solves, unknowns, (fixed, banded) = _record_solves()
    with fixed, banded:
        sol = js.solve_outlet(0.6 * consts.zeta_hat, cfg, gas, consts, opts128)
    assert isinstance(sol, js.FreeSolution)
    # Only the bordered solve ran at 128x64; the endpoint shots ran at 64x32.
    assert [s for s in solves if s[0] == 128] == [(128, 64, True)]
    assert (64, 32, False) in solves
    # A 128x64 grid has at least 128 * 64 free nodes, the 64x32 level at
    # most (2 * 64 + 1) * 33 (graded grids keep <= 2 n_phi cells).
    assert sum(1 for n in unknowns if n >= 128 * 64) <= 5


@pytest.mark.parametrize("frac", [0.3, 0.6, 0.9])
def test_requested_grid_factorizes_at_most_twice_after_a_coarse_start(
    gas, cfg, consts, opts128, frac
):
    # From the 64x32 flow the bordered solve on the requested grid factors
    # its Newton matrix once or twice and takes chord steps with it (plain
    # damped Newton factorized 3 times here).
    solves, unknowns, (fixed, banded) = _record_solves()
    with fixed, banded:
        sol = js.solve_outlet(frac * consts.zeta_hat, cfg, gas, consts, opts128)
    assert isinstance(sol, js.FreeSolution)
    assert [s for s in solves if s[0] == 128] == [(128, 64, True)]
    assert sol.field.back_solves > 0
    assert 1 <= sum(1 for n in unknowns if n >= 128 * 64) <= 2


def test_lower_endpoint_shot_factors_nothing(gas):
    # On a cap-bound zeta both endpoint shots run.  The one at xi = zeta
    # starts from the symmetric grid's discrete solution and makes no
    # banded solve; the cap shot does.
    cfg = js.FlowConfig(R0=1.0, vartheta=1.0, m=0.25, c_e=0.8)
    consts = js.derive_constants(gas, cfg)
    opts = js.SolverOptions(n_phi=64, n_psi=32)
    factorizations, shots = [], []
    solve_fixed, solve_banded = freebnd.solve_fixed, numerics.solve_banded

    def banded(*args, **kwargs):
        factorizations.append(1)
        return solve_banded(*args, **kwargs)

    def fixed(zeta, xi, *args, **kwargs):
        before = len(factorizations)
        field = solve_fixed(zeta, xi, *args, **kwargs)
        shots.append((xi == zeta, len(factorizations) - before))
        return field

    with mock.patch.object(freebnd, "solve_fixed", fixed), mock.patch.object(
        numerics, "solve_banded", banded
    ):
        sol = js.solve_outlet(0.5 * consts.zeta_hat, cfg, gas, consts, opts)
    assert isinstance(sol, js.Nonexistence) and sol.reason == "outlet-cap-bound"
    assert [at_zeta for at_zeta, _ in shots] == [True, False]
    assert shots[0][1] == 0 and shots[1][1] >= 1


@pytest.mark.parametrize("coarse", ["nonexistence", "raises"])
def test_coarse_verdict_never_decides(gas, cfg, consts, opts128, coarse):
    # A coarser level that finds no flow, or fails, only costs its start:
    # the 128x64 endpoint shots and bordered solve give the same flow.
    zeta = 0.6 * consts.zeta_hat
    ref = js.solve_outlet(zeta, cfg, gas, consts, opts128)
    one_level = freebnd._solve_outlet

    def coarse_fails(zeta, cfg, gas, consts, options):
        if options.n_phi < opts128.n_phi:
            if coarse == "raises":
                raise errors.NonconvergenceError("coarse level refused")
            return freebnd.Nonexistence(zeta, "outlet-cap-bound", -1.0, "patched")
        return one_level(zeta, cfg, gas, consts, options)

    solves, _, (fixed, banded) = _record_solves()
    with mock.patch.object(freebnd, "_solve_outlet", coarse_fails), fixed, banded:
        sol = js.solve_outlet(zeta, cfg, gas, consts, opts128)
    assert isinstance(sol, js.FreeSolution)
    assert (128, 64, False) in solves  # the fine endpoint shots ran
    assert abs(sol.xi - ref.xi) <= 1e-12
    assert abs(sol.r_equiv - ref.r_equiv) <= 1e-12
    assert abs(sol.inlet_defect) <= 1e-8 * od.R0 * od.VARTHETA


def test_64x32_solve_has_no_coarser_level(gas, cfg, consts, opts64):
    solves, _, (fixed, banded) = _record_solves()
    with fixed, banded:
        sol = js.solve_outlet(0.6 * consts.zeta_hat, cfg, gas, consts, opts64)
    assert isinstance(sol, js.FreeSolution)
    assert {s[:2] for s in solves} == {(64, 32)}


def test_nonexistence_beyond_symmetric_detachment(gas, cfg, consts, opts64):
    res = js.solve_outlet(1.5 * consts.zeta_hat, cfg, gas, consts, opts64)
    assert isinstance(res, js.Nonexistence)
    assert res.reason == "detachment-beyond-symmetric"
    assert res.defect > 0


def test_nonexistence_at_outlet_cap(gas):
    # Tight configuration (zeta_hat within 1% of the cap): small detachment
    # abscissas hit the outlet cap with the inlet still under-carrying.
    cfg = js.FlowConfig(R0=1.0, vartheta=1.0, m=0.25, c_e=0.8)
    consts = js.derive_constants(gas, cfg)
    opts = js.SolverOptions(n_phi=32, n_psi=16)
    res = js.solve_outlet(1e-3 * consts.zeta_hat, cfg, gas, consts, opts)
    assert isinstance(res, js.Nonexistence)
    assert res.reason == "outlet-cap-bound"
    assert res.defect < 0


# ---------------------------------------------------------------------------
# Minimal detachment threshold


def test_zeta_star_floor_limited_on_desk_config(gas, cfg, consts, opts64):
    zs = js.find_zeta_star(cfg, gas, consts, opts64)
    assert zs.zeta_star == 0.0
    assert zs.floor_limited
    assert zs.at_star.xi < consts.zeta_cap  # the floor's outlet is off the cap
    assert zs.zeta_star < consts.zeta_hat
    assert od.R_HAT < zs.at_star.r_equiv < od.R0


@pytest.mark.parametrize("tight", [False, True], ids=["floor-limited", "cap-bound"])
def test_classify_runs_one_zeta_star_search(gas, cfg, consts, opts64, tight):
    # classify_radius searches zeta_star once and match_R reuses the flows
    # that search solved, so no detachment abscissa is solved twice, and the
    # flow at zeta_star reuses the search's cap shot there, so no cap grid
    # (zeta, xi = R0 c_l) is solved twice either.
    if tight:
        cfg = js.FlowConfig(R0=1.0, vartheta=1.0, m=0.25, c_e=0.8)
        consts = js.derive_constants(gas, cfg)
        opts = js.SolverOptions(n_phi=32, n_psi=16)
        r_star = js.find_zeta_star(cfg, gas, consts, opts).at_star.r_equiv
    else:
        opts, r_star = opts64, 0.9998
    R = 0.5 * (consts.R_hat + r_star)  # inside the window: EXISTS
    with mock.patch.object(
        freebnd, "solve_outlet", wraps=freebnd.solve_outlet
    ) as outlet, mock.patch.object(
        freebnd, "find_zeta_star", wraps=freebnd.find_zeta_star
    ) as search, mock.patch.object(
        freebnd, "solve_fixed", wraps=freebnd.solve_fixed
    ) as fixed:
        res = js.classify_radius(R, cfg, gas, consts, opts)
    assert res.verdict == "EXISTS"
    assert search.call_count == 1
    zetas = [c.args[0] for c in outlet.call_args_list]
    assert len(zetas) == len(set(zetas)), f"zeta solved twice: {sorted(zetas)}"
    caps = [c.args[0] for c in fixed.call_args_list if c.args[1] == consts.zeta_cap]
    assert caps and len(caps) == len(set(caps)), f"cap grid solved twice: {sorted(caps)}"


def test_floor_limited_classify_near_the_upper_c_e_edge_gives_a_verdict(gas):
    # A floor-limited config near the upper c_e edge.  The search's cold cap
    # shot at the floor converges; a second cap shot there, started from the
    # xi = zeta field, stalled above the roundoff floor (exit 4).  The flow at
    # the floor now reuses the search's cap shot.
    cfg = js.FlowConfig(
        R0=1.0, vartheta=0.5189720046572275, m=0.2859046500487728, c_e=0.8765005865607339
    )
    consts = js.derive_constants(gas, cfg)
    res = js.classify_radius(0.95, cfg, gas, consts, js.SolverOptions(n_phi=64, n_psi=32))
    assert res.verdict == "NO_SOLUTION_LONG"
    assert res.r_hat < res.r_star < cfg.R0


def test_floor_probe_on_graded_grid(gas, cfg, consts, opts64):
    # The floor probe of the zeta_star search (zeta = 1e-3 zeta_hat) on the
    # graded grid (~90 cells) against the same solve on the uniformly
    # refined grid of the earlier spacing rule (3303 cells), recorded from
    # commit bef28c6.  r_equiv agrees to roundoff.  xi differs by 2.2e-5,
    # the far-field spacing's O(h^2) error: a fifth of xi's own change from
    # 64x32 to 128x64 cells (1.5e-4) at zeta = 0.01 zeta_hat.
    sol = js.solve_outlet(1e-3 * consts.zeta_hat, cfg, gas, consts, opts64)
    assert isinstance(sol, js.FreeSolution)
    assert sol.field.grid.n_phi <= 2 * opts64.n_phi
    assert abs(sol.r_equiv - 0.9998694041117632) <= 1e-6
    assert abs(sol.xi - 0.17237646197212902) <= 5e-5


def test_zeta_star_positive_when_cap_binds(gas):
    cfg = js.FlowConfig(R0=1.0, vartheta=1.0, m=0.25, c_e=0.8)
    consts = js.derive_constants(gas, cfg)
    opts = js.SolverOptions(n_phi=32, n_psi=16)
    zs = js.find_zeta_star(cfg, gas, consts, opts)
    assert 0.0 < zs.zeta_star < consts.zeta_hat
    assert not zs.floor_limited
    assert abs(zs.at_star.xi - consts.zeta_cap) <= 1e-5 * consts.zeta_cap


def _final_bracket(cfg, gas, consts, opts):
    """find_zeta_star's result and the bracket its search returned (None
    when the floor's cap shot already read solvable).  Only the search over
    zeta, whose bracket starts at the floor, is recorded: the cold
    symmetric-grid shots find their inlet roots with the same routine."""
    brackets = []
    shrink = numerics.shrink_bracket
    floor = freebnd._FLOOR * consts.zeta_hat

    def recording(f, bracket, *args, **kwargs):
        result = shrink(f, bracket, *args, **kwargs)
        if bracket.lo == floor:
            brackets.append(result)
        return result

    with mock.patch.object(numerics, "shrink_bracket", recording):
        zs = js.find_zeta_star(cfg, gas, consts, opts)
    return zs, (brackets[0] if brackets else None)


@pytest.mark.parametrize("tight", [False, True], ids=["desk", "tight"])
def test_zeta_star_cap_shots_agree_with_solve_outlet(gas, cfg, consts, opts64, tight):
    # A cap shot reads zeta solvable iff its defect is >= -shoot_tol.  At
    # the ends of the final bracket (at the floor when the search is
    # floor-limited) that verdict is solve_outlet's.
    if tight:
        cfg = js.FlowConfig(R0=1.0, vartheta=1.0, m=0.25, c_e=0.8)
        consts = js.derive_constants(gas, cfg)
    zeta_tol = 1e-5 * consts.zeta_hat
    zs, br = _final_bracket(cfg, gas, consts, opts64)
    assert zs.floor_limited == (not tight)
    if br is None:
        ends = [(1e-3 * consts.zeta_hat, True)]
    else:
        assert br.hi - br.lo <= zeta_tol
        assert br.hi == zs.zeta_star
        ends = [(br.lo, br.f_lo >= 0.0), (br.hi, br.f_hi >= 0.0)]
        assert [solvable for _, solvable in ends] == [False, True]
    sols = [js.solve_outlet(zeta, cfg, gas, consts, opts64) for zeta, _ in ends]
    assert [isinstance(sol, js.FreeSolution) for sol in sols] == [s for _, s in ends]
    # The flow at zeta_star (or the floor), from the search's own cap shot
    # there against solve_outlet's: Newton from two starts, roundoff apart.
    assert abs(sols[-1].xi - zs.at_star.xi) <= 1e-12
    if tight:
        below = js.solve_outlet(zs.zeta_star - zeta_tol, cfg, gas, consts, opts64)
        assert isinstance(below, js.Nonexistence)
        assert below.reason == "outlet-cap-bound"


def test_zeta_star_search_counts_its_cap_shots(gas, cfg, consts, opts64):
    # Newton steps in zeta, each from the latest cap shot's exact slope:
    # the floor, zeta_hat and at most 5 probes on the tight config, where
    # the Illinois search took 8 probes.  classify reports the count; a
    # floor-limited search makes the floor's cap shot only.
    tight_cfg = js.FlowConfig(R0=1.0, vartheta=1.0, m=0.25, c_e=0.8)
    tight = js.derive_constants(gas, tight_cfg)
    with mock.patch.object(freebnd, "solve_fixed", wraps=freebnd.solve_fixed) as fixed:
        zs = js.find_zeta_star(tight_cfg, gas, tight, opts64)
    caps = [c for c in fixed.call_args_list
            if c.args[1] == tight.zeta_cap and not c.kwargs.get("free_xi")]
    assert zs.cap_shots == len(caps) <= 7
    res = js.classify_radius(0.9 * tight.R_hat, tight_cfg, gas, tight, opts64)
    assert (res.verdict, res.zeta_star_probes) == ("NO_SOLUTION_LONG", zs.cap_shots)
    desk = js.find_zeta_star(cfg, gas, consts, opts64)
    assert desk.floor_limited and desk.cap_shots == 1


def test_cap_defect_is_not_monotone_where_the_cell_counts_jump(gas, opts64):
    # g(zeta) = cap defect + shoot_tol increases with zeta only between the
    # zetas where build_grid's cell counts change.  On the tight config at
    # 64x32 the split moves from (59, 5) to (60, 4) cells between 0.929700
    # and 0.929750 zeta_hat, and g drops across it from +2.86e-5 to
    # -7.81e-5: g changes sign twice, near 0.92968 and 0.92982 zeta_hat.
    # What the search guarantees is a bracket of width <= 1e-5 zeta_hat
    # whose lower end reads unsolvable and upper end solvable, not the
    # smallest solvable zeta: the Illinois search returned 0.929678
    # zeta_hat, the Newton search returns the upper sign change.
    cfg = js.FlowConfig(R0=1.0, vartheta=1.0, m=0.25, c_e=0.8)
    consts = js.derive_constants(gas, cfg)
    zh, tol = consts.zeta_hat, shoot_tolerance(cfg)
    shots = [js.solve_fixed(f * zh, consts.zeta_cap, cfg, gas, consts, opts64)
             for f in (0.929700, 0.929750)]
    assert [s.grid.zeta_index for s in shots] == [59, 60]
    g = [js.inlet_defect(s, gas, cfg) + tol for s in shots]
    assert abs(g[0] - 2.86e-5) <= 0.01e-5 and abs(g[1] + 7.81e-5) <= 0.01e-5
    zs, br = _final_bracket(cfg, gas, consts, opts64)
    assert br.f_lo < 0.0 <= br.f_hi and br.hi - br.lo <= 1e-5 * zh
    assert zs.zeta_star == br.hi
    assert abs(zs.zeta_star / zh - 0.929818) <= 1e-5


def test_zeta_star_search_runs_solve_outlet_only_at_zeta_hat(gas):
    # Each probe of the search is one cap shot, not a solve_outlet, and the
    # flow at zeta_star comes from the cap shot there: on the tight config
    # the public solve_outlet runs at zeta_hat only.
    cfg = js.FlowConfig(R0=1.0, vartheta=1.0, m=0.25, c_e=0.8)
    consts = js.derive_constants(gas, cfg)
    opts = js.SolverOptions(n_phi=64, n_psi=32)
    with mock.patch.object(freebnd, "solve_outlet", wraps=freebnd.solve_outlet) as outlet:
        zs, br = _final_bracket(cfg, gas, consts, opts)
    assert [c.args[0] for c in outlet.call_args_list] == [consts.zeta_hat]
    assert zs.zeta_star == br.hi
    assert abs(zs.at_star.xi - consts.zeta_cap) <= 1e-5 * consts.zeta_cap


# ---------------------------------------------------------------------------
# Radius matching and classification


def test_match_R_midpoint_hits_target_length(gas, cfg, consts, opts64):
    R = 0.5 * (od.R_HAT + 0.9998)
    sol = js.match_R(R, cfg, gas, consts, opts64)
    assert abs(sol.wall_length - (od.R0 - R)) <= 1e-6
    assert 0 < sol.zeta < consts.zeta_hat


def test_match_R_steps_past_an_unsolvable_pocket(gas, cfg, consts, opts64):
    # A probe without a flow counts as -inf, below the target: the search
    # moves its lower end there and probes the midpoint next.
    R = 0.5 * (od.R_HAT + 0.9998)
    zs = js.find_zeta_star(cfg, gas, consts, opts64)
    real, probes = freebnd.solve_outlet, []

    def pocket(zeta, *args, **kwargs):
        if zeta != consts.zeta_hat:
            probes.append(zeta)
            if len(probes) == 1:
                return freebnd.Nonexistence(zeta, "outlet-cap-bound", -1.0, "patched")
        return real(zeta, *args, **kwargs)

    with mock.patch.object(freebnd, "solve_outlet", pocket):
        sol = js.match_R(R, cfg, gas, consts, opts64, zs=zs)
    assert probes[1] == 0.5 * (probes[0] + consts.zeta_hat)
    assert abs(sol.wall_length - (od.R0 - R)) <= 1e-7
    assert sol.zeta > probes[0]


def _match_case(gas, cfg, consts, opts, tight):
    """(cfg, consts, zs, R) of a radius inside the window: the desk config,
    or the tight one (zeta_star > 0)."""
    if tight:
        cfg = js.FlowConfig(R0=1.0, vartheta=1.0, m=0.25, c_e=0.8)
        consts = js.derive_constants(gas, cfg)
    zs = js.find_zeta_star(cfg, gas, consts, opts)
    return cfg, consts, zs, 0.5 * (consts.R_hat + zs.at_star.r_equiv)


@pytest.mark.parametrize("tight", [False, True], ids=["desk", "tight"])
def test_match_R_warm_answer_equals_a_cold_solve(gas, cfg, consts, opts64, tight):
    # Each probe starts from the flows already solved; the flow it returns
    # is the one a cold solve_outlet finds at the same zeta.
    cfg, consts, zs, R = _match_case(gas, cfg, consts, opts64, tight)
    sol = js.match_R(R, cfg, gas, consts, opts64, zs=zs)
    cold = js.solve_outlet(sol.zeta, cfg, gas, consts, opts64)
    assert isinstance(cold, js.FreeSolution)
    assert abs(cold.xi - sol.xi) <= 1e-12 * sol.xi
    assert abs(cold.wall_length - (cfg.R0 - R)) <= freebnd._MATCH_TOL


@pytest.mark.parametrize("tight", [False, True], ids=["desk", "tight"])
def test_failed_neighbour_start_falls_back_to_the_endpoint_shots(
    gas, cfg, consts, opts64, tight
):
    # A solve started from a neighbour's field that fails only costs its
    # start: the endpoint shots and the bordered solve give the same flow.
    cfg, consts, zs, R = _match_case(gas, cfg, consts, opts64, tight)
    ref = js.match_R(R, cfg, gas, consts, opts64, zs=zs)
    real_outlet, real_fixed = freebnd.solve_outlet, freebnd.solve_fixed
    donors, planted, at_zeta = set(), [], []

    def outlet(zeta, *args, near=(), **kwargs):
        near = tuple(near)
        donors.update(id(sol.field) for sol in near)
        return real_outlet(zeta, *args, near=near, **kwargs)

    def fixed(zeta, xi, *args, start=None, **kwargs):
        if id(start) in donors:
            planted.append(zeta)
            raise errors.NonconvergenceError("planted")
        at_zeta.append(xi == zeta)
        return real_fixed(zeta, xi, *args, start=start, **kwargs)

    with mock.patch.object(freebnd, "solve_outlet", outlet), mock.patch.object(
        freebnd, "solve_fixed", fixed
    ):
        sol = js.match_R(R, cfg, gas, consts, opts64, zs=zs)
    assert planted and sum(at_zeta) >= len(planted)  # every probe shot at xi = zeta
    assert abs(sol.zeta - ref.zeta) <= 1e-12 * consts.zeta_hat
    assert abs(sol.xi - ref.xi) <= 1e-12 * ref.xi
    assert abs(sol.wall_length - (cfg.R0 - R)) <= freebnd._MATCH_TOL


def test_match_R_interior_probes_take_no_cap_shot(gas, cfg, consts, opts64):
    # From the second interior probe on, the start from the two nearest
    # solved flows converges, so no probe solves the cap grid again.
    cfg, consts, zs, R = _match_case(gas, cfg, consts, opts64, tight=False)
    real_outlet, real_fixed = freebnd.solve_outlet, freebnd.solve_fixed
    probes = []

    def outlet(zeta, *args, **kwargs):
        probes.append([])
        return real_outlet(zeta, *args, **kwargs)

    def fixed(zeta, xi, *args, **kwargs):
        probes[-1].append(xi)
        return real_fixed(zeta, xi, *args, **kwargs)

    with mock.patch.object(freebnd, "solve_outlet", outlet), mock.patch.object(
        freebnd, "solve_fixed", fixed
    ):
        js.match_R(R, cfg, gas, consts, opts64, zs=zs)
    # The desk config is floor-limited: the first probe is zeta_hat's flow.
    interior = probes[1:]
    assert len(interior) >= 3
    assert all(consts.zeta_cap not in xis for xis in interior[1:])


def test_match_R_symmetric_endpoint(gas, cfg, consts, opts64):
    sol = js.match_R(od.R_HAT, cfg, gas, consts, opts64)
    assert abs(sol.zeta - consts.zeta_hat) <= 1e-3


def test_match_R_long_nozzle(gas, cfg, consts, opts64):
    with pytest.raises(errors.LongNozzleError) as exc:
        js.match_R(0.5 * od.R_HAT, cfg, gas, consts, opts64)
    assert abs(exc.value.r_hat - od.R_HAT) < 1e-12
    assert exc.value.r_star > od.R_HAT


def test_match_R_rejects_out_of_range(gas, cfg, consts, opts64):
    # R <= 0 breaks the precondition; R >= R0 is a nozzle too short for
    # every detachment, the verdict classify gives it.
    with pytest.raises(errors.ConstraintError):
        js.match_R(0.0, cfg, gas, consts, opts64)
    for R in (od.R0, 1.5 * od.R0):
        with pytest.raises(errors.ShortNozzleError) as exc:
            js.match_R(R, cfg, gas, consts, opts64)
        assert abs(exc.value.r_hat - od.R_HAT) < 1e-12
        assert od.R_HAT < exc.value.r_star < od.R0


def test_classify_short_for_radius_at_or_beyond_inlet(gas, cfg, consts, opts64):
    res = js.classify_radius(od.R0, cfg, gas, consts, opts64)
    assert res.verdict == "NO_SOLUTION_SHORT"
    with pytest.raises(errors.ConstraintError):
        js.classify_radius(-0.5, cfg, gas, consts, opts64)


# ---------------------------------------------------------------------------
# Sweep


def test_sweep_rows_and_orderings(gas, cfg, consts, opts64):
    rows = js.sweep_zeta(6, cfg, gas, consts, opts64, floor=0.02 * consts.zeta_hat)
    assert len(rows) == 6
    assert all(r.status == "ok" for r in rows)
    zetas = [r.zeta for r in rows]
    xis = [r.xi for r in rows]
    lengths = [r.wall_length for r in rows]
    assert all(a < b for a, b in zip(zetas, zetas[1:]))
    assert abs(zetas[-1] - consts.zeta_hat) < 1e-12
    # outlet potential strictly decreasing, wall length strictly increasing
    assert all(a > b for a, b in zip(xis, xis[1:]))
    assert all(a < b for a, b in zip(lengths, lengths[1:]))
    # equivalent radius decreasing onto (R_hat, R0), hitting R_hat at zeta_hat
    requivs = [r.r_equiv for r in rows]
    assert all(a > b for a, b in zip(requivs, requivs[1:]))
    assert abs(requivs[-1] - od.R_HAT) <= 1e-4


def test_sweep_keeps_a_singular_row_in_the_table(gas, cfg, consts, opts64, monkeypatch):
    # A singular system on one rung is that row's solver failure: it reads
    # "error" with the message, and the other rows are those of a clean run.
    floor = 0.3 * consts.zeta_hat
    clean = js.sweep_zeta(3, cfg, gas, consts, opts64, floor=floor)
    solve_outlet = freebnd.solve_outlet

    def singular_on_the_middle_rung(zeta, *args, **kwargs):
        if zeta == clean[1].zeta:
            raise errors.SingularSystemError("planted zero pivot")
        return solve_outlet(zeta, *args, **kwargs)

    monkeypatch.setattr(freebnd, "solve_outlet", singular_on_the_middle_rung)
    rows = js.sweep_zeta(3, cfg, gas, consts, opts64, floor=floor)
    assert (rows[1].status, rows[1].message) == ("error", "planted zero pivot")
    assert rows[1].zeta == clean[1].zeta
    assert [rows[0], rows[2]] == [clean[0], clean[2]]


def test_sweep_honours_every_solver_option(gas, cfg, consts, monkeypatch):
    # With no factorization allowed no free problem below zeta_hat is
    # solved, so those rows of the sweep fail as solve_outlet itself does
    # under the same iteration cap.  The symmetric row needs none: its
    # shot at xi = zeta starts from the discrete solution.
    opts = js.SolverOptions(n_phi=64, n_psi=32)
    monkeypatch.setattr(fixedbvp, "_MAX_ITERS", 0)
    with pytest.raises(errors.NonconvergenceError, match="in 0 iterations"):
        js.solve_outlet(0.5 * consts.zeta_hat, cfg, gas, consts, opts)
    sym = js.solve_outlet(consts.zeta_hat, cfg, gas, consts, opts)
    assert (sym.field.newton_iters, sym.field.back_solves) == (0, 0)
    rows = js.sweep_zeta(3, cfg, gas, consts, opts, floor=0.5 * consts.zeta_hat)
    assert [r.status for r in rows] == ["error", "error", "ok"]
    assert all("in 0 iterations" in r.message for r in rows[:2])
    assert rows[2].xi == sym.xi


def test_sweep_needs_three_points(gas, cfg, consts, opts64):
    with pytest.raises(errors.ConstraintError):
        js.sweep_zeta(2, cfg, gas, consts, opts64)


def test_sweep_marks_unsolvable_rows(gas):
    # On the tight config the small-zeta rows are genuine nonexistence.
    cfg = js.FlowConfig(R0=1.0, vartheta=1.0, m=0.25, c_e=0.8)
    consts = js.derive_constants(gas, cfg)
    opts = js.SolverOptions(n_phi=32, n_psi=16)
    rows = js.sweep_zeta(5, cfg, gas, consts, opts, floor=1e-3 * consts.zeta_hat)
    statuses = {r.status for r in rows}
    assert "no-solution" in statuses
    assert rows[-1].status == "ok"  # zeta_hat itself always solves
    bad = [r for r in rows if r.status == "no-solution"]
    assert all(r.message == "outlet-cap-bound" for r in bad)
