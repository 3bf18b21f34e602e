"""Free-boundary layer on top of the fixed solver.

For a given detachment abscissa zeta the outlet potential xi is not free
data: it is pinned by mass conservation through the inlet arc,

    integral_0^m  dpsi / (q rho)  evaluated at phi = 0   ==   R0 * vartheta.

``inlet_defect`` measures the imbalance; it is strictly increasing in xi
(stretching the channel slows the inlet, and 1/(q rho) grows as q drops), so
``solve_outlet`` looks for its root on [zeta, R0 c_l].  A positive defect
already at xi = zeta means the detachment point sits beyond the symmetric
one (no solution); a negative defect at the solvability cap xi = R0 c_l
means the inlet cannot carry the flux for so small a zeta (no solution).
Both outcomes return a typed ``Nonexistence`` record instead of raising.
Two fixed-xi solves at the ends decide this.  The one at xi = zeta is the
radial flow, linear in phi, so it starts from its discrete solution and
makes no factorization (``fixedbvp``); the cap shot runs Newton.  Between
them xi is solved for together with the field by one bordered Newton solve
(``fixedbvp``).  The grid's cell counts depend on zeta only, so every xi the
solve visits has its nodes on ``build_grid(zeta, xi)`` and the discrete
defect is continuous and increasing in xi.  The paper's flow is unique for
each zeta, so the defect has one root and there is no second search: when
that solve fails, ``solve_outlet`` raises NonconvergenceError.

Before the endpoint shots a solve may take one start, from one of two
sources.  A caller that has already solved flows of the family on the same
grid passes them (``near``): the nearest one's field starts one bordered
solve at the xi of the secant through the two nearest ones (continuation
along the family; Keller 1977).  Without them, grids of at least 128x64
cells start from the solution one grid coarser (nested iteration): the same
zeta is solved with half the cells in each direction, down to 64x32, and its
flow starts the bordered solve on the requested grid.  When that solve meets
the acceptance above, no endpoint shot runs on the requested grid.  A start
is only a guess: every ``Nonexistence`` verdict comes from the endpoint
shots on the requested grid, which run whenever the start does not give a
flow.

``find_zeta_star`` locates the edge of the solvable zetas, deciding each
probe by one fixed-xi shot at the cap and stepping by Newton in zeta on
each shot's exact zeta-slope (``fixedbvp.zeta_tangent``), ``match_R``
picks zeta so the wetted wall has length R0 - R (matching a nozzle of
radius R), each probe started from the flows solved before it, and
``sweep_zeta`` tabulates the family, each rung solved cold.  Both searches
narrow a sign-change bracket with ``numerics.shrink_bracket``: the
Illinois method, with safeguarded Newton steps where a slope is given.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, replace

import numpy as np

from . import numerics
from .errors import (
    ConstraintError,
    LongNozzleError,
    NonconvergenceError,
    NozzleMatchError,
    ShortNozzleError,
    SingularSystemError,
)
from .fixedbvp import (
    SolverOptions,
    SpeedField,
    inlet_defect,
    shoot_tolerance,
    solve_fixed,
    zeta_tangent,
)
from .gasdyn import DerivedConstants, FlowConfig, GasModel


@dataclass(frozen=True)
class Nonexistence:
    """Typed verdict that no flow exists for this detachment abscissa."""

    zeta: float
    reason: str  # "detachment-beyond-symmetric" | "outlet-cap-bound"
    defect: float
    detail: str


@dataclass(frozen=True, eq=False)
class FreeSolution:
    """A solved free-boundary flow: the field plus its outlet potential and
    the physical wall summary."""

    field: SpeedField
    zeta: float
    xi: float
    inlet_defect: float
    wall_length: float
    r_equiv: float


@dataclass(frozen=True)
class ZetaStarResult:
    """Outcome of the minimal-detachment search.

    floor_limited means the search floor itself was solvable, so zeta_star
    is reported as 0.0.  ``at_star`` and ``at_hat`` are the solved flows at
    the two ends of the family: at zeta_star (the floor when floor-limited)
    and at zeta_hat.  ``cap_shots`` counts the search's cap shots, its two
    ends included (1 when floor-limited).
    """

    zeta_star: float
    floor_limited: bool
    at_star: FreeSolution
    at_hat: FreeSolution
    cap_shots: int


@dataclass(frozen=True)
class ClassifyResult:
    """Existence verdict for a requested nozzle radius;
    ``zeta_star_probes`` is the minimal-detachment search's cap-shot count
    (``ZetaStarResult.cap_shots``)."""

    verdict: str  # "EXISTS" | "NO_SOLUTION_LONG" | "NO_SOLUTION_SHORT"
    r_hat: float
    r_star: float
    zeta_star_probes: int
    zeta: float | None = None
    xi: float | None = None
    wall_length: float | None = None


@dataclass(frozen=True)
class SweepRow:
    zeta: float
    xi: float
    wall_length: float
    r_equiv: float
    status: str  # "ok" | "no-solution" | "error"
    message: str


def _wall_length(field: SpeedField) -> float:
    iz = field.grid.zeta_index
    qw = field.q[: iz + 1, field.grid.n_psi]
    return float(np.trapezoid(1.0 / qw, field.grid.phi_nodes[: iz + 1]))


def _finish(field, zeta, xi, defect, cfg) -> FreeSolution:
    length = _wall_length(field)
    return FreeSolution(
        field=field,
        zeta=zeta,
        xi=xi,
        inlet_defect=defect,
        wall_length=length,
        r_equiv=cfg.R0 - length,
    )


def solve_outlet(
    zeta: float,
    cfg: FlowConfig,
    gas: GasModel,
    consts: DerivedConstants,
    options: SolverOptions | None = None,
    near: Iterable[FreeSolution] = (),
) -> FreeSolution | Nonexistence:
    """Solve for the outlet potential xi so the inlet carries exactly the
    mass flux of the arc, for fixed detachment abscissa zeta.

    One start comes first.  ``near`` are flows the caller has already
    solved on the same grid; from them, the nearest one's field starts one
    bordered Newton solve (``solve_fixed(..., start=, free_xi=True)``) at
    xi_a + (xi_b - xi_a)(zeta - zeta_a)/(zeta_b - zeta_a), the secant
    through the two nearest ones, kept inside (zeta, R0 c_l).  Without
    them, on a grid with a coarser level (``_coarser``), the same zeta is
    first solved there, recursively, and its flow starts that solve at its
    outlet potential xi_c (a fixed-xi solve when xi_c == zeta).
    Its result is returned when it meets the acceptance below.  A start is
    only a guess: when there is none, the coarser level finds no flow or
    raises, or the solve from the start fails, the path below runs as if
    there had been no start.

    Two endpoint shots, fixed-xi solves at xi = zeta and at the cap
    xi = R0 c_l, decide existence (the one at xi = zeta starts from its
    discrete solution and factors nothing): they return a Nonexistence
    record when the defect has no root on [zeta, R0 c_l] (see module
    docstring for the two branches); no verdict comes from a coarser grid.  Between them one
    bordered Newton solve takes xi as an unknown, starting at the secant
    point of the two end defects from the nearer end's field.  Either
    bordered solve is one Newton run on ``build_grid(zeta, xi)``, xi moving
    with every step, until the Newton tolerance and |defect| <=
    ``shoot_tolerance`` are met.  Should the second one raise or miss that
    tolerance, NonconvergenceError is raised (chained from the bordered
    solve's error) naming zeta and the bracket.
    """
    return _solve_outlet(zeta, cfg, gas, consts, options or SolverOptions(), near=tuple(near))


#: The coarsest level of the coarse start.  At 64x32 cells and below a
#: Newton step's cost is Python overhead rather than the banded LU, so a
#: coarser level saves no time: five classify_radius runs at 64x32 took
#: 2.7-3.0 s with a 32x16 level and 2.9 s without (2 vCPUs).
_COARSEST = (64, 32)


def _coarser(options: SolverOptions) -> SolverOptions | None:
    """The options with half the cells in each direction, or None when that
    grid would have fewer cells than ``_COARSEST`` in either direction."""
    n_phi, n_psi = options.n_phi // 2, options.n_psi // 2
    if n_phi < _COARSEST[0] or n_psi < _COARSEST[1]:
        return None
    return replace(options, n_phi=n_phi, n_psi=n_psi)


def _start(zeta, cfg, gas, consts, options, near):
    """(xi0, donor field) of the one start of an outlet solve, or None.

    From flows already solved (``near``): the nearest one's field, at xi0 on
    the secant through the two nearest ones' (zeta, xi), kept inside
    (zeta, zeta_cap).  Without them: the flow the coarser level solves at
    this zeta, at its own xi (None when there is no coarser level or it
    finds no flow).
    """
    if near:
        a, *rest = sorted(near, key=lambda sol: abs(sol.zeta - zeta))
        xi = a.xi
        if rest and rest[0].zeta != a.zeta:
            b = rest[0]
            xi += (b.xi - a.xi) * (zeta - a.zeta) / (b.zeta - a.zeta)
        return _inside(xi, zeta, consts.zeta_cap), a.field
    coarser = _coarser(options)
    if coarser is None:
        return None
    sol = _solve_outlet(zeta, cfg, gas, consts, coarser)
    return (sol.xi, sol.field) if isinstance(sol, FreeSolution) else None


def _solve_outlet(
    zeta, cfg, gas, consts, options, cap_field=None, near=()
) -> FreeSolution | Nonexistence:
    """``solve_outlet`` on one level; calls itself for the coarser level.

    ``cap_field`` is a cap shot (xi = R0 c_l) already solved at this zeta on
    this grid; when given, the endpoint path takes it and its defect in place
    of solving the cap shot again, and no start is tried: the coarse start
    would first repeat the cap shot on every coarser level, where the
    endpoint path adds only the closed-form shot at xi = zeta and one
    bordered solve (the tight config's search at 256x128: 21 -> 16
    factorizations).
    ``near`` are solved flows that give the start in place of the coarser
    level (``_start``).
    """
    shoot_tol = shoot_tolerance(cfg)
    cap = consts.zeta_cap
    if zeta >= cap * (1.0 - 1e-12):
        return Nonexistence(
            zeta=zeta,
            reason="detachment-beyond-symmetric",
            defect=math.inf,
            detail=(
                f"zeta = {zeta:.8g} reaches the outlet cap R0 c_l = {cap:.8g}; "
                f"the symmetric detachment point is {consts.zeta_hat:.8g}"
            ),
        )

    def shoot(xi, donor=None, free_xi=False):
        field = solve_fixed(zeta, xi, cfg, gas, consts, options, start=donor, free_xi=free_xi)
        return field, inlet_defect(field, gas, cfg)

    try:
        start = None if cap_field is not None else _start(zeta, cfg, gas, consts, options, near)
        if start is not None:
            xi0, donor = start
            field, d = shoot(xi0, donor, free_xi=xi0 > zeta)
            if abs(d) <= shoot_tol:
                return _finish(field, zeta, field.grid.xi, d, cfg)
    except (NonconvergenceError, SingularSystemError, ConstraintError):
        pass

    lo = zeta
    field_lo, d_lo = shoot(lo)
    if abs(d_lo) <= shoot_tol:
        return _finish(field_lo, zeta, lo, d_lo, cfg)
    if d_lo > shoot_tol:
        return Nonexistence(
            zeta=zeta,
            reason="detachment-beyond-symmetric",
            defect=d_lo,
            detail=(
                f"inlet over-carries by {d_lo:.3e} even at xi = zeta; "
                f"zeta = {zeta:.8g} exceeds the symmetric value "
                f"{consts.zeta_hat:.8g}"
            ),
        )
    hi = cap
    if cap_field is None:
        field_hi, d_hi = shoot(hi, field_lo)
    else:
        field_hi, d_hi = cap_field, inlet_defect(cap_field, gas, cfg)
    if abs(d_hi) <= shoot_tol:
        return _finish(field_hi, zeta, hi, d_hi, cfg)
    if d_hi < -shoot_tol:
        return Nonexistence(
            zeta=zeta,
            reason="outlet-cap-bound",
            defect=d_hi,
            detail=(
                f"inlet under-carries by {-d_hi:.3e} at the outlet cap "
                f"xi = R0 c_l = {cap:.8g}; zeta = {zeta:.8g} is below the "
                "minimal solvable detachment"
            ),
        )

    # Bracketed root: d_lo < -tol < tol < d_hi, defect increasing in xi.
    # The start need not stay well inside the bracket: the defect is close to
    # linear in xi, and a root close to zeta (nearly symmetric detachment) is
    # then reached without squeezing the grid's segment [zeta, xi] by a large
    # factor.
    x = _secant_point(lo, d_lo, hi, d_hi)
    where = (
        f"the bordered outlet solve at zeta = {zeta:.8g}, started at "
        f"xi = {x:.10g} inside the bracket [{lo:.10g}, {hi:.10g}] "
        f"(defects {d_lo:.3e}, {d_hi:.3e})"
    )
    try:
        field, d = shoot(x, field_lo if (x - lo) <= (hi - x) else field_hi, free_xi=True)
    except (NonconvergenceError, SingularSystemError, ConstraintError) as err:
        raise NonconvergenceError(f"{where} failed: {err}") from err
    if not abs(d) <= shoot_tol:
        raise NonconvergenceError(
            f"{where} ended with |defect| = {abs(d):.3e} above {shoot_tol:.3e}",
            estimate=d,
        )
    return _finish(field, zeta, field.grid.xi, d, cfg)


def _secant_point(lo, d_lo, hi, d_hi):
    """Secant root of the defect on [lo, hi], kept inside the bracket."""
    return _inside(lo - d_lo * (hi - lo) / (d_hi - d_lo), lo, hi)


def _inside(x, lo, hi):
    """x kept 1e-6 of the width inside (lo, hi)."""
    width = hi - lo
    return min(max(x, lo + 1e-6 * width), hi - 1e-6 * width)


# ---------------------------------------------------------------------------
# Minimal detachment abscissa.

#: The minimal-detachment search's floor and its bracket width, as
#: fractions of zeta_hat.
_FLOOR = 1e-3
_ZETA_TOL = 1e-5


def find_zeta_star(
    cfg: FlowConfig,
    gas: GasModel,
    consts: DerivedConstants,
    options: SolverOptions | None = None,
) -> ZetaStarResult:
    """Find the smallest detachment abscissa that still admits a flow, to a
    bracket of width 1e-5 zeta_hat.

    One fixed-xi shot at the outlet cap decides each probe: the inlet
    defect increases in xi, so zeta is solvable exactly when the cap shot's
    defect d satisfies g(zeta) = d + shoot_tol >= 0, which is
    ``solve_outlet``'s verdict on the same grid.  g increases in zeta and is
    smooth and convex between the zetas where ``build_grid``'s cell counts
    change, but it can drop across such a zeta, so it may change sign more
    than once: what the search guarantees is a bracket of width 1e-5
    zeta_hat (``_ZETA_TOL``) whose lower end reads unsolvable and whose
    upper end reads solvable, not the smallest solvable zeta.
    ``numerics.shrink_bracket`` narrows the sign change on [floor,
    zeta_hat].  Its probes are Newton steps on g'(zeta), the exact slope of
    the latest cap shot (``fixedbvp.zeta_tangent``: one more certified
    factorization at the converged field, made only when another probe
    follows; the first from the cap shot at zeta_hat), and Illinois points
    where a Newton point leaves the bracket.  Each cap shot starts from the
    nearest solved cap field advanced along its tangent,
    Q + (zeta - zeta_0) dQ/dzeta (the plain field when it has no tangent;
    the cap shot at zeta_hat from the flow solved there).  A cap-bound
    search on classify-cold's configs makes 6-7 cap shots, its ends
    included, where the Illinois search made 10.

    zeta_star is the final bracket's solvable end.  ``at_star``, the flow
    there, is ``solve_outlet``'s endpoint path on the same grid with the
    search's own cap shot at zeta_star standing in for its endpoint shot at
    the cap (no coarse start), so the verdict and the flow come from one
    computation; should no flow come out, NonconvergenceError is raised.

    The search floor is 1e-3 zeta_hat (``_FLOOR``): if even the floor's cap
    shot reads solvable the result is reported as zeta_star = 0.0 with
    ``floor_limited`` set (the family extends to arbitrarily small zeta as
    far as this resolution can see), and ``at_star`` is the flow at the
    floor, built from the floor's cap shot the same way.  On either path
    ``solve_outlet`` then solves zeta_hat (``at_hat``); a cap-bound search
    also starts its cap shot there from that flow.  Every call runs the
    search afresh; the result carries the flows at both ends so that callers
    (``match_R``, ``classify_radius``) reuse them instead of solving them
    again, and the number of cap shots it made.
    """
    options = options or SolverOptions()
    floor = _FLOOR * consts.zeta_hat
    shoot_tol = shoot_tolerance(cfg)
    cap = consts.zeta_cap
    cap_fields, tangents = {}, {}

    def cap_shot(zeta, donor=None):
        if donor is None and cap_fields:
            near = min(cap_fields, key=lambda z: abs(z - zeta))
            donor = tangents.get(near, cap_fields[near])
        field = solve_fixed(zeta, cap, cfg, gas, consts, options, start=donor)
        cap_fields[zeta] = field
        return inlet_defect(field, gas, cfg) + shoot_tol

    def slope(zeta):
        # g'(zeta) of a cap shot, from a fresh certified factorization at
        # its field; a certificate that fails leaves the probe without one.
        try:
            tangents[zeta] = zeta_tangent(cap_fields[zeta], gas, cfg, consts)
        except SingularSystemError:
            return None
        return tangents[zeta].slope

    def at(zeta):
        # The flow at a probe its cap shot read solvable, from that cap shot.
        sol = _solve_outlet(zeta, cfg, gas, consts, options, cap_fields[zeta])
        if not isinstance(sol, FreeSolution):
            raise NonconvergenceError(
                f"solve_outlet found no flow at zeta = {zeta:.10g}, which its "
                "cap shot reads solvable"
            )
        return sol

    g_floor = cap_shot(floor)
    floor_limited = g_floor >= 0.0
    if floor_limited:
        zeta_star, at_star = 0.0, at(floor)
    sol_hat = solve_outlet(consts.zeta_hat, cfg, gas, consts, options)
    if not isinstance(sol_hat, FreeSolution):
        raise NonconvergenceError(
            "the symmetric detachment abscissa itself failed to solve; "
            "resolution too coarse for this configuration"
        )
    if not floor_limited:
        g_hat = cap_shot(consts.zeta_hat, sol_hat.field)
        br = numerics.shrink_bracket(
            cap_shot,
            numerics.Bracket(floor, consts.zeta_hat, g_floor, g_hat),
            _ZETA_TOL * consts.zeta_hat,
            slope=slope,
        )
        if br.hi >= consts.zeta_hat:
            raise NonconvergenceError(
                "minimal-detachment search found nothing solvable strictly below "
                "the symmetric abscissa; the threshold must satisfy "
                "zeta_star < zeta_hat"
            )
        zeta_star, at_star = br.hi, at(br.hi)
    return ZetaStarResult(
        zeta_star=zeta_star,
        floor_limited=floor_limited,
        at_star=at_star,
        at_hat=sol_hat,
        cap_shots=len(cap_fields),
    )


# ---------------------------------------------------------------------------
# Radius matching.

#: Tolerance on |wall_length - (R0 - R)| of a matched flow.
_MATCH_TOL = 1e-7


def match_R(
    R: float,
    cfg: FlowConfig,
    gas: GasModel,
    consts: DerivedConstants,
    options: SolverOptions | None = None,
    zs: ZetaStarResult | None = None,
) -> FreeSolution:
    """Pick the detachment abscissa whose wetted wall length equals R0 - R.

    The wall length grows from ~0 (zeta -> 0) to R0 - R_hat at the symmetric
    detachment, so the achievable radii are (r_star, R0) with r_star just
    under R0 when every zeta is solvable and R_hat the lower endpoint.
    Radii at or below R_hat raise LongNozzleError, radii at or above the
    achievable maximum (R >= R0 among them) raise ShortNozzleError; both
    carry (r_hat, r_star).  A radius R <= 0 raises ConstraintError.
    ``zs`` is the minimal-detachment search for this configuration when the
    caller already ran it; its two solved ends, ``at_star`` and ``at_hat``,
    bracket the match, and no other flow is solved at either.  Inside that
    bracket ``numerics.shrink_bracket`` narrows the sign change of
    G(zeta) = wall_length - (R0 - R), which increases in zeta along the
    family, with one ``solve_outlet`` per step until
    |wall_length - (R0 - R)| <= 1e-7 (``_MATCH_TOL``), each
    given every flow solved so far (``near``), so a probe starts from its
    two nearest neighbours on the family rather than from the coarser level.
    """
    options = options or SolverOptions()
    if not R > 0.0:
        raise ConstraintError(f"need a positive nozzle radius, got R = {R}")
    target = cfg.R0 - R

    if zs is None:
        zs = find_zeta_star(cfg, gas, consts, options)
    sol_lo, sol_hi = zs.at_star, zs.at_hat
    z_lo = sol_lo.zeta
    r_hat = consts.R_hat
    r_star = sol_lo.r_equiv
    if R >= cfg.R0:
        # No jet is as wide as the inlet itself, so such a radius demands a
        # non-positive wetted wall: too short for every detachment.
        raise ShortNozzleError(
            f"nozzle radius {R} is not below the inlet radius R0 = {cfg.R0}",
            r_hat=r_hat,
            r_star=r_star,
        )
    # Endpoint radii are only known up to the discretization error of the
    # wall-length quadrature, so classification at the endpoints uses a
    # grid-aware tolerance; interior root finding keeps the tight one.
    gh = consts.zeta_hat / options.n_phi
    k = cfg.m / options.n_psi
    gate_tol = max(_MATCH_TOL, 0.1 * (gh * gh + k * k))
    if abs(sol_hi.wall_length - target) <= gate_tol:
        return sol_hi
    if abs(sol_lo.wall_length - target) <= gate_tol:
        return sol_lo
    if target > sol_hi.wall_length + gate_tol:
        raise LongNozzleError(
            f"nozzle radius {R} demands a wetted wall of length {target:.8g}, "
            f"longer than the symmetric maximum {sol_hi.wall_length:.8g} "
            f"(smallest matchable radius {sol_hi.r_equiv:.8g})",
            r_hat=r_hat,
            r_star=r_star,
        )
    if target < sol_lo.wall_length - gate_tol:
        raise ShortNozzleError(
            f"nozzle radius {R} demands a wetted wall of length {target:.8g}, "
            f"shorter than any solvable detachment provides "
            f"(largest matchable radius {r_star:.8g})",
            r_hat=r_hat,
            r_star=r_star,
        )

    # G(z) = L(z) - target is increasing in z with G(lo) < 0 < G(hi); an
    # unsolvable pocket at small zeta reads -inf, which moves the lower end
    # up and makes the next probe the midpoint.
    sols = {z_lo: sol_lo, consts.zeta_hat: sol_hi}

    def G(z):
        sol = solve_outlet(z, cfg, gas, consts, options, near=sols.values())
        if not isinstance(sol, FreeSolution):
            return -math.inf
        sols[z] = sol
        return sol.wall_length - target

    br = numerics.shrink_bracket(
        G,
        numerics.Bracket(
            z_lo, consts.zeta_hat, sol_lo.wall_length - target, sol_hi.wall_length - target
        ),
        1e-13 * consts.zeta_hat,
        ftol=_MATCH_TOL,
    )
    # After a width stop, the solved end whose wall length is nearer the target.
    ends = [(abs(f), z) for z, f in ((br.lo, br.f_lo), (br.hi, br.f_hi)) if z in sols]
    return sols[min(ends)[1]]


def classify_radius(
    R: float,
    cfg: FlowConfig,
    gas: GasModel,
    consts: DerivedConstants,
    options: SolverOptions | None = None,
) -> ClassifyResult:
    """Existence trichotomy for a nozzle of radius R: a flow exists, or the
    nozzle is too long (R below the symmetric detachment radius), or too
    short (R above every achievable equivalent radius, R >= R0 included).
    ``match_R`` holds the radius precondition."""
    zs = find_zeta_star(cfg, gas, consts, options)
    probes = zs.cap_shots
    try:
        sol = match_R(R, cfg, gas, consts, options, zs=zs)
    except NozzleMatchError as err:
        return ClassifyResult(err.verdict, err.r_hat, err.r_star, probes)
    return ClassifyResult(
        "EXISTS",
        r_hat=consts.R_hat,
        r_star=zs.at_star.r_equiv,
        zeta_star_probes=probes,
        zeta=sol.zeta,
        xi=sol.xi,
        wall_length=sol.wall_length,
    )


# ---------------------------------------------------------------------------
# Parameter sweep.


def _sweep_row(zeta, cfg, gas, consts, options) -> SweepRow:
    try:
        sol = solve_outlet(zeta, cfg, gas, consts, options)
    except (NonconvergenceError, SingularSystemError, ConstraintError) as err:
        return SweepRow(zeta, math.nan, math.nan, math.nan, "error", str(err))
    if isinstance(sol, Nonexistence):
        return SweepRow(zeta, math.nan, math.nan, math.nan, "no-solution", sol.reason)
    return SweepRow(zeta, sol.xi, sol.wall_length, sol.r_equiv, "ok", "")


def sweep_zeta(
    count: int,
    cfg: FlowConfig,
    gas: GasModel,
    consts: DerivedConstants,
    options: SolverOptions | None = None,
    floor: float | None = None,
) -> list[SweepRow]:
    """Solve the free problem on a geometric ladder of detachment abscissas
    from ``floor`` (default 0.02 * zeta_hat) up to the symmetric value.

    Rows that fail keep their place in the table with a status of
    "no-solution" (typed nonexistence) or "error" (solver failure).  With no
    explicit floor the ladder starts at max(zeta_star, 0.02 * zeta_hat),
    which runs the minimal-detachment search first."""
    if count < 3:
        raise ConstraintError(f"sweep needs count >= 3, got {count}")
    options = options or SolverOptions()
    if floor is None:
        zs = find_zeta_star(cfg, gas, consts, options)
        floor = max(zs.zeta_star, 0.02 * consts.zeta_hat)
    if not (0.0 < floor < consts.zeta_hat):
        raise ConstraintError(
            f"sweep floor must lie in (0, zeta_hat), got {floor}"
        )
    return [
        _sweep_row(float(zeta), cfg, gas, consts, options)
        for zeta in np.geomspace(floor, consts.zeta_hat, count)
    ]
