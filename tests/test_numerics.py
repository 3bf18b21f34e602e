"""Numerical kernels: root finding, quadrature, banded solves, power fits."""

import math
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack
from scipy.integrate import cumulative_trapezoid
from scipy.interpolate import CubicHermiteSpline, PchipInterpolator

import jetstream as js
import oracle_data as od
from jetstream import errors, numerics


def test_find_root_monotone_polynomial():
    f = lambda x: x**3 - 2.0
    br = numerics.Bracket(0.0, 2.0, f(0.0), f(2.0))
    root = numerics.find_root_monotone(f, br, tol=1e-14)
    assert abs(root - 2.0 ** (1.0 / 3.0)) < 1e-13


def test_find_root_monotone_rejects_unbracketed():
    f = lambda x: x + 1.0
    with pytest.raises(errors.ConstraintError):
        numerics.find_root_monotone(f, numerics.Bracket(0.0, 1.0, f(0.0), f(1.0)))


def _counted(f):
    calls = []

    def g(x):
        calls.append(x)
        return f(x)

    return g, calls


def test_illinois_does_not_stagnate_on_a_convex_function():
    # Plain regula falsi keeps the right end of a convex increasing f fixed
    # and creeps up from the left: the guarded version this replaced took
    # 51 evaluations here.  The Illinois weights bring it down to 12.
    f, calls = _counted(lambda x: math.exp(x) - 2.0)
    br = numerics.Bracket(0.0, 4.0, -1.0, math.exp(4.0) - 2.0)
    root = numerics.find_root_monotone(f, br, tol=1e-12)
    assert abs(root - math.log(2.0)) <= 1e-12
    assert len(calls) <= 15


def test_shrink_bracket_width_stop_straddles_the_root():
    # The width stop returns both ends with their true values, on either
    # side of the root, each about tol/4 from it rather than on top of it.
    f, calls = _counted(lambda x: x**3 - 2.0)
    root = 2.0 ** (1.0 / 3.0)
    tol = 1e-4
    br = numerics.shrink_bracket(f, numerics.Bracket(0.0, 2.0, -2.0, 6.0), tol)
    assert br.lo < root < br.hi
    assert br.hi - br.lo <= tol
    assert br.f_lo == f(br.lo) < 0.0 < br.f_hi == f(br.hi)
    assert min(root - br.lo, br.hi - root) >= 0.1 * tol
    assert all(0.0 < x < 2.0 for x in calls)


def test_shrink_bracket_f_stop_collapses_onto_the_probe():
    f, calls = _counted(lambda x: x**3 - 2.0)
    br = numerics.shrink_bracket(
        f, numerics.Bracket(0.0, 2.0, -2.0, 6.0), tol=1e-14, ftol=1e-3
    )
    assert br.lo == br.hi == calls[-1]
    assert br.f_lo == br.f_hi == f(br.lo)
    assert abs(br.f_lo) <= 1e-3
    # An end that already meets the stop is returned without a probe.
    calls.clear()
    br = numerics.shrink_bracket(f, numerics.Bracket(0.0, 2.0, -2.0, 1e-4), 1e-14, 1e-3)
    assert (br.lo, br.hi, calls) == (2.0, 2.0, [])


def test_shrink_bracket_takes_the_midpoint_next_to_an_infinite_end():
    # An end known only to lie on the negative side (-inf) gives no secant
    # point: the probe is the midpoint until that end holds a finite value.
    f, calls = _counted(lambda x: x - 0.3)
    br = numerics.shrink_bracket(
        f, numerics.Bracket(0.0, 1.0, -math.inf, 0.7), tol=1e-12
    )
    assert calls[0] == 0.5
    assert calls[1] == 0.25
    assert br.lo < 0.3 < br.hi and br.hi - br.lo <= 1e-12
    assert len(calls) <= 15


def _exp_search(slope=None, tol=1e-12):
    """shrink_bracket on the convex increasing exp(x) - 2 over [0, 2]: the
    final bracket, the probes and the points the slope was asked at."""
    f, calls = _counted(lambda x: math.exp(x) - 2.0)
    asked = []

    def counted_slope(x):
        asked.append(x)
        return slope(x)

    br = numerics.shrink_bracket(
        f,
        numerics.Bracket(0.0, 2.0, -1.0, math.exp(2.0) - 2.0),
        tol,
        slope=None if slope is None else counted_slope,
    )
    return br, calls, asked


def test_shrink_bracket_with_slopes_takes_fewer_probes_than_illinois():
    # Newton from the positive end of a convex increasing f stays on that
    # side; the tol/4 move puts the last probe across the root.
    root, tol = math.log(2.0), 1e-12
    br, calls, asked = _exp_search(math.exp, tol)
    _, illinois, _ = _exp_search(None, tol)
    assert len(calls) <= len(illinois) - 3
    assert br.hi - br.lo <= tol
    assert br.lo < root < br.hi and br.f_lo < 0.0 < br.f_hi
    # Asked at the positive end first, then at every probe but the last.
    assert asked == [2.0] + calls[:-1]


@pytest.mark.parametrize(
    "slope",
    [lambda x: None, lambda x: 0.0, lambda x: -math.exp(x), lambda x: 1e-30],
    ids=["missing", "zero", "negative", "newton-point-outside"],
)
def test_shrink_bracket_without_a_usable_slope_is_illinois(slope):
    # A missing or non-positive slope, or a Newton point outside the
    # bracket, gives the Illinois point, probe for probe.
    br, calls, asked = _exp_search(slope)
    ref, illinois, _ = _exp_search(None)
    assert calls == illinois and br == ref
    assert len(asked) == len(calls)


def test_shrink_bracket_slope_keeps_the_midpoint_next_to_an_infinite_end():
    # The slope is not asked while an end holds -inf: the midpoint comes
    # first, as without it.
    f, calls = _counted(lambda x: x - 0.3)
    asked = []
    br = numerics.shrink_bracket(
        f,
        numerics.Bracket(0.0, 1.0, -math.inf, 0.7),
        tol=1e-12,
        slope=lambda x: asked.append(x) or 1.0,
    )
    assert calls[:2] == [0.5, 0.25]
    assert asked[0] == 0.25
    assert br.lo < 0.3 < br.hi and br.hi - br.lo <= 1e-12


def test_derive_constants_root_evaluations(gas, cfg):
    # derive_constants solves two roots (c_m and c_l); the guarded regula
    # falsi this replaced took 84 evaluations for them on the desk config.
    calls = []
    root = numerics.find_root_monotone

    def counting(f, bracket, tol=1e-12):
        def g(x):
            calls.append(x)
            return f(x)

        return root(g, bracket, tol)

    with mock.patch.object(numerics, "find_root_monotone", counting):
        consts = js.derive_constants(gas, cfg)
    assert len(calls) <= 20
    assert abs(consts.c_l - od.C_L) <= 1e-12


def test_integrate_adaptive_smooth():
    val = numerics.integrate_adaptive(np.cos, 0.0, 1.0, tol=1e-13)
    assert abs(val - np.sin(1.0)) < 1e-13


def test_integrate_adaptive_integrable_singularity():
    # sqrt has unbounded derivative at 0; adaptive splitting must localize it.
    val = numerics.integrate_adaptive(lambda x: np.sqrt(x), 0.0, 1.0, tol=1e-12)
    assert abs(val - 2.0 / 3.0) < 1e-10


def test_integrate_adaptive_panel_cap():
    # A non-integrable endpoint blowup exhausts the panel budget.
    with pytest.raises(errors.NonconvergenceError):
        numerics.integrate_adaptive(lambda x: 1.0 / x, 1e-300, 1.0, tol=1e-12)


def test_integrate_adaptive_calls_f_once_per_panel():
    # f takes the array of a panel's 15 Kronrod nodes; no panel is
    # evaluated twice, and each split adds two panels.
    calls = []

    def f(x):
        calls.append(np.array(x, copy=True))
        return np.sqrt(x)

    val = numerics.integrate_adaptive(f, 0.0, 1.0, tol=1e-12)
    assert abs(val - 2.0 / 3.0) < 1e-10
    assert len(calls) > 1 and len(calls) % 2 == 1
    assert all(x.shape == (15,) for x in calls)
    assert all(np.all(np.diff(x) > 0.0) for x in calls)
    panels = {(float(x[0]), float(x[-1])) for x in calls}
    assert len(panels) == len(calls)


# ---------------------------------------------------------------------------
# Hermite tables and PCHIP probes, against scipy as the oracle


def _gas_tables(gas):
    """(x, y, dydx) of the three speed-indexed GasModel tables, keyed by
    attribute name."""
    q = gas._q_knots
    ap, bp, jp = gas.a_prime(q), gas.b_prime(q), gas.j_prime(q)
    return {
        "_A_of_q": (q, gas._a_knots, ap),
        "_B_of_q": (q, gas._b_knots, bp),
        "_q_of_j": (q * gas.rho(q), q, 1.0 / jp),
    }


@pytest.mark.parametrize("name", ["_A_of_q", "_B_of_q", "_q_of_j"])
def test_gas_tables_are_bitwise_scipy_hermite_splines(gas, name):
    x, y, dydx = _gas_tables(gas)[name]
    ref = CubicHermiteSpline(x, y, dydx)
    table = getattr(gas, name)
    assert isinstance(table, numerics.HermiteTable)
    lo, hi = float(x[0]), float(x[-1])
    width = hi - lo
    rng = np.random.default_rng(len(name))
    inside = rng.uniform(lo, hi, (17, 9))
    args = [
        lo, hi, 0.5 * (lo + hi),
        np.float64(0.3 * lo + 0.7 * hi), np.array(0.2 * lo + 0.8 * hi),
        lo - 0.5 * width, lo - 1e-3 * width, hi + 1e-3 * width, hi + 0.5 * width,
        x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf),
        rng.uniform(lo - 0.1 * width, hi + 0.1 * width, 257),
        inside, inside.T, np.sort(inside, axis=None).reshape(9, 17),
    ]
    for v in args:
        got, want = table(v), ref(v)
        assert type(got) is type(want) and got.shape == want.shape
        assert np.array_equal(got, want)


def test_uniform_hermite_table_is_the_hermite_spline():
    # Knots uniform as np.linspace places them; the interval comes from one
    # multiply and the cubic is summed in Horner form, so the values agree
    # with scipy's spline to roundoff, not bitwise.
    x = np.linspace(0.3, 2.9, 513)
    y, d = np.sin(3.0 * x) * np.exp(x), np.exp(x) * (np.sin(3.0 * x) + 3.0 * np.cos(3.0 * x))
    table = numerics.UniformHermiteTable(x, y, d)
    ref = CubicHermiteSpline(x, y, d)
    rng = np.random.default_rng(3)
    inside = rng.uniform(x[0], x[-1], (17, 9))
    for v in (x, np.nextafter(x, np.inf)[:-1], np.nextafter(x, -np.inf)[1:], inside):
        got = table(v)
        assert got.shape == v.shape
        assert np.max(np.abs(got - ref(v))) < 1e-14 * np.max(np.abs(y))
    assert table(1.7).shape == ()
    assert float(table(1.7)) == pytest.approx(float(ref(1.7)), rel=1e-15)


def _pchip_cases():
    # Nonuniform nodes spanning about as much as the solver grids do.
    rng = np.random.default_rng(40)
    x = np.cumsum(rng.uniform(0.05, 1.0, 41)) / 20.0
    wave = np.sin(20.0 * x)[:, None] * np.array([1.0, -2.0, 0.3])  # sign changes
    wave[10:16] = 0.25  # a flat stretch: zero secants
    wave[25, 1] = wave[26, 1]  # one zero secant between rising/falling ones
    steps = np.repeat(rng.normal(size=(9, 2)), 5, axis=0)[: len(x)]
    return [
        (x, wave[:, 0]),
        (x, wave),
        (x, np.abs(wave[:, 1])),  # touches zero: edge cases at extrema
        (np.linspace(-1.0, 1.0, 12), np.linspace(-1.0, 1.0, 12) ** 3),
        # The end rule's limits: a three-point slope against the end
        # secant's sign goes to 0, one beyond 3x it (secants changing
        # sign) to 3x the secant.
        (np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 5.0])),
        (np.array([0.0, 1.0, 1.05]), np.array([0.0, 1.0, 0.5])),
        (x[: len(steps)], steps),
    ]


@pytest.mark.parametrize("case", range(7))
def test_pchip_slopes_are_bitwise_scipy(case):
    x, y = _pchip_cases()[case]
    d = numerics.pchip_slopes(x, y)
    ref = PchipInterpolator(x, y).derivative()(x)
    assert d.shape == y.shape
    # At the last node scipy evaluates its last cubic's derivative, which
    # returns the end slope only up to roundoff.
    assert np.array_equal(d[:-1], ref[:-1])
    assert np.allclose(d[-1], ref[-1], rtol=1e-12, atol=1e-14)
    # The slopes are exactly the ones the scipy interpolant is built from.
    assert np.array_equal(CubicHermiteSpline(x, y, d).c, PchipInterpolator(x, y).c)


@pytest.mark.parametrize("case", range(7))
def test_hermite_excess_is_pchip_antiderivative_minus_trapezoid(case):
    x, y = _pchip_cases()[case]
    excess = numerics.hermite_excess(x, numerics.pchip_slopes(x, y))
    p = PchipInterpolator(x, y)
    ref = p.antiderivative()(x) - cumulative_trapezoid(y, x, axis=0, initial=0)
    assert excess.shape == y.shape
    assert np.all(excess[0] == 0.0)
    assert np.max(np.abs(excess - ref)) <= 1e-14


def _random_banded(rng, n, l, u):
    """A random diagonally dominant system with every diagonal from u down
    to -l, and a right-hand side."""
    offsets = tuple(range(u, -l - 1, -1))
    diags = np.zeros((len(offsets), n))
    for k, d in enumerate(offsets):
        vals = rng.uniform(-1.0, 1.0, n)
        diags[k, max(d, 0) : n + min(d, 0)] = vals[: n - abs(d)]
    # diagonally dominate to guarantee solvability
    diags[offsets.index(0)] += 4.0
    return numerics.BandedSystem(n, offsets, diags), rng.uniform(-1.0, 1.0, n)


def _lapack_band(sys):
    """The (l + u + 1, n) LAPACK band storage scipy's solve_banded takes."""
    ab = np.zeros((sys.l + sys.u + 1, sys.n))
    for d, diag in zip(sys.offsets, sys.diags):
        ab[sys.u - d] = diag
    return ab


def _dense(sys):
    a = np.zeros((sys.n, sys.n))
    for d, diag in zip(sys.offsets, sys.diags):
        j = np.arange(max(d, 0), sys.n + min(d, 0))
        a[j - d, j] = diag[j]
    return a


def test_solve_banded_matches_dense():
    rng = np.random.default_rng(7)
    sys, b = _random_banded(rng, 40, 3, 2)
    x = numerics.solve_banded(sys, b)
    assert np.max(np.abs(numerics.banded_matvec(sys, x) - b)) < 1e-12


@pytest.mark.parametrize("l, u", [(3, 2), (0, 3), (3, 0)])
def test_banded_matvec_is_the_dense_product(l, u):
    # Each diagonal lands where its offset says, also with no
    # superdiagonal (u = 0) or no subdiagonal (l = 0).
    rng = np.random.default_rng(10 * l + u)
    sys, b = _random_banded(rng, 23, l, u)
    assert (sys.l, sys.u) == (l, u)
    x = np.column_stack([b, rng.uniform(-1.0, 1.0, sys.n)])
    a = _dense(sys)
    assert np.allclose(numerics.banded_matvec(sys, b), a @ b, rtol=0.0, atol=1e-14)
    assert np.allclose(numerics.banded_matvec(sys, x), a @ x, rtol=0.0, atol=1e-14)


def test_band_skips_diagonals_that_are_not_held():
    # Offsets (2, 0, -3): l and u come from the outermost ones, and the
    # diagonals in between that are not held are zero.
    rng = np.random.default_rng(4)
    n = 30
    sys = numerics.BandedSystem(n, (2, 0, -3), rng.uniform(-1.0, 1.0, (3, n)))
    sys.diags[1] += 4.0
    assert (sys.l, sys.u) == (3, 2)
    b = rng.uniform(-1.0, 1.0, n)
    x = numerics.solve_banded(sys, b)
    assert np.array_equal(x, scipy.linalg.solve_banded((3, 2), _lapack_band(sys), b))
    assert np.max(np.abs(_dense(sys) @ x - b)) < 1e-12


def test_solve_banded_rejects_mismatched_diagonals():
    n = 6
    for diags in (np.ones((2, n)), np.ones((3, n - 1))):
        with pytest.raises(errors.ConstraintError, match="do not match"):
            numerics.solve_banded(numerics.BandedSystem(n, (1, 0, -1), diags), np.ones(n))


def test_solve_banded_singular_raises():
    n = 5
    diags = np.zeros((3, n))  # tridiagonal all-zero matrix
    sys = numerics.BandedSystem(n, (1, 0, -1), diags)
    with pytest.raises(errors.SingularSystemError):
        numerics.solve_banded(sys, np.ones(n))


def test_solve_banded_two_columns_match_single_columns():
    rng = np.random.default_rng(5)
    sys, b0 = _random_banded(rng, 60, 4, 3)
    b1 = rng.uniform(-1.0, 1.0, sys.n)
    singles = [numerics.solve_banded(sys, b) for b in (b0, b1)]
    rhs = np.column_stack([b0, b1])
    both = numerics.solve_banded(sys, rhs)
    assert both.shape == (sys.n, 2)
    for col, x in enumerate(singles):
        assert np.max(np.abs(both[:, col] - x)) <= 1e-14 * np.max(np.abs(x))
    assert np.max(np.abs(numerics.banded_matvec(sys, both) - rhs)) < 1e-12


def test_solve_banded_rejects_a_corrupted_column():
    # The residual check runs per column: a wrong second column is caught
    # even though the first one is exact.
    rng = np.random.default_rng(9)
    sys, b = _random_banded(rng, 40, 3, 2)
    rhs = np.column_stack([b, rng.uniform(-1.0, 1.0, sys.n)])
    lapack = numerics.dgbtrs

    def corrupted(*args, **kwargs):
        x, info = lapack(*args, **kwargs)
        x[7, 1] += 1e-6
        return x, info

    with mock.patch.object(numerics, "dgbtrs", corrupted):
        with pytest.raises(errors.SingularSystemError, match="column 1"):
            numerics.solve_banded(sys, rhs)


def _fresh_python(code: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)


def test_lapack_routines_are_scipys_in_process():
    # scipy.linalg is loaded here, so the loader hands back its module.
    assert numerics._load_flapack() is scipy.linalg.lapack._flapack
    assert numerics.dgbtrf is scipy.linalg.lapack.dgbtrf
    assert numerics.dgbtrs is scipy.linalg.lapack.dgbtrs


@pytest.mark.parametrize("first", ["jetstream", "scipy.linalg"])
def test_lapack_routines_are_scipys_in_either_import_order(first):
    # Whichever comes first in a fresh interpreter, one copy of the
    # extension is loaded and numerics calls scipy's very routines.
    res = _fresh_python(
        f"import {first}; from jetstream import numerics; "
        "import scipy.linalg.lapack as lapack; "
        "print(numerics._load_flapack() is lapack._flapack, "
        "numerics.dgbtrf is lapack.dgbtrf, numerics.dgbtrs is lapack.dgbtrs)"
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["True", "True", "True"]


def test_scipy_linalg_binds_its_lapack_wrapper_after_jetstream():
    # jetstream loads the extension first; scipy.linalg, imported later,
    # still has it as an attribute, holding the routines numerics calls.
    res = _fresh_python(
        "import jetstream, scipy.linalg; from jetstream import numerics; "
        "print(scipy.linalg._flapack is scipy.linalg.lapack._flapack, "
        "numerics.dgbtrf is scipy.linalg._flapack.dgbtrf)"
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["True", "True"]


def test_missing_lapack_wrapper_fails_the_import_loudly(tmp_path):
    # A scipy whose directory has no _flapack extension: the import stops
    # with an ImportError naming the module and the directory searched.
    res = _fresh_python(
        "import importlib.machinery, importlib.util; "
        "spec = importlib.machinery.ModuleSpec('scipy', None, is_package=True); "
        f"spec.submodule_search_locations = [{str(tmp_path)!r}]; "
        "find_spec = importlib.util.find_spec; "
        "importlib.util.find_spec = "
        "lambda name, package=None: spec if name == 'scipy' else find_spec(name, package); "
        "import jetstream"
    )
    assert res.returncode != 0
    last = res.stderr.strip().splitlines()[-1]
    assert last.startswith("ImportError:")
    assert "_flapack" in last and str(tmp_path / "linalg") in last and "scipy " in last


@pytest.mark.parametrize("l, u", [(3, 2), (2, 5), (6, 6), (0, 3), (4, 0)])
@pytest.mark.parametrize("k", [1, 2])
def test_solve_banded_is_bitwise_scipy(l, u, k):
    # The in-place dgbtrf/dgbtrs pair runs what scipy's gbsv runs, so the
    # answer is the same to the bit, also in a work array that still holds
    # an earlier factorization of the same band.
    rng = np.random.default_rng(100 * l + 10 * u + k)
    for n in (50, 37, 80):
        sys, rhs = _random_banded(rng, n, l, u)
        if k == 2:
            rhs = np.column_stack([rhs, rng.uniform(-1.0, 1.0, n)])
        x = numerics.solve_banded(sys, rhs)
        ref = scipy.linalg.solve_banded((l, u), _lapack_band(sys), rhs)
        assert x.shape == ref.shape
        assert np.array_equal(x, ref)


def test_back_solve_matches_a_fresh_solve():
    rng = np.random.default_rng(11)
    sys, b = _random_banded(rng, 70, 4, 2)
    numerics.solve_banded(sys, b)
    rhs = np.column_stack([rng.uniform(-1.0, 1.0, sys.n) for _ in range(2)])
    x = numerics.back_solve(sys, rhs)
    assert np.array_equal(numerics.back_solve(sys, rhs[:, 1]), x[:, 1])
    fresh = numerics.BandedSystem(sys.n, sys.offsets, sys.diags.copy())
    assert np.array_equal(x, numerics.solve_banded(fresh, rhs))


def test_back_solve_refuses_a_stale_handle():
    # A later factorization of the same band overwrites the work array the
    # first one lives in: the first handle must refuse, not solve against
    # the other matrix.
    rng = np.random.default_rng(12)
    first, b1 = _random_banded(rng, 50, 3, 3)
    second, b2 = _random_banded(rng, 50, 3, 3)
    numerics.solve_banded(first, b1)
    numerics.solve_banded(second, b2)
    with pytest.raises(errors.ConstraintError, match="stale"):
        numerics.back_solve(first, b1)
    numerics.back_solve(second, b2)
    # A system that was never factored has no handle at all.
    with pytest.raises(errors.ConstraintError):
        numerics.back_solve(_random_banded(rng, 50, 3, 3)[0], b1)


def test_fit_power_exponent_recovers_planted_law():
    d = 2.0 ** -np.arange(4, 10)
    samples = list(zip(d, 3.7 * d**0.5))
    p = numerics.fit_power_exponent(samples)
    assert abs(p - 0.5) < 1e-12


def test_fit_power_exponent_needs_enough_samples():
    with pytest.raises(errors.ConstraintError):
        numerics.fit_power_exponent([(0.1, 0.3), (0.05, 0.2)])
