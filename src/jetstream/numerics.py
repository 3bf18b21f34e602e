"""Deterministic numerical kernels.

Bracketed root finding (the Illinois method, with safeguarded Newton steps
where the caller knows f's slope: the package's one bracketed search),
adaptive Gauss-Kronrod quadrature (one vectorized integrand call per
panel), cubic Hermite tables and PCHIP slopes in numpy, banded linear solves
(LAPACK-backed) with a residual check, and log-log power-law fits.
Everything here is deterministic: no randomness, no time-dependent state,
fixed summation orders.

``HermiteTable`` evaluates a piecewise cubic Hermite interpolant with the
coefficients, interval search and summation order of scipy's
``CubicHermiteSpline``, so its values are bitwise the spline's; the gas
tables indexed by speed use it.  ``UniformHermiteTable`` is the same
interpolant on uniform knots, where the interval is one multiply away; the
gas law indexed by A uses it.  ``pchip_slopes`` gives the node slopes of
the monotone cubic (PCHIP) interpolant by scipy's ``PchipInterpolator``
rules, and ``hermite_excess`` the running gap between a Hermite cubic's
integral and the trapezoid rule in closed form; the angle recovery's error
probes use both.  The package needs only two LAPACK routines from scipy,
and it loads them without importing any scipy package: ``_load_flapack``
loads the compiled wrapper module ``scipy.linalg._flapack`` from its file,
because importing ``scipy.linalg`` (it pulls in scipy's array-API layer,
``numpy.testing`` and f2py) cost ~0.17 s of a ~0.26 s cold start.  A
scipy without that file fails the import with an ``ImportError``.

Banded solves factor in place.  A ``BandedSystem`` holds only its nonzero
diagonals, and ``solve_banded`` alone lays them out in LAPACK band storage:
in one Fortran-ordered (2l + u + 1)-row work array per (l, u), kept per
thread and reused by every later system of that band (grown when a system
has more columns).  It factors there with LAPACK ``dgbtrf`` and solves with
``dgbtrs``: the same two routines ``gbsv`` runs, so the solution is bitwise
that of ``scipy.linalg.solve_banded``, without a fresh ~200 MB array per
call at 512x128 cells.  The factorization stays on the system
(``BandedSystem.lu``); ``back_solve`` solves further right-hand sides with
it, at the cost of two triangular sweeps.  U has l + u superdiagonals in
LAPACK's storage, but only u + s of them can be nonzero, s being the
largest row shift of the factorization's pivoting (0 when no row was
swapped, as in every recorded factorization of a 512x128 free solve).  With
k = max(l, u + s), ``dgbtrs`` is handed the same storage viewed l + u - k
rows further down, as a band with l subdiagonals and k - l superdiagonals,
so its U sweep reads k superdiagonals and skips the rows that hold exact
zeros; L and the pivots are read as before.  Its answer is bitwise the
full sweep's: each skipped term was x_i - t * 0.  The next factorization of
the same band overwrites the work array, so a handle from before it is
stale and ``back_solve`` refuses it.  Every solve, first or later, passes
the same residual check, which multiplies a solution block column by
column in its own (Fortran) layout; ||A|| is found once per factorization.
On a 512x128 Newton matrix (n 65816, l = u = 129; 2 vCPUs, one BLAS thread)
a two-column ``dgbtrs`` takes 32-34 ms where the full sweep took 46-48 ms,
and its residual check 1.2 ms where mixed-layout products took 4.8 ms.
"""

from __future__ import annotations

import heapq
import importlib.machinery
import importlib.util
import math
import os
import sys
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import ConstraintError, NonconvergenceError, SingularSystemError


def _load_flapack():
    """scipy's compiled LAPACK wrapper module ``scipy.linalg._flapack``,
    loaded from its file without running the ``scipy`` or ``scipy.linalg``
    package ``__init__``.

    A copy already in ``sys.modules`` (``scipy.linalg`` was imported first)
    is reused.  A fresh one is dropped from ``sys.modules``, so that a later
    ``import scipy.linalg`` loads it again and binds the attribute
    ``scipy.linalg._flapack``.  In either order its routines are the very
    objects ``scipy.linalg.lapack`` exports."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None:
        raise ImportError("jetstream needs scipy's LAPACK wrappers; scipy is not installed")
    linalg = os.path.join(scipy_spec.submodule_search_locations[0], "linalg")
    finder = importlib.machinery.FileFinder(
        linalg,
        (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES),
    )
    spec = finder.find_spec(name)
    if spec is None:
        from importlib.metadata import PackageNotFoundError, version

        try:
            found = f"scipy {version('scipy')}"
        except PackageNotFoundError:
            found = "scipy of unknown version"
        raise ImportError(
            f"{found} has no extension module _flapack in {linalg} "
            f"(suffixes {', '.join(importlib.machinery.EXTENSION_SUFFIXES)})",
            name=name,
            path=linalg,
        )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules.pop(name, None)
    return module


_flapack = _load_flapack()
dgbtrf = _flapack.dgbtrf
dgbtrs = _flapack.dgbtrs

# 7-point Gauss / 15-point Kronrod rule on [-1, 1].  Standard published
# abscissae/weights; the rule is open (no endpoint evaluations), which is what
# lets integrable endpoint singularities like x**-0.5 converge.
_XK = np.array(
    [
        -0.991455371120813,
        -0.949107912342759,
        -0.864864423359769,
        -0.741531185599394,
        -0.586087235467691,
        -0.405845151377397,
        -0.207784955007898,
        0.0,
        0.207784955007898,
        0.405845151377397,
        0.586087235467691,
        0.741531185599394,
        0.864864423359769,
        0.949107912342759,
        0.991455371120813,
    ]
)
_WK = np.array(
    [
        0.022935322010529,
        0.063092092629979,
        0.104790010322250,
        0.140653259715525,
        0.169004726639267,
        0.190350578064785,
        0.204432940075298,
        0.209482141084728,
        0.204432940075298,
        0.190350578064785,
        0.169004726639267,
        0.140653259715525,
        0.104790010322250,
        0.063092092629979,
        0.022935322010529,
    ]
)
# Gauss-7 weights sit on every other Kronrod node (indices 1,3,...,13).
_WG = np.array(
    [
        0.129484966168870,
        0.279705391489277,
        0.381830050505119,
        0.417959183673469,
        0.381830050505119,
        0.279705391489277,
        0.129484966168870,
    ]
)

_MAX_PANELS = 4096
_MAX_ROOT_ITERS = 200


@dataclass(frozen=True)
class Bracket:
    """A sign-change interval [lo, hi] with the function values at both ends
    (lo == hi when a search stopped on a probe that meets its |f| stop)."""

    lo: float
    hi: float
    f_lo: float
    f_hi: float


@dataclass
class BandedSystem:
    """An n x n banded matrix held by its nonzero diagonals: ``offsets`` j - i
    in decreasing order and ``diags[k, j] = A[j - offsets[k], j]`` (entries
    outside A are not read).  ``l``/``u`` count the sub/superdiagonals spanned.
    """

    n: int
    offsets: tuple
    diags: np.ndarray
    #: The LU factorization ``solve_banded`` left, for ``back_solve``.
    lu: "_LU | None" = field(default=None, repr=False)

    @property
    def l(self) -> int:
        return max(0, -min(self.offsets))

    @property
    def u(self) -> int:
        return max(0, max(self.offsets))


class _Work:
    """A thread's work array for one band (l, u): Fortran-ordered, with
    2l + u + 1 rows (room for the fill-in of pivoting) and more columns than
    the largest system factored in it: ``back_solve`` views n columns that
    start a few rows down, which reach into column n.  It grows with 1/8
    spare columns, since the unknown count of one grid size moves a little
    with zeta; columns never factored in are never touched, so they cost
    address space but no memory.  ``generation`` counts the factorizations
    made in it."""

    def __init__(self, rows: int):
        self.array = np.empty((rows, 0), order="F")
        self.generation = 0

    def take(self, n: int) -> np.ndarray:
        """The first n columns, for a new factorization; any handle to an
        earlier one goes stale."""
        rows, cols = self.array.shape
        if cols <= n:
            self.array = None  # let the old array go before the new one is made
            self.array = np.empty((rows, n + n // 8 + 1), order="F")
        self.generation += 1
        return self.array[:, :n]


@dataclass(frozen=True)
class _LU:
    """One factorization in a work array: its pivots, its fill (the largest
    row shift max(piv[i] - i), 0 when no row was swapped) and ||A||_inf for
    the residual check."""

    work: _Work
    generation: int
    piv: np.ndarray
    fill: int
    norm_A: float

    def factors(self, n: int, skip: int) -> np.ndarray:
        """The factors of n columns in band storage that starts ``skip`` rows
        down the work array: a Fortran-ordered view of its buffer, with the
        array's row count as leading dimension."""
        if self.generation != self.work.generation:
            raise ConstraintError(
                "banded factorization is stale: its work array has been "
                "refactored since"
            )
        rows = self.work.array.shape[0]
        flat = self.work.array.reshape(-1, order="F")
        return flat[skip : skip + rows * n].reshape((rows, n), order="F")


_THREAD = threading.local()


def _work(l: int, u: int) -> _Work:
    """This thread's work array for the band (l, u)."""
    spaces = _THREAD.__dict__.setdefault("spaces", {})
    if (l, u) not in spaces:
        spaces[l, u] = _Work(2 * l + u + 1)
    return spaces[l, u]


def shrink_bracket(
    f, bracket: Bracket, tol: float, ftol: float = 0.0, slope=None
) -> Bracket:
    """Narrow a sign-change bracket of f by the Illinois method, or by
    Newton steps where f's slope is known.

    Each step evaluates f once, near the regula falsi point of the current
    bracket, and replaces the end whose value has the probe's sign.  When
    the same end is replaced twice in a row, the value stored at the other
    (stale) end is halved, so both ends converge and the root is found
    superlinearly where plain regula falsi stagnates (Dowell & Jarratt
    1971).  A non-finite end value (say, -inf for a probe known to lie on
    the negative side without a finite value) gives the midpoint instead.

    ``slope``, when given, maps the latest probe x to f'(x), or to None when
    it has none; it is called only when another probe follows and both end
    values are finite, before the first probe for the end where f is
    positive.  A slope of the bracket's direction (positive when f_hi > 0)
    whose Newton point x - f(x)/f'(x) lies inside the bracket puts the next
    probe there (safeguarded Newton); any other case takes the Illinois
    point above.  On a smooth convex increasing f, Newton from the positive
    side stays on that side and converges quadratically, where the Illinois
    point needs more probes.

    The probe is moved tol/4 toward the stale end and kept at least tol/4
    inside the bracket.  Once the estimate is good to well under tol, the
    next two probes then land on either side of the root and the bracket
    closes with both ends about tol/4 from it, where an f known only to
    some noise level (a converged Newton solve) still has a clear sign;
    without the move both ends would converge onto the root itself.

    Stops when the width is at most ``tol``, returning the final bracket
    with the true f values at its ends, or when a probe has |f| <= ``ftol``
    (exactly zero for the default), returning the bracket collapsed onto
    that probe.  An end that already meets ``ftol`` is returned collapsed
    (lo wins if both do).  Raises ConstraintError for a bracket that is
    not ordered or does not straddle a sign change, and NonconvergenceError
    after ``_MAX_ROOT_ITERS`` steps.
    """
    lo, hi, f_lo, f_hi = bracket.lo, bracket.hi, bracket.f_lo, bracket.f_hi
    if not lo < hi:
        raise ConstraintError(f"bracket endpoints not ordered: [{lo}, {hi}]")
    if abs(f_lo) <= ftol:
        return Bracket(lo, lo, f_lo, f_lo)
    if abs(f_hi) <= ftol:
        return Bracket(hi, hi, f_hi, f_hi)
    if not f_lo * f_hi < 0.0:
        raise ConstraintError(
            f"bracket does not straddle a root: f({lo})={f_lo}, f({hi})={f_hi}"
        )
    # The Illinois weights act on these stored copies; the ends keep the
    # true values for the returned bracket.  ``last`` is -1 (+1) when the
    # last probe replaced lo (hi), 0 before the first probe; (x, fx) is the
    # point the next Newton step starts from.
    g_lo, g_hi, last = f_lo, f_hi, 0
    x, fx = (lo, f_lo) if f_lo > 0.0 else (hi, f_hi)
    for _ in range(_MAX_ROOT_ITERS):
        if hi - lo <= tol:
            return Bracket(lo, hi, f_lo, f_hi)
        if math.isfinite(g_lo) and math.isfinite(g_hi):
            s = None if slope is None else slope(x)
            x_n = x - fx / s if s is not None and s * f_hi > 0.0 else math.nan
            if not lo < x_n < hi:
                x_n = lo - g_lo * (hi - lo) / (g_hi - g_lo)
            x = min(max(x_n - 0.25 * tol * last, lo + 0.25 * tol), hi - 0.25 * tol)
        else:
            x = 0.5 * (lo + hi)
        if not lo < x < hi:  # the bracket is down to adjacent floats
            return Bracket(lo, hi, f_lo, f_hi)
        fx = f(x)
        if abs(fx) <= ftol:
            return Bracket(x, x, fx, fx)
        if (fx < 0.0) == (f_lo < 0.0):
            lo, f_lo, g_lo = x, fx, fx
            if last == -1:
                g_hi *= 0.5
            last = -1
        else:
            hi, f_hi, g_hi = x, fx, fx
            if last == 1:
                g_lo *= 0.5
            last = 1
    raise NonconvergenceError(
        f"root not bracketed to {tol} within {_MAX_ROOT_ITERS} iterations "
        f"(bracket [{lo}, {hi}])",
        estimate=0.5 * (lo + hi),
    )


def find_root_monotone(f, bracket: Bracket, tol: float = 1e-12) -> float:
    """Root of f inside a sign-change bracket, to ``tol`` in x.

    The midpoint of ``shrink_bracket``'s final bracket, or the probe (or
    end) where f vanishes exactly; lo wins if both ends vanish.
    """
    br = shrink_bracket(f, bracket, tol)
    return 0.5 * (br.lo + br.hi)


def _gk_panel(f, lo: float, hi: float) -> tuple[float, float]:
    """(Kronrod-15 estimate, |K15 - G7| error indicator) on one panel,
    from one call of f on all 15 nodes."""
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    fx = f(c + h * _XK)
    k15 = h * float(np.dot(_WK, fx))
    g7 = h * float(np.dot(_WG, fx[1::2]))
    return k15, abs(k15 - g7)


def integrate_adaptive(f, a: float, b: float, tol: float = 1e-12) -> float:
    """Adaptive Gauss-Kronrod integral of f over [a, b], absolute tolerance.

    ``f`` maps an array of nodes to an array of its values of the same
    shape; it is called once per panel, on that panel's 15 Kronrod nodes.
    Globally adaptive: the panel with the largest error indicator is split
    until the summed indicators drop below ``tol``.  The rule is open, so
    integrable endpoint singularities (e.g. the inverse square root) converge;
    exceeding the panel cap raises a typed nonconvergence error carrying the
    best estimate so far.  Deterministic: the heap orders ties by interval
    position and the final sum is an ordered fsum.
    """
    if a == b:
        return 0.0
    sign = 1.0
    if a > b:
        a, b, sign = b, a, -1.0
    k15, err = _gk_panel(f, a, b)
    # Heap of (-error, lo, hi, estimate); max-error panel splits first.
    heap = [(-err, a, b, k15)]
    total_err = err
    while total_err > tol:
        if len(heap) >= _MAX_PANELS:
            est = sign * math.fsum(item[3] for item in sorted(heap, key=lambda t: t[1]))
            raise NonconvergenceError(
                f"adaptive quadrature exceeded {_MAX_PANELS} panels "
                f"(remaining error {total_err:.3e}, tol {tol:.3e})",
                estimate=est,
            )
        neg_err, lo, hi, _ = heapq.heappop(heap)
        total_err += neg_err  # neg_err is negative: removes this panel's share
        mid = 0.5 * (lo + hi)
        for seg in ((lo, mid), (mid, hi)):
            k, e = _gk_panel(f, *seg)
            heapq.heappush(heap, (-e, seg[0], seg[1], k))
            total_err += e
    return sign * math.fsum(item[3] for item in sorted(heap, key=lambda t: t[1]))


class HermiteTable:
    """Piecewise cubic Hermite interpolant through (x_k, y_k) with node
    slopes d_k, over strictly increasing x; the end cubics continue past
    both ends.

    The cubic on [x_k, x_k+1] is y_k + d_k s + c2_k s^2 + c3_k s^3 in
    s = v - x_k, with t_k = (d_k + d_k+1 - 2 m_k) / h_k for the secant
    slope m_k, c2_k = (m_k - d_k) / h_k - t_k and c3_k = t_k / h_k.  The
    coefficients, the interval search and the summation order (constant
    term first) are those of scipy's ``CubicHermiteSpline``, so the values
    are bitwise its values.  A call returns an array of the argument's
    shape (0-d for a scalar), as the scipy spline does.
    """

    def __init__(self, x, y, dydx):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        d = np.asarray(dydx, dtype=float)
        dx = np.diff(x)
        slope = np.diff(y) / dx
        t = (d[:-1] + d[1:] - 2 * slope) / dx
        self._x = x
        self._inner = x[1:-1]
        self._c0 = y[:-1]
        self._c1 = d[:-1]
        self._c2 = (slope - d[:-1]) / dx - t
        self._c3 = t / dx

    def __call__(self, v):
        v = np.asarray(v, dtype=float)
        flat = v.ravel()
        # x_k <= v < x_k+1, the last interval closed; the end intervals
        # take everything beyond them.
        k = self._inner.searchsorted(flat, "right")
        s = flat - self._x.take(k)
        # c0 + c1 s + c2 s^2 + c3 s^3, summed left to right with
        # s^3 = (s s) s; each gathered coefficient array is fresh, so the
        # products are formed in place.
        res = self._c1.take(k)
        res *= s
        res += self._c0.take(k)
        z = s * s
        term = self._c2.take(k)
        term *= z
        res += term
        z *= s
        term = self._c3.take(k)
        term *= z
        res += term
        return res.reshape(v.shape)


class UniformHermiteTable(HermiteTable):
    """A ``HermiteTable`` on uniformly spaced knots (``np.linspace``'s),
    for arguments inside [x_0, x_n]: the interval is int((v - x_0) / h)
    clamped to the last one, found by one multiply instead of a binary
    search, and the cubic is summed in Horner form."""

    def __init__(self, x, y, dydx):
        super().__init__(x, y, dydx)
        self._x0 = float(self._x[0])
        self._inv_h = (len(self._x) - 1) / (float(self._x[-1]) - self._x0)
        self._last = len(self._x) - 2

    def __call__(self, v):
        v = np.asarray(v, dtype=float)
        flat = v.ravel()
        k = ((flat - self._x0) * self._inv_h).astype(np.intp)
        np.minimum(k, self._last, out=k)
        s = flat - self._x.take(k)
        # ((c3 s + c2) s + c1) s + c0, in place on the fresh gathered array.
        res = self._c3.take(k)
        res *= s
        res += self._c2.take(k)
        res *= s
        res += self._c1.take(k)
        res *= s
        res += self._c0.take(k)
        return res.reshape(v.shape)


def pchip_slopes(x, y) -> np.ndarray:
    """Node slopes of the monotone piecewise cubic (PCHIP) interpolant of y
    over three or more strictly increasing nodes x, along axis 0 of y.

    Fritsch & Carlson (1980): a node where the two neighbouring secant
    slopes differ in sign or one of them vanishes gets slope 0, any other
    inner node their weighted harmonic mean.  Each end takes the one-sided
    three-point estimate, set to 0 if its sign differs from the end secant
    and to 3 times that secant if the secants change sign and it exceeds
    it (Moler 2004).  The rules and their operations are those of scipy's
    ``PchipInterpolator``, so the slopes are bitwise the ones it
    interpolates with.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    hk = np.diff(x).reshape((-1,) + (1,) * (y.ndim - 1))
    mk = np.diff(y, axis=0) / hk
    smk = np.sign(mk)
    flat = (smk[1:] != smk[:-1]) | (mk[1:] == 0) | (mk[:-1] == 0)
    w1 = 2 * hk[1:] + hk[:-1]
    w2 = hk[1:] + 2 * hk[:-1]
    # Division by a zero secant lands only on nodes ``flat`` sets to 0.
    with np.errstate(divide="ignore", invalid="ignore"):
        whmean = (w1 / mk[:-1] + w2 / mk[1:]) / (w1 + w2)
        inner = np.where(flat, 0.0, 1.0 / whmean)
    first = _pchip_end(hk[0], hk[1], mk[0], mk[1])
    last = _pchip_end(hk[-1], hk[-2], mk[-1], mk[-2])
    return np.concatenate([first[None], inner, last[None]])


def _pchip_end(h0, h1, m0, m1):
    """PCHIP end slope from the end spacings h0, h1 and secants m0, m1."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    wrong_sign = np.sign(d) != np.sign(m0)
    overshoot = (np.sign(m0) != np.sign(m1)) & (np.abs(d) > 3.0 * np.abs(m0))
    return np.where(wrong_sign, 0.0, np.where(overshoot, 3.0 * m0, d))


def hermite_excess(x, d) -> np.ndarray:
    """Running integral of a cubic Hermite interpolant over the nodes x
    minus the trapezoid rule's, along axis 0 of the node slopes d.

    On a cell of width h the cubic's integral exceeds the trapezoid by
    h^2 (d_k - d_k+1) / 12, whatever the node values; the result is the
    cumulative sum of these gaps, 0 at the first node.
    """
    d = np.asarray(d, dtype=float)
    h = np.diff(np.asarray(x, dtype=float)).reshape((-1,) + (1,) * (d.ndim - 1))
    gap = h * h * (d[:-1] - d[1:]) / 12.0
    return np.concatenate([np.zeros((1,) + d.shape[1:]), np.cumsum(gap, axis=0)])


def banded_matvec(sys: BandedSystem, x: np.ndarray) -> np.ndarray:
    """A @ x for a banded matrix, x of shape (n,) or (n, k); the diagonals
    are added in the order of ``sys.offsets``.  A block is multiplied one
    column at a time into a result of x's memory layout, so that the
    columns of a Fortran-ordered block (a solution) are read and written
    contiguously."""
    n = sys.n
    y = np.zeros_like(x, dtype=float)
    for xc, yc in zip(x.T, y.T) if x.ndim == 2 else [(x, y)]:
        for d, diag in zip(sys.offsets, sys.diags):
            # entries A[i, i+d] = diags[k, i+d]
            if d >= 0:
                yc[: n - d] += diag[d:] * xc[d:]
            else:
                yc[-d:] += diag[: n + d] * xc[: n + d]
    return y


def solve_banded(sys: BandedSystem, rhs: np.ndarray) -> np.ndarray:
    """Solve the banded system by LU with partial pivoting confined to the band.

    Lays the diagonals out in this thread's work array for the band, factors
    them there (LAPACK dgbtrf) and solves with dgbtrs; the factorization is
    left on ``sys.lu`` for ``back_solve``.  ``rhs`` is a vector (n,) or a block
    of right-hand sides (n, k) that share one factorization.  Every
    solution column is verified by an explicit residual check:
    ||Ax - b|| <= 1e-10 * max(1, ||b||) for well-conditioned systems,
    relaxing to the backward-stability scale eps*(||A|| ||x|| + ||b||) when
    the system is large in norm; a zero pivot or a failed check in any column
    raises SingularSystemError.
    """
    if sys.diags.shape != (len(sys.offsets), sys.n):
        raise ConstraintError(
            f"diagonals of shape {sys.diags.shape} do not match "
            f"({len(sys.offsets)} offsets, n = {sys.n})"
        )
    sys.lu = None
    work = _work(sys.l, sys.u)
    ab = work.take(sys.n)
    ab[sys.l :] = 0.0  # the first l rows are left to dgbtrf's fill-in
    for d, diag in zip(sys.offsets, sys.diags):
        ab[sys.l + sys.u - d] = diag  # A[i, j] at ab[l + u + i - j, j]
    _, piv, info = dgbtrf(ab, sys.l, sys.u, overwrite_ab=1)
    if info > 0:
        raise SingularSystemError(
            f"banded factorization failed: zero pivot in column {info - 1}"
        )
    # Row sums of |A| give ||A||_inf without leaving the diagonals.
    abs_A = BandedSystem(sys.n, sys.offsets, np.abs(sys.diags))
    norm_A = float(banded_matvec(abs_A, np.ones(sys.n)).max())
    fill = int((piv - np.arange(sys.n, dtype=piv.dtype)).max())
    sys.lu = _LU(work, work.generation, piv, fill, norm_A)
    return back_solve(sys, rhs)


def back_solve(sys: BandedSystem, rhs: np.ndarray) -> np.ndarray:
    """Solve A x = rhs with the factorization ``solve_banded`` left on
    ``sys``, under the same residual check.  ``rhs`` is (n,) or (n, k).
    One ``dgbtrs`` call makes both triangular sweeps; its U sweep reads only
    the superdiagonals the factorization's fill can have made nonzero.
    Raises ConstraintError when ``sys`` has no factorization or its work
    array has been refactored since (a stale handle)."""
    if sys.lu is None:
        raise ConstraintError("back_solve needs a system factored by solve_banded")
    if rhs.ndim not in (1, 2) or rhs.shape[0] != sys.n:
        raise ConstraintError(f"rhs shape {rhs.shape} does not match n={sys.n}")
    # U's nonzero superdiagonals, at most u + fill, sit in the rows just above
    # its diagonal: the band that starts l + u - k rows down holds them and
    # L with kl = l, ku = k - l (k >= l keeps ku from going negative).
    lu = sys.lu
    k = max(sys.l, sys.u + lu.fill)
    ab = lu.factors(sys.n, sys.l + sys.u - k)
    x, info = dgbtrs(ab, sys.l, k - sys.l, rhs, lu.piv)
    if info != 0:
        raise ConstraintError(f"dgbtrs rejected argument {-info}")
    if not np.all(np.isfinite(x)):
        raise SingularSystemError("banded solve produced non-finite entries")
    # Column-wise infinity norms (scalars for a single right-hand side).
    rnorm = np.max(np.abs(banded_matvec(sys, x) - rhs), axis=0)
    norm_b = np.max(np.abs(rhs), axis=0)
    norm_x = np.max(np.abs(x), axis=0)
    # Well-conditioned systems meet the tight bound; beyond it, accept
    # anything backward-stable and flag the rest as numerically singular.
    eps = float(np.finfo(float).eps)
    bound = np.maximum(
        1e-10 * np.maximum(1.0, norm_b),
        1e3 * eps * (lu.norm_A * norm_x + norm_b),
    )
    rnorm, bound = np.atleast_1d(rnorm), np.atleast_1d(bound)
    bad = np.flatnonzero(rnorm > bound)
    if bad.size:
        col = int(bad[0])
        raise SingularSystemError(
            f"banded solve residual {rnorm[col]:.3e} exceeds bound {bound[col]:.3e} "
            f"in column {col} (system is numerically singular or badly conditioned)"
        )
    return x


def fit_power_exponent(samples) -> float:
    """Least-squares exponent alpha of v ~ C * d**alpha from (d, v) samples.

    Requires at least 4 samples with strictly positive distances and values;
    the fit is linear regression in log-log coordinates.
    """
    pts = list(samples)
    if len(pts) < 4:
        raise ConstraintError(f"power-law fit needs >= 4 samples, got {len(pts)}")
    d = np.array([p[0] for p in pts], dtype=float)
    v = np.array([p[1] for p in pts], dtype=float)
    if np.any(d <= 0.0) or np.any(v <= 0.0):
        raise ConstraintError("power-law fit needs strictly positive distances and values")
    if len(np.unique(d)) != len(d):
        raise ConstraintError("power-law fit distances must be distinct")
    slope, _ = np.polyfit(np.log(d), np.log(v), 1)
    return float(slope)
