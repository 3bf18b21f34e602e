"""Numerical kernels: root finding, quadrature, banded solves, power fits."""

from unittest import mock

import numpy as np
import pytest

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


def _random_banded(rng, n, l, u):
    ab = np.zeros((l + u + 1, n))
    for d in range(-l, u + 1):
        row = u - d
        vals = rng.uniform(-1.0, 1.0, n)
        ab[row, max(d, 0) : n + min(d, 0)] = vals[: n - abs(d)]
    # diagonally dominate to guarantee solvability
    ab[u, :] += 4.0
    return numerics.BandedSystem(n, l, u, ab, rng.uniform(-1.0, 1.0, n))


def test_solve_banded_matches_dense():
    rng = np.random.default_rng(7)
    sys = _random_banded(rng, 40, 3, 2)
    x = numerics.solve_banded(sys)
    assert np.max(np.abs(numerics.banded_matvec(sys, x) - sys.rhs)) < 1e-12


def test_solve_banded_singular_raises():
    n = 5
    ab = np.zeros((3, n))  # tridiagonal all-zero matrix
    sys = numerics.BandedSystem(n, 1, 1, ab, np.ones(n))
    with pytest.raises(errors.SingularSystemError):
        numerics.solve_banded(sys)


def test_solve_banded_two_columns_match_single_columns():
    rng = np.random.default_rng(5)
    sys = _random_banded(rng, 60, 4, 3)
    b0, b1 = sys.rhs.copy(), rng.uniform(-1.0, 1.0, sys.n)
    singles = []
    for b in (b0, b1):
        sys.rhs = b
        singles.append(numerics.solve_banded(sys))
    sys.rhs = np.column_stack([b0, b1])
    both = numerics.solve_banded(sys)
    assert both.shape == (sys.n, 2)
    for col, x in enumerate(singles):
        assert np.max(np.abs(both[:, col] - x)) <= 1e-14 * np.max(np.abs(x))
    assert np.max(np.abs(numerics.banded_matvec(sys, both) - sys.rhs)) < 1e-12


def test_solve_banded_rejects_a_corrupted_column():
    # The residual check runs per column: a wrong second column is caught
    # even though the first one is exact.
    rng = np.random.default_rng(9)
    sys = _random_banded(rng, 40, 3, 2)
    sys.rhs = np.column_stack([sys.rhs, rng.uniform(-1.0, 1.0, sys.n)])
    lapack = numerics.scipy.linalg.solve_banded

    def corrupted(*args, **kwargs):
        x = lapack(*args, **kwargs)
        x[7, 1] += 1e-6
        return x

    with mock.patch.object(numerics.scipy.linalg, "solve_banded", corrupted):
        with pytest.raises(errors.SingularSystemError, match="column 1"):
            numerics.solve_banded(sys)


def test_fit_power_exponent_recovers_planted_law():
    d = 2.0 ** -np.arange(4, 10)
    samples = list(zip(d, 3.7 * d**0.5))
    p = numerics.fit_power_exponent(samples)
    assert abs(p - 0.5) < 1e-12


def test_fit_power_exponent_needs_enough_samples():
    with pytest.raises(errors.ConstraintError):
        numerics.fit_power_exponent([(0.1, 0.3), (0.05, 0.2)])
