"""Shared fixtures: the desk configuration and cached expensive solves.

Heavy solves (free-boundary shoots, the fine corner grid, sweeps) are
session-scoped so each runs once; every converged field is also appended
to a registry that the bound/monotonicity and angle-consistency tests
iterate over ("every converged run").

The tests' child interpreters (``python -m jetstream.cli``, ``python -c``)
import the same package as this process: its ``src`` directory is put on
their ``PYTHONPATH`` here, in front of any inherited entries.
"""

import os
from pathlib import Path

import numpy as np
import pytest

import jetstream as js
import oracle_data as od

os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(js.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")])
)


@pytest.fixture(scope="session")
def gas():
    return js.GasModel(od.GAMMA)


@pytest.fixture(scope="session")
def cfg():
    return js.FlowConfig(R0=od.R0, vartheta=od.VARTHETA, m=od.M_FLUX, c_e=od.C_E)


@pytest.fixture(scope="session")
def consts(gas, cfg):
    return js.derive_constants(gas, cfg)


@pytest.fixture(scope="session")
def opts64():
    return js.SolverOptions(n_phi=64, n_psi=32)


@pytest.fixture(scope="session")
def opts128():
    return js.SolverOptions(n_phi=128, n_psi=64)


@pytest.fixture(scope="session")
def converged_runs():
    """Registry of (label, SpeedField) filled by the solving fixtures."""
    return []


@pytest.fixture(scope="session")
def sym_free_runs(gas, cfg, consts, converged_runs):
    """Free-boundary solves at the symmetric detachment on a grid triplet."""
    out = {}
    for n in (64, 128, 256):
        opts = js.SolverOptions(n_phi=n, n_psi=n // 2)
        sol = js.solve_outlet(consts.zeta_hat, cfg, gas, consts, opts)
        assert isinstance(sol, js.FreeSolution)
        out[n] = sol
        converged_runs.append((f"sym-free-{n}", sol.field))
    return out


@pytest.fixture(scope="session")
def asym_free(gas, cfg, consts, opts128, converged_runs):
    """Free-boundary solve at zeta = 0.6 zeta_hat, 128x64 cells."""
    sol = js.solve_outlet(0.6 * consts.zeta_hat, cfg, gas, consts, opts128)
    assert isinstance(sol, js.FreeSolution)
    converged_runs.append(("asym-free-128", sol.field))
    return sol


@pytest.fixture(scope="session")
def asym_free_64(gas, cfg, consts, opts64, converged_runs):
    sol = js.solve_outlet(0.6 * consts.zeta_hat, cfg, gas, consts, opts64)
    assert isinstance(sol, js.FreeSolution)
    converged_runs.append(("asym-free-64", sol.field))
    return sol


@pytest.fixture(scope="session")
def corner_run(gas, cfg, consts, converged_runs):
    """The fine grid (513x129 nodes) free solve used for the corner fit."""
    opts = js.SolverOptions(n_phi=512, n_psi=128)
    sol = js.solve_outlet(0.6 * consts.zeta_hat, cfg, gas, consts, opts)
    assert isinstance(sol, js.FreeSolution)
    converged_runs.append(("corner-512", sol.field))
    return sol


@pytest.fixture(scope="session")
def xi_samples(gas, cfg, consts, opts64, converged_runs):
    """Five fixed-domain solves at zeta = 0.6 zeta_hat with increasing xi."""
    zeta = 0.6 * consts.zeta_hat
    width = consts.zeta_cap - zeta
    xis = np.linspace(zeta + 0.05 * width, consts.zeta_cap - 0.05 * width, 5)
    fields = []
    for x in xis:
        f = js.solve_fixed(zeta, float(x), cfg, gas, consts, opts64)
        fields.append(f)
        converged_runs.append((f"fixed-xi-{x:.4f}", f))
    return list(zip(xis, fields))
