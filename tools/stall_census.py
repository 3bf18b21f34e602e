#!/usr/bin/env python3
"""Census of free solves at very small detachment abscissae, or of radius
matches.

Draws random configurations near the desk one and solves the free problem
(``solve_outlet``) at zeta between 1e-3 and 4e-3 zeta_hat, the regime where
Newton once stalled just above its roundoff floor.  Per case, from numpy
``default_rng(2026)``, in this order:

    c_e      = 0.8 U(0.9, 1.1)
    vartheta = pi/6 U(0.85, 1.15)
    m        = at U(0.05, 0.95) of the admissible mass-flux window, the
               window taken from the probe configuration m = 0.5 m_hi
    zeta     = U(1e-3, 4e-3) zeta_hat

with gamma 1.4 and R0 1; the grids cycle 64x32, 128x32, 128x64.  Prints the
number of flows, of ``Nonexistence`` verdicts (by reason) and of each
error, its message with the numbers masked, and the factorizations
(``numerics.solve_banded`` calls) and back-solves (``numerics.back_solve``
calls) made over all cases.

With ``--match`` each case instead runs ``find_zeta_star`` on the drawn
configuration and matches a radius R = R_hat + U(0, 1) (r_star - R_hat),
the fraction drawn after zeta (which goes unused), with ``match_R``.  It
prints the count of each verdict (EXISTS, or the nozzle error's
NO_SOLUTION_LONG / NO_SOLUTION_SHORT) and of each other error, the largest
|wall_length - (R0 - R)| of the matched flows, and the same totals.  Run
from the repository root:

    PYTHONPATH=src python tools/stall_census.py [--cases 120] [--match] [--verbose]

It is a report, not a test: 120 cases take ~10 s on two cores, ~80 s with
``--match``.  ``--verbose`` adds one line per case with its full-precision
inputs and outcome.
"""

from __future__ import annotations

import argparse
import math
import re
from collections import Counter

import numpy as np

import jetstream as js
from jetstream import numerics
from jetstream.errors import JetstreamError, LongNozzleError, ShortNozzleError

GRIDS = ((64, 32), (128, 32), (128, 64))
_NUMBER = re.compile(r"[-+]?\d+(\.\d+)?(e[-+]?\d+)?")


def draw_case(rng, gas):
    """(cfg, consts, zeta) of the next census case."""
    c_e = 0.8 * rng.uniform(0.9, 1.1)
    vartheta = math.pi / 6.0 * rng.uniform(0.85, 1.15)
    m_frac = rng.uniform(0.05, 0.95)
    z_frac = rng.uniform(1e-3, 4e-3)
    m_hi = vartheta * c_e * float(gas.rho(c_e))
    probe = js.FlowConfig(R0=1.0, vartheta=vartheta, m=0.5 * m_hi, c_e=c_e)
    lo, hi = js.derive_constants(gas, probe).m_window
    cfg = js.FlowConfig(R0=1.0, vartheta=vartheta, m=lo + m_frac * (hi - lo), c_e=c_e)
    consts = js.derive_constants(gas, cfg)
    return cfg, consts, z_frac * consts.zeta_hat


def solve_case(rng, gas, cfg, consts, zeta, opts):
    """(kind, outcome, detail) of the free solve at zeta."""
    sol = js.solve_outlet(zeta, cfg, gas, consts, opts)
    if isinstance(sol, js.Nonexistence):
        outcome = f"Nonexistence({sol.reason})"
        return "Nonexistence", outcome, outcome
    return "flow", "flow", f"flow xi={sol.xi!r} r_equiv={sol.r_equiv!r}"


def match_case(rng, gas, cfg, consts, zeta, opts, misses):
    """(kind, outcome, detail) of a radius match inside the window; appends
    the matched flow's |wall_length - (R0 - R)| to ``misses``."""
    frac = rng.uniform(0.0, 1.0)
    zs = js.find_zeta_star(cfg, gas, consts, opts)
    R = consts.R_hat + frac * (zs.at_star.r_equiv - consts.R_hat)
    try:
        sol = js.match_R(R, cfg, gas, consts, opts, zs=zs)
    except LongNozzleError:
        return "NO_SOLUTION_LONG", "NO_SOLUTION_LONG", f"R={R!r}: NO_SOLUTION_LONG"
    except ShortNozzleError:
        return "NO_SOLUTION_SHORT", "NO_SOLUTION_SHORT", f"R={R!r}: NO_SOLUTION_SHORT"
    misses.append(abs(sol.wall_length - (cfg.R0 - R)))
    return "EXISTS", "EXISTS", f"R={R!r}: EXISTS zeta={sol.zeta!r} xi={sol.xi!r}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cases", type=int, default=120, help="number of cases (default 120)")
    parser.add_argument("--match", action="store_true", help="match a radius per case")
    parser.add_argument("--verbose", action="store_true", help="print one line per case")
    args = parser.parse_args(argv)

    counts = {"solve_banded": 0, "back_solve": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    for key in counts:
        setattr(numerics, key, counted(key, getattr(numerics, key)))

    gas = js.GasModel(1.4)
    rng = np.random.default_rng(2026)
    misses = []
    if args.match:
        names = ("EXISTS", "NO_SOLUTION_LONG", "NO_SOLUTION_SHORT", "errors")
        run = lambda *case: match_case(*case, misses)
    else:
        names, run = ("flow", "Nonexistence", "errors"), solve_case
    kinds, outcomes = Counter(), Counter()
    for k in range(args.cases):
        cfg, consts, zeta = draw_case(rng, gas)
        n_phi, n_psi = GRIDS[k % len(GRIDS)]
        opts = js.SolverOptions(n_phi=n_phi, n_psi=n_psi)
        try:
            kind, outcome, detail = run(rng, gas, cfg, consts, zeta, opts)
        except JetstreamError as err:
            kind, outcome = "errors", f"{type(err).__name__}: {_NUMBER.sub('#', str(err))}"
            detail = str(err)
        kinds[kind] += 1
        outcomes[outcome] += 1
        if args.verbose:
            print(
                f"{k:4d} {n_phi}x{n_psi} c_e={cfg.c_e!r} vartheta={cfg.vartheta!r} "
                f"m={cfg.m!r} zeta={zeta!r}: {detail}"
            )
    totals = ", ".join(f"{kinds[kind]} {kind}" for kind in names)
    print(f"cases {args.cases}: {totals}")
    if args.match:
        print(f"largest |wall_length - (R0 - R)| {max(misses, default=0.0):.3e}")
    print(f"factorizations {counts['solve_banded']}, back-solves {counts['back_solve']}")
    for outcome, n in sorted(outcomes.items(), key=lambda kv: (-kv[1], kv[0])):
        print(f"{n:4d} {outcome}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
