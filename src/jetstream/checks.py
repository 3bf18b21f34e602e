"""Verdict rows and the rules that more than one module enforces.

Every verdict the package reports is a ``Check``: a named measurement held
against a tolerance, where a measurement of None means the check does not
apply (SKIPPED) and anything else passes iff ``measured <= tolerance``, so a
NaN measurement fails.  ``solve_fixed`` requires the field rows
(``require``); ``verify`` writes every row to its report; ``physmap`` writes
the geometry rows to ``summary.kv``.

Two invariants are encoded here and nowhere else:

- ``field_checks``: the speed bounds c_l <= q <= c_e and monotonicity in
  both coordinates, on every node of a solved field.  The lower bound only
  holds for admissible configurations and is SKIPPED otherwise.
- ``angle_check``: the two angle-integration paths of ``recover_theta``
  agree within 10x their a priori estimate.

The module is a leaf: it imports only numpy and ``errors`` and reads fields
and constants by attribute, so the solver modules can import it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConstraintError


@dataclass(frozen=True)
class Check:
    """One verdict row: a measurement and its tolerance (both None when
    the check does not apply)."""

    name: str
    measured: float | None
    tolerance: float | None

    @property
    def status(self) -> str:
        if self.measured is None:
            return "SKIPPED"
        return "PASS" if self.measured <= self.tolerance else "FAIL"

    @property
    def passed(self) -> bool:
        return self.status == "PASS"


def check(name: str, measured, tolerance) -> Check:
    """A Check with both numbers converted to float."""
    return Check(name, float(measured), float(tolerance))


def field_checks(field, consts) -> list[Check]:
    """The speed bounds and monotonicity of ``field.q`` against
    ``consts.c_l`` and ``consts.c_e``, measured on every node."""
    q = field.q
    if consts.admissible:
        lower = check("field_bounds_lower", consts.c_l - float(q.min()), 1e-6)
    else:
        lower = Check("field_bounds_lower", None, None)
    return [
        lower,
        check("field_bounds_upper", float(q.max()) - consts.c_e, 1e-10),
        check("field_monotone_phi", -float(np.diff(q, axis=0).min()), 1e-8),
        check("field_monotone_psi", -float(np.diff(q, axis=1).min()), 1e-8),
    ]


def require(rows: list[Check]) -> None:
    """Raise ConstraintError naming the first failed row."""
    for row in rows:
        if row.status == "FAIL":
            raise ConstraintError(
                f"check {row.name} failed: measured {row.measured:.3e}, "
                f"tolerance {row.tolerance:.3e}"
            )


def angle_check(discrepancy: float, estimate: float) -> Check:
    """The two angle-integration paths agree within 10x their estimate."""
    return check("theta_consistency", discrepancy, 10.0 * estimate)
