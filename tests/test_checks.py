"""The checks module: row statuses, the field invariant, require, and the
angle rule, on planted values."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

import jetstream as js
from jetstream import errors
from jetstream.checks import Check, angle_check, check, field_checks, require

C_L, C_E = 0.3, 0.8


def _consts(admissible=True):
    return SimpleNamespace(c_l=C_L, c_e=C_E, admissible=admissible)


def _field(n_phi=8, n_psi=6):
    """Monotone in both coordinates, steeper along phi, inside [c_l, c_e]
    with the maximum exactly c_e."""
    i = np.arange(n_phi + 1)[:, None]
    j = np.arange(n_psi + 1)[None, :]
    frac = (2.0 * i + j) / (2.0 * n_phi + n_psi)
    return SimpleNamespace(q=C_L + 0.5 * (C_E - C_L) + 0.5 * (C_E - C_L) * frac)


def _failed(rows):
    return [r.name for r in rows if r.status == "FAIL"]


def test_check_status():
    assert Check("x", None, None).status == "SKIPPED"
    assert not Check("x", None, None).passed
    assert check("x", math.nan, 1.0).status == "FAIL"
    assert check("x", 1.0, 1.0).status == "PASS"
    assert check("x", 1.0, 1.0).passed
    assert check("x", np.float64(2.0), 1).status == "FAIL"
    assert type(check("x", np.float64(2.0), 1).tolerance) is float


def test_field_checks_pass_on_a_monotone_field():
    rows = field_checks(_field(), _consts())
    assert [r.name for r in rows] == [
        "field_bounds_lower",
        "field_bounds_upper",
        "field_monotone_phi",
        "field_monotone_psi",
    ]
    assert all(r.passed for r in rows)
    assert rows[1].measured == 0.0


def test_swapped_pair_fails_both_monotone_rows():
    field = _field()
    q = field.q
    q[4, 3], q[5, 3] = q[5, 3], q[4, 3]
    assert _failed(field_checks(field, _consts())) == [
        "field_monotone_phi",
        "field_monotone_psi",
    ]


def test_upper_bound_is_checked_to_1e_10():
    field = _field()
    field.q[-1, -1] = C_E + 5e-10
    rows = {r.name: r for r in field_checks(field, _consts())}
    upper = rows["field_bounds_upper"]
    assert upper.status == "FAIL"
    # A 1e-9 allowance would have let this node through.
    assert upper.measured <= 1e-9
    assert _failed(rows.values()) == ["field_bounds_upper"]


def test_lower_bound_on_every_node_and_skipped_when_not_admissible():
    field = _field()
    field.q[0, 0] = C_L - 1e-5  # a boundary node, and still monotone
    assert _failed(field_checks(field, _consts())) == ["field_bounds_lower"]
    rows = field_checks(field, _consts(admissible=False))
    assert rows[0].name == "field_bounds_lower"
    assert rows[0].status == "SKIPPED"
    assert not _failed(rows)


def test_require_names_the_first_failed_row():
    rows = [
        Check("skipped", None, None),
        check("fine", 0.0, 1.0),
        check("first_bad", 2.0, 1.0),
        check("second_bad", 3.0, 1.0),
    ]
    with pytest.raises(errors.ConstraintError, match="first_bad") as info:
        require(rows)
    assert "second_bad" not in str(info.value)
    require(rows[:2])


def test_angle_check_at_the_10x_boundary():
    assert angle_check(2.5, 0.25).passed
    assert angle_check(np.nextafter(2.5, 3.0), 0.25).status == "FAIL"
    assert angle_check(math.nan, 0.25).status == "FAIL"
    assert angle_check(0.0, 0.25).name == "theta_consistency"


def test_solve_fixed_requires_the_field_checks(gas, cfg, consts, opts64, monkeypatch):
    from jetstream import fixedbvp

    def planted(field, consts):
        return [check("field_bounds_upper", 5e-10, 1e-10)]

    monkeypatch.setattr(fixedbvp, "field_checks", planted)
    with pytest.raises(errors.ConstraintError, match="field_bounds_upper"):
        js.solve_fixed(consts.zeta_hat, consts.zeta_hat, cfg, gas, consts, opts64)
