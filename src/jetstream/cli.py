"""Configuration-driven command line for the jet solver.

Subcommands: solve-fixed, solve-free, classify, sweep, physmap, verify.
All physics comes from a YAML config file; a handful of flags (--zeta, --xi,
--radius, --n, --out) override per run.  Config keys are read by their
parsers in ``_SCHEMA``, and the number flags by the same ``_as_float``.
Outputs are deterministic: identical configs give byte-identical CSV/summary
files, floats are written in shortest round-trip form, and wall-clock
timings go to stderr only.

Exit codes: 0 success (including classification verdicts), 1 verification
failures, 2 configuration or usage errors (a non-finite number, an output
directory that cannot be created), 3 constraint violations, 4 numerical
failures (nonconvergence, singular systems, fold-over), 5 nonexistence of a
flow for the requested geometry.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import math
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import yaml

from .checks import Check, angle_check, check, field_checks
from .errors import (
    ConfigError,
    ConstraintError,
    FoldOverError,
    LongNozzleError,
    NonconvergenceError,
    ShortNozzleError,
    SingularSystemError,
)
from .fixedbvp import (
    SolverOptions,
    SpeedField,
    corner_exponent,
    interp_onto,
    solve_fixed,
)
from .freebnd import (
    FreeSolution,
    Nonexistence,
    classify_radius,
    inlet_defect,
    match_R,
    solve_outlet,
    sweep_zeta,
)
from .gasdyn import (
    DerivedConstants,
    FlowConfig,
    GasModel,
    derive_constants,
    flux_A,
    flux_A_inverse,
    mass_flux,
    mass_flux_inverse,
)
from .physmap import geometry_checks, reconstruct, recover_theta
from .symmetric import SymmetricSolution

_EXIT_OK = 0
_EXIT_VERIFY = 1
_EXIT_CONFIG = 2
_EXIT_CONSTRAINT = 3
_EXIT_NUMERICAL = 4
_EXIT_NONEXISTENCE = 5


@dataclass(frozen=True)
class RunConfig:
    """Validated contents of a config file."""

    gamma: float
    flow: FlowConfig
    R: float | None
    options: SolverOptions
    out_dir: str


# ---------------------------------------------------------------------------
# Config loading.


def _as_float(value, path):
    """A config number as a float; nan and +-inf (YAML's ``.inf``, or a
    number such as ``1e400`` that overflows) are config errors."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ConfigError(f"{path} must be a number, got {value!r}")
    try:
        out = float(value)
    except (ValueError, OverflowError):
        raise ConfigError(f"{path} must be a number, got {value!r}") from None
    if not math.isfinite(out):
        raise ConfigError(f"{path} must be a finite number, got {value!r}")
    return out


def _as_int(value, path):
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            return int(value, 10)
        except ValueError:
            pass
    raise ConfigError(f"{path} must be an integer, got {value!r}")


def _as_str(value, path):
    if not isinstance(value, str):
        raise ConfigError(f"{path} must be a string")
    return value


#: The parser of each key ``section.key``; a key not named here is refused.
_SCHEMA = {
    "gas": {"gamma": _as_float},
    "flow": dict.fromkeys(("R0", "vartheta", "m", "c_e", "P_e", "R"), _as_float),
    "solver": dict.fromkeys(("n_phi", "n_psi"), _as_int),
    "outputs": {"directory": _as_str},
}
_REQUIRED = ("gas.gamma", "flow.R0", "flow.vartheta", "flow.m")


def load_config(path: str) -> RunConfig:
    """Parse and validate a YAML config file into a RunConfig.

    Unknown sections or keys are rejected with their dotted path; numeric
    strings are accepted (YAML reads some scientific-notation literals as
    strings) and parsed without locale dependence."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from None
    except yaml.YAMLError as err:
        raise ConfigError(f"malformed config file {path}: {err}") from None
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping of sections")
    values = {section: {} for section in _SCHEMA}
    for section, content in data.items():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section '{section}'")
        if not isinstance(content, (dict, type(None))):
            raise ConfigError(f"config section '{section}' must be a mapping")
        for key, value in (content or {}).items():
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown config key '{section}.{key}'")
            values[section][key] = _SCHEMA[section][key](value, f"{section}.{key}")
    for dotted in _REQUIRED:
        section, _, key = dotted.partition(".")
        if key not in values[section]:
            raise ConfigError(f"missing required key '{dotted}'")

    # A key the config leaves out keeps its default: no radius, the
    # SolverOptions cell counts, the directory "out".
    R = values["flow"].pop("R", None)
    return RunConfig(
        gamma=values["gas"]["gamma"],
        flow=FlowConfig(**values["flow"]),
        R=R,
        options=SolverOptions(**values["solver"]),
        out_dir=values["outputs"].get("directory", "out"),
    )


def _number_flag(text: str) -> float:
    """A --zeta, --xi or --radius value, read by the config-number rule."""
    try:
        return _as_float(text, "value")
    except ConfigError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


# ---------------------------------------------------------------------------
# Serialization.


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _write_csv(path: Path, header: list[str], rows) -> None:
    # csv writes a Python float as its repr, as _fmt does: the shortest
    # string that reads back to the same float.  sweep.csv goes through it
    # for its free-text message column, which may need quoting.
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# The node and curve tables hold only floats.  A float's repr holds no
# comma, quote or line break, so csv would quote nothing: joining the reprs
# with commas writes its bytes without its per-cell work, and a coordinate
# is formatted once per grid line rather than once per node.


def _lines(*columns) -> str:
    """One comma-joined line per row of ``columns`` (iterables of cells)."""
    return "".join([",".join(row) + "\n" for row in zip(*columns)])


def _reprs(values: np.ndarray):
    return map(repr, values.tolist())


def _write_float_csv(path: Path, header: list[str], blocks) -> None:
    """The header, then each block of ``_lines`` in turn."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for block in blocks:
            fh.write(block)


def _node_lines(grid, *values: np.ndarray):
    """Blocks of rows (phi, psi, the given nodal values), one per phi
    column in phi-major order, so no text of the whole table is built."""
    psi = list(_reprs(grid.psi_nodes))
    for phi, *column in zip(grid.phi_nodes.tolist(), *values):
        yield _lines(itertools.repeat(repr(phi)), psi, *map(_reprs, column))


def _write_field_csv(path: Path, field: SpeedField, theta: np.ndarray) -> None:
    _write_float_csv(
        path,
        ["phi[-]", "psi[-]", "q[-]", "Q[-]", "theta[rad]"],
        _node_lines(field.grid, field.q, field.Q, theta),
    )


def _write_curve_csv(path: Path, curve: np.ndarray) -> None:
    """An (n, 2) curve of (x, y) samples, one row each."""
    _write_float_csv(path, ["x[len]", "y[len]"], [_lines(*map(_reprs, curve.T))])


def _emit(path: Path, lines: list[str], timings: dict) -> None:
    """Write ``lines`` to ``path`` and to stdout, and the wall times to
    stderr only, keeping the written outputs byte-stable."""
    text = "".join(f"{line}\n" for line in lines)
    path.write_text(text, encoding="utf-8", newline="")
    print(text, end="")
    for key, seconds in timings.items():
        print(f"[time] {key}: {seconds:.3f}s", file=sys.stderr)


def _emit_summary(summary: dict, timings: dict, out_dir: Path) -> None:
    """summary.kv and stdout get ``summary`` in insertion order."""
    lines = [f"{key}={_fmt(value)}" for key, value in summary.items()]
    _emit(out_dir / "summary.kv", lines, timings)


def _base_summary(command: str, rc: RunConfig, consts: DerivedConstants) -> dict:
    return {
        "command": command,
        "gamma": rc.gamma,
        "R0": rc.flow.R0,
        "vartheta": rc.flow.vartheta,
        "m": rc.flow.m,
        "c_e": consts.c_e,
        "c_m": consts.c_m,
        "c_l": consts.c_l,
        "zeta_hat": consts.zeta_hat,
        "R_hat": consts.R_hat,
        "zeta_cap": consts.zeta_cap,
        "m_window_lo": consts.m_window[0],
        "m_window_hi": consts.m_window[1],
        "admissible": consts.admissible,
    }


def _field_stats(field: SpeedField) -> dict:
    return {
        "n_phi": field.grid.n_phi,
        "n_psi": field.grid.n_psi,
        "residual_norm": field.residual_norm,
        "newton_iters": field.newton_iters,
        "back_solves": field.back_solves,
        "q_min": float(field.q.min()),
        "q_max": float(field.q.max()),
    }


def _sym_oracle_error(
    field: SpeedField, gas: GasModel, cfg: FlowConfig, consts: DerivedConstants
) -> float:
    sym = SymmetricSolution(gas, cfg, consts)
    qhat = np.asarray(sym.q_hat(field.grid.phi_nodes))
    return float(np.max(np.abs(field.q - qhat[:, None])))


def _no_solution(
    summary: dict, timings: dict, out: Path, reason: str, detail: str, **values
) -> int:
    """Finish a command that found no flow: summary.kv gets status, reason,
    ``values`` and detail, and the command exits 5."""
    summary.update(status="no-solution", reason=reason, **values, detail=detail)
    _emit_summary(summary, timings, out)
    return _EXIT_NONEXISTENCE


def _setup(args) -> tuple[RunConfig, Path, GasModel, DerivedConstants]:
    """The opening every command shares: the config, with --radius standing
    in for flow.R; the output directory, created (--out overrides
    outputs.directory); the gas model and the derived constants."""
    rc = load_config(args.config)
    if getattr(args, "radius", None) is not None:
        rc = replace(rc, R=args.radius)
    out = Path(args.out or rc.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"cannot create output directory {out}: {err}") from None
    gas = GasModel(rc.gamma)
    return rc, out, gas, derive_constants(gas, rc.flow)


# ---------------------------------------------------------------------------
# Commands.


def cmd_solve_fixed(args) -> int:
    rc, out, gas, consts = _setup(args)
    zeta = args.zeta if args.zeta is not None else consts.zeta_hat
    xi = args.xi if args.xi is not None else zeta
    t0 = time.perf_counter()
    field = solve_fixed(zeta, xi, rc.flow, gas, consts, rc.options)
    timings = {"solve": time.perf_counter() - t0}
    angles = recover_theta(field, gas, rc.flow)
    summary = _base_summary("solve-fixed", rc, consts)
    summary.update(
        zeta=zeta,
        xi=xi,
        **_field_stats(field),
        inlet_defect=inlet_defect(field, gas, rc.flow),
        theta_discrepancy=angles.discrepancy,
        theta_estimate=angles.estimate,
    )
    if abs(zeta - consts.zeta_hat) <= 1e-12 and abs(xi - zeta) <= 1e-12:
        summary["oracle_max_error"] = _sym_oracle_error(field, gas, rc.flow, consts)
    _write_field_csv(out / "field.csv", field, angles.theta)
    _emit_summary(summary, timings, out)
    return _EXIT_OK


def cmd_solve_free(args) -> int:
    rc, out, gas, consts = _setup(args)
    zeta = args.zeta if args.zeta is not None else consts.zeta_hat
    summary = _base_summary("solve-free", rc, consts)
    summary["zeta"] = zeta
    t0 = time.perf_counter()
    sol = solve_outlet(zeta, rc.flow, gas, consts, rc.options)
    timings = {"solve": time.perf_counter() - t0}
    if isinstance(sol, Nonexistence):
        return _no_solution(summary, timings, out, sol.reason, sol.detail, defect=sol.defect)
    angles = recover_theta(sol.field, gas, rc.flow)
    summary.update(
        status="ok",
        xi=sol.xi,
        inlet_defect=sol.inlet_defect,
        wall_length=sol.wall_length,
        r_equiv=sol.r_equiv,
        **_field_stats(sol.field),
        theta_discrepancy=angles.discrepancy,
        theta_estimate=angles.estimate,
    )
    if abs(zeta - consts.zeta_hat) <= 1e-12:
        summary["oracle_max_error"] = _sym_oracle_error(sol.field, gas, rc.flow, consts)
    _write_field_csv(out / "field.csv", sol.field, angles.theta)
    _emit_summary(summary, timings, out)
    return _EXIT_OK


def cmd_classify(args) -> int:
    rc, out, gas, consts = _setup(args)
    if rc.R is None:
        raise ConfigError("classify needs a radius: pass --radius or set flow.R")
    t0 = time.perf_counter()
    result = classify_radius(rc.R, rc.flow, gas, consts, rc.options)
    timings = {"classify": time.perf_counter() - t0}
    summary = _base_summary("classify", rc, consts)
    summary.update(
        radius=rc.R,
        verdict=result.verdict,
        r_hat=result.r_hat,
        r_star=result.r_star,
        zeta_star_probes=result.zeta_star_probes,
    )
    if result.verdict == "EXISTS":
        summary.update(zeta=result.zeta, xi=result.xi, wall_length=result.wall_length)
    _emit_summary(summary, timings, out)
    return _EXIT_OK


def cmd_sweep(args) -> int:
    rc, out, gas, consts = _setup(args)
    t0 = time.perf_counter()
    rows = sweep_zeta(args.n, rc.flow, gas, consts, rc.options)
    timings = {"sweep": time.perf_counter() - t0}
    _write_csv(
        out / "sweep.csv",
        ["zeta[-]", "xi[-]", "L[len]", "R_equiv[len]", "status", "message"],
        ((r.zeta, r.xi, r.wall_length, r.r_equiv, r.status, r.message) for r in rows),
    )
    statuses = [r.status for r in rows]
    xs = [r.xi for r in rows if r.status == "ok"]
    summary = _base_summary("sweep", rc, consts)
    summary.update(
        rows=len(rows),
        n_ok=statuses.count("ok"),
        n_no_solution=statuses.count("no-solution"),
        n_error=statuses.count("error"),
        xi_strictly_decreasing=all(b < a for a, b in zip(xs, xs[1:])),
    )
    _emit_summary(summary, timings, out)
    return _EXIT_OK


def cmd_physmap(args) -> int:
    rc, out, gas, consts = _setup(args)
    summary = _base_summary("physmap", rc, consts)
    timings = {}
    t0 = time.perf_counter()
    if rc.R is not None:
        summary["radius"] = rc.R
        try:
            sol = match_R(rc.R, rc.flow, gas, consts, rc.options)
        except (LongNozzleError, ShortNozzleError) as err:
            timings["solve"] = time.perf_counter() - t0
            # The reason is classify's verdict for this radius.
            short = isinstance(err, ShortNozzleError)
            reason = "NO_SOLUTION_SHORT" if short else "NO_SOLUTION_LONG"
            return _no_solution(
                summary, timings, out, reason, str(err), r_hat=err.r_hat, r_star=err.r_star
            )
    else:
        zeta = args.zeta if args.zeta is not None else consts.zeta_hat
        sol = solve_outlet(zeta, rc.flow, gas, consts, rc.options)
        if isinstance(sol, Nonexistence):
            summary["zeta"] = zeta
            timings["solve"] = time.perf_counter() - t0
            return _no_solution(summary, timings, out, sol.reason, sol.detail, defect=sol.defect)
    timings["solve"] = time.perf_counter() - t0
    t1 = time.perf_counter()
    angles = recover_theta(sol.field, gas, rc.flow)
    phys = reconstruct(sol.field, angles, rc.flow, gas)
    timings["reconstruct"] = time.perf_counter() - t1
    checks = geometry_checks(phys, angles, sol.field, gas, rc.flow, R=rc.R)
    summary.update(
        status="ok",
        zeta=sol.zeta,
        xi=sol.xi,
        wall_length=sol.wall_length,
        r_equiv=sol.r_equiv,
        **_field_stats(sol.field),
        theta_discrepancy=angles.discrepancy,
        theta_estimate=angles.estimate,
        mass_flux_out=phys.mass_flux_out,
        geometry_checks=len(checks),
        geometry_failed=sum(1 for c in checks if not c.passed),
    )
    summary.update({f"geometry.{c.name}": c.status for c in checks})
    _write_field_csv(out / "field.csv", sol.field, angles.theta)
    coords = _node_lines(sol.field.grid, phys.x, phys.y)
    _write_float_csv(out / "coords.csv", ["phi[-]", "psi[-]", "x[len]", "y[len]"], coords)
    curves = (phys.inlet_curve, phys.wall_curve, phys.free_streamline, phys.outlet_curve)
    for name, curve in zip(("inlet", "wall", "free", "outlet"), curves):
        _write_curve_csv(out / f"curves_{name}.csv", curve)
    _emit_summary(summary, timings, out)
    return _EXIT_OK


# ---------------------------------------------------------------------------
# Verification battery.


def _verify_battery(
    rc: RunConfig, gas: GasModel, consts: DerivedConstants, inject: str
) -> list[Check]:
    rows: list[Check] = []
    cfg = rc.flow
    opts = rc.options
    rng = np.random.default_rng(20260818)

    # Gas-model round trips through the exact quadrature paths.
    qs = rng.uniform(0.05 * gas.c_star, 0.999 * gas.c_star, size=8)
    err = max(abs(flux_A_inverse(gas, flux_A(gas, q)) - q) for q in qs)
    rows.append(check("gas_A_roundtrip", err, 1e-10))
    qs2 = rng.uniform(0.05 * gas.c_star, 0.95 * gas.c_star, size=8)
    err = max(abs(mass_flux_inverse(gas, mass_flux(gas, q)) - q) for q in qs2)
    rows.append(check("gas_j_roundtrip", err, 1e-10))
    grid_q = np.linspace(1e-3 * gas.c_star, (1.0 - 1e-9) * gas.c_star, 2001)
    rows.append(check("flux_A_monotone", -float(np.diff(gas.fast_A(grid_q)).min()), 0.0))
    rows.append(check("flux_B_monotone", -float(np.diff(gas.fast_B(grid_q)).min()), 0.0))

    # Scalar identities of the derived constants.
    a_ce = flux_A(gas, consts.c_e)
    ident = float(gas.rho(consts.c_l)) * (a_ce - flux_A(gas, consts.c_l))
    rows.append(check("c_l_identity", abs(ident - 1.0), 1e-10))
    ident = cfg.m / (consts.c_m * float(gas.rho(consts.c_m)))
    rows.append(check("c_m_identity", abs(ident - cfg.R0 * cfg.vartheta), 1e-10))

    # Symmetric oracle.
    sym = SymmetricSolution(gas, cfg, consts)
    rows.append(
        check("sym_wall_length", abs(sym.sym_wall_length() - (cfg.R0 - consts.R_hat)), 1e-8)
    )
    sym_field = solve_fixed(consts.zeta_hat, consts.zeta_hat, cfg, gas, consts, opts)
    rows.append(
        check("sym_field_oracle", _sym_oracle_error(sym_field, gas, cfg, consts), 1e-7)
    )
    sym_sol = solve_outlet(consts.zeta_hat, cfg, gas, consts, opts)
    if isinstance(sym_sol, FreeSolution):
        h_phi = consts.zeta_hat / opts.n_phi
        rows.append(
            check("sym_outlet_shoot", abs(sym_sol.xi - consts.zeta_hat), 2.0 * h_phi)
        )
    else:
        rows.append(check("sym_outlet_shoot", math.inf, 0.0))

    # Defect monotonicity in xi and the two-xi comparison ordering.
    zeta_probe = 0.6 * consts.zeta_hat
    cap = consts.zeta_cap
    xis = np.linspace(zeta_probe + 0.05 * (cap - zeta_probe), cap - 0.05 * (cap - zeta_probe), 5)
    fields = [solve_fixed(zeta_probe, float(x), cfg, gas, consts, opts) for x in xis]
    defects = [inlet_defect(f, gas, cfg) for f in fields]
    rows.append(check("defect_monotone", -float(np.diff(defects).min()), 0.0))
    f_lo, f_hi = fields[1], fields[3]
    q_hi_interp = interp_onto(f_lo.grid, f_hi.grid, f_hi.q)
    rows.append(
        check(
            "comparison_xi",
            float((q_hi_interp - f_lo.q).max()),
            1e-8
            + 50.0 * (np.max(np.diff(f_lo.grid.phi_nodes)) ** 2 + (cfg.m / opts.n_psi) ** 2),
        )
    )

    # Free solve at the probe zeta: bounds, monotonicity, corner, angles.
    sol = solve_outlet(zeta_probe, cfg, gas, consts, opts)
    if not isinstance(sol, FreeSolution):
        rows.append(check("free_solve_probe", math.inf, 0.0))
        return rows
    field = sol.field
    if inject == "monotone":
        qt = field.q.copy()
        i, j = field.grid.n_phi // 2, field.grid.n_psi // 2
        qt[i, j], qt[i + 1, j] = qt[i + 1, j], qt[i, j]
        field = replace(field, q=qt)
    rows += field_checks(field, consts)

    try:
        expo = corner_exponent(sol.field)
        rows.append(check("corner_exponent", abs(expo - 0.475), 0.075))
    except ConstraintError:
        rows.append(Check("corner_exponent", None, None))

    try:
        angles = recover_theta(field, gas, cfg)
    except NonconvergenceError as err:
        rows.append(check("theta_consistency", err.estimate or math.inf, 0.0))
        return rows
    if inject == "theta":
        theta = angles.theta.copy()
        theta[field.grid.zeta_index // 2, -1] += 0.1
        disc = float(np.max(np.abs(theta - angles.theta_cross)))
        angles = replace(angles, theta=theta, discrepancy=disc)
    rows.append(angle_check(angles.discrepancy, angles.estimate))

    try:
        phys = reconstruct(field, angles, cfg, gas)
    except FoldOverError:
        rows.append(check("geom_fold_over", math.inf, 0.0))
        return rows
    # The probe flow is matched to no radius, so the wall endpoint radius
    # is left to ``physmap --radius``.
    rows += [
        replace(c, name="geom_" + c.name)
        for c in geometry_checks(phys, angles, field, gas, cfg)
    ]
    return rows


def cmd_verify(args) -> int:
    rc, out, gas, consts = _setup(args)
    t0 = time.perf_counter()
    rows = _verify_battery(rc, gas, consts, args.inject)
    timings = {"verify": time.perf_counter() - t0}
    lines = []
    for c in rows:
        measured = "-" if c.measured is None else repr(float(c.measured))
        tolerance = "-" if c.tolerance is None else repr(float(c.tolerance))
        lines.append(f"{c.name} {c.status} {measured} {tolerance}")
    _emit(out / "verify.report", lines, timings)
    n_fail = sum(1 for c in rows if c.status == "FAIL")
    print(f"checks={len(rows)} failed={n_fail}")
    return _EXIT_VERIFY if n_fail else _EXIT_OK


# ---------------------------------------------------------------------------
# Entry point.


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jetstream",
        description=(
            "Subsonic jet flow from a convergent nozzle: potential-plane "
            "free-boundary solver, existence classification, and "
            "physical-plane reconstruction."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="path to YAML config file")
        p.add_argument("--out", help="output directory (overrides outputs.directory)")

    p = sub.add_parser("solve-fixed", help="solve the fixed-(zeta, xi) problem")
    common(p)
    p.add_argument("--zeta", type=_number_flag, help="detachment potential (default: symmetric)")
    p.add_argument("--xi", type=_number_flag, help="outlet potential (default: zeta)")
    p.set_defaults(func=cmd_solve_fixed)

    p = sub.add_parser("solve-free", help="solve with the outlet potential shot from mass flux")
    common(p)
    p.add_argument("--zeta", type=_number_flag, help="detachment potential (default: symmetric)")
    p.set_defaults(func=cmd_solve_free)

    p = sub.add_parser("classify", help="existence verdict for a nozzle radius")
    common(p)
    p.add_argument("--radius", type=_number_flag, help="nozzle radius R (default: flow.R)")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("sweep", help="tabulate the family over detachment abscissas")
    common(p)
    p.add_argument("--n", type=int, default=8, help="number of sweep points (default 8)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("physmap", help="reconstruct the physical-plane flow and curves")
    common(p)
    p.add_argument("--zeta", type=_number_flag, help="detachment potential (default: symmetric)")
    p.add_argument(
        "--radius", type=_number_flag, help="match this nozzle radius instead of --zeta"
    )
    p.set_defaults(func=cmd_physmap)

    p = sub.add_parser("verify", help="run the invariant suite and write a report")
    common(p)
    p.add_argument(
        "--inject",
        choices=["none", "theta", "monotone"],
        default="none",
        help="fault injection mode for exercising the report",
    )
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return _EXIT_CONFIG
    except ConstraintError as err:
        print(f"constraint violation: {err}", file=sys.stderr)
        return _EXIT_CONSTRAINT
    except (NonconvergenceError, SingularSystemError, FoldOverError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return _EXIT_NUMERICAL
    except (LongNozzleError, ShortNozzleError) as err:
        print(f"no solution: {err}", file=sys.stderr)
        return _EXIT_NONEXISTENCE


if __name__ == "__main__":
    sys.exit(main())
