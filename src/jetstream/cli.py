"""Configuration-driven command line for the jet solver.

Subcommands: solve-fixed, solve-free, classify, sweep, physmap, verify.
All physics comes from a YAML config file; a handful of flags (--zeta, --xi,
--radius, --n, --out) override per run.  Outputs are deterministic:
identical configs give byte-identical CSV/summary files, floats are written
in shortest round-trip form, and wall-clock timings go to stderr only.

Exit codes: 0 success (including classification verdicts), 1 verification
failures, 2 configuration errors, 3 constraint violations, 4 numerical
failures (nonconvergence, singular systems, fold-over), 5 nonexistence of a
flow for the requested geometry.
"""

from __future__ import annotations

import argparse
import csv
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


@dataclass
class RunSummary:
    """Flat key-value record of one command's numbers plus wall times.

    ``values`` is serialized to summary.kv in insertion order; ``timings``
    goes to stderr only, keeping the written outputs byte-stable."""

    values: dict
    timings: dict

    def set(self, key, value):
        self.values[key] = value

    def time(self, key, seconds):
        self.timings[key] = seconds


# ---------------------------------------------------------------------------
# Config loading.

_SCHEMA = {
    "gas": {"gamma": "float"},
    "flow": {
        "R0": "float",
        "vartheta": "float",
        "m": "float",
        "c_e": "float",
        "P_e": "float",
        "R": "float",
    },
    "solver": {"n_phi": "int", "n_psi": "int"},
    "outputs": {"directory": "str"},
}


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
    if isinstance(value, bool) or value is None:
        raise ConfigError(f"{path} must be an integer, got {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value, 10)
        except ValueError:
            raise ConfigError(f"{path} must be an integer, got {value!r}") from None
    raise ConfigError(f"{path} must be an integer, got {value!r}")


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
    for section, content in data.items():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section '{section}'")
        if content is None:
            continue
        if not isinstance(content, dict):
            raise ConfigError(f"config section '{section}' must be a mapping")
        for key in content:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown config key '{section}.{key}'")

    gas_sec = data.get("gas") or {}
    if "gamma" not in gas_sec:
        raise ConfigError("missing required key 'gas.gamma'")
    gamma = _as_float(gas_sec["gamma"], "gas.gamma")

    flow_sec = data.get("flow") or {}
    for req in ("R0", "vartheta", "m"):
        if req not in flow_sec:
            raise ConfigError(f"missing required key 'flow.{req}'")
    kwargs = {
        "R0": _as_float(flow_sec["R0"], "flow.R0"),
        "vartheta": _as_float(flow_sec["vartheta"], "flow.vartheta"),
        "m": _as_float(flow_sec["m"], "flow.m"),
    }
    if "c_e" in flow_sec:
        kwargs["c_e"] = _as_float(flow_sec["c_e"], "flow.c_e")
    if "P_e" in flow_sec:
        kwargs["P_e"] = _as_float(flow_sec["P_e"], "flow.P_e")
    flow = FlowConfig(**kwargs)
    R = _as_float(flow_sec["R"], "flow.R") if "R" in flow_sec else None

    # A cell count the config leaves out keeps its SolverOptions value.
    solver_sec = data.get("solver") or {}
    opts = SolverOptions(
        **{key: _as_int(value, f"solver.{key}") for key, value in solver_sec.items()}
    )

    out_sec = data.get("outputs") or {}
    directory = out_sec.get("directory", "out")
    if not isinstance(directory, str):
        raise ConfigError("outputs.directory must be a string")

    return RunConfig(
        gamma=gamma,
        flow=flow,
        R=R,
        options=opts,
        out_dir=directory,
    )


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
    # string that reads back to the same float.
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _node_rows(grid, *values: np.ndarray):
    """Rows (phi, psi, the given nodal values) phi-major, one phi column
    at a time, so no array or list of the whole table is built."""
    n_psi = len(grid.psi_nodes)
    for i, phi in enumerate(grid.phi_nodes):
        column = [np.full(n_psi, phi), grid.psi_nodes] + [v[i] for v in values]
        yield from np.column_stack(column).tolist()


def _write_field_csv(path: Path, field: SpeedField, theta: np.ndarray) -> None:
    _write_csv(
        path,
        ["phi[-]", "psi[-]", "q[-]", "Q[-]", "theta[rad]"],
        _node_rows(field.grid, field.q, field.Q, theta),
    )


def _write_coords_csv(path: Path, field: SpeedField, phys) -> None:
    _write_csv(
        path, ["phi[-]", "psi[-]", "x[len]", "y[len]"], _node_rows(field.grid, phys.x, phys.y)
    )


def _write_curve_csv(path: Path, curve: np.ndarray) -> None:
    _write_csv(path, ["x[len]", "y[len]"], curve.tolist())


def _write_summary(path: Path, summary: RunSummary) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for key, value in summary.values.items():
            fh.write(f"{key}={_fmt(value)}\n")


def _emit_summary(summary: RunSummary, out_dir: Path) -> None:
    _write_summary(out_dir / "summary.kv", summary)
    for key, value in summary.values.items():
        print(f"{key}={_fmt(value)}")
    for key, seconds in summary.timings.items():
        print(f"[time] {key}: {seconds:.3f}s", file=sys.stderr)


def _base_summary(command: str, rc: RunConfig, consts: DerivedConstants) -> RunSummary:
    s = RunSummary(values={}, timings={})
    s.set("command", command)
    s.set("gamma", rc.gamma)
    s.set("R0", rc.flow.R0)
    s.set("vartheta", rc.flow.vartheta)
    s.set("m", rc.flow.m)
    s.set("c_e", consts.c_e)
    s.set("c_m", consts.c_m)
    s.set("c_l", consts.c_l)
    s.set("zeta_hat", consts.zeta_hat)
    s.set("R_hat", consts.R_hat)
    s.set("zeta_cap", consts.zeta_cap)
    s.set("m_window_lo", consts.m_window[0])
    s.set("m_window_hi", consts.m_window[1])
    s.set("admissible", consts.admissible)
    return s


def _field_stats(summary: RunSummary, field: SpeedField) -> None:
    summary.set("n_phi", field.grid.n_phi)
    summary.set("n_psi", field.grid.n_psi)
    summary.set("residual_norm", field.residual_norm)
    summary.set("newton_iters", field.newton_iters)
    summary.set("back_solves", field.back_solves)
    summary.set("q_min", float(field.q.min()))
    summary.set("q_max", float(field.q.max()))


def _sym_oracle_error(
    field: SpeedField, gas: GasModel, cfg: FlowConfig, consts: DerivedConstants
) -> float:
    sym = SymmetricSolution(gas, cfg, consts)
    qhat = np.asarray(sym.q_hat(field.grid.phi_nodes))
    return float(np.max(np.abs(field.q - qhat[:, None])))


def _no_solution(summary: RunSummary, out: Path, reason: str, detail: str, **values) -> int:
    """Finish a command that found no flow: summary.kv gets status, reason,
    ``values`` and detail, and the command exits 5."""
    summary.set("status", "no-solution")
    summary.set("reason", reason)
    for key, value in values.items():
        summary.set(key, value)
    summary.set("detail", detail)
    _emit_summary(summary, out)
    return _EXIT_NONEXISTENCE


def _out_dir(rc: RunConfig, args) -> Path:
    out = Path(args.out) if getattr(args, "out", None) else Path(rc.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# Commands.


def cmd_solve_fixed(args) -> int:
    rc = load_config(args.config)
    out = _out_dir(rc, args)
    gas = GasModel(rc.gamma)
    consts = derive_constants(gas, rc.flow)
    zeta = args.zeta if args.zeta is not None else consts.zeta_hat
    xi = args.xi if args.xi is not None else zeta
    t0 = time.perf_counter()
    field = solve_fixed(zeta, xi, rc.flow, gas, consts, rc.options)
    t1 = time.perf_counter()
    angles = recover_theta(field, gas, rc.flow)
    summary = _base_summary("solve-fixed", rc, consts)
    summary.set("zeta", zeta)
    summary.set("xi", xi)
    _field_stats(summary, field)
    summary.set("inlet_defect", inlet_defect(field, gas, rc.flow))
    summary.set("theta_discrepancy", angles.discrepancy)
    summary.set("theta_estimate", angles.estimate)
    if abs(zeta - consts.zeta_hat) <= 1e-12 and abs(xi - zeta) <= 1e-12:
        summary.set("oracle_max_error", _sym_oracle_error(field, gas, rc.flow, consts))
    summary.time("solve", t1 - t0)
    _write_field_csv(out / "field.csv", field, angles.theta)
    _emit_summary(summary, out)
    return _EXIT_OK


def cmd_solve_free(args) -> int:
    rc = load_config(args.config)
    out = _out_dir(rc, args)
    gas = GasModel(rc.gamma)
    consts = derive_constants(gas, rc.flow)
    zeta = args.zeta if args.zeta is not None else consts.zeta_hat
    summary = _base_summary("solve-free", rc, consts)
    summary.set("zeta", zeta)
    t0 = time.perf_counter()
    sol = solve_outlet(zeta, rc.flow, gas, consts, rc.options)
    summary.time("solve", time.perf_counter() - t0)
    if isinstance(sol, Nonexistence):
        return _no_solution(summary, out, sol.reason, sol.detail, defect=sol.defect)
    summary.set("status", "ok")
    summary.set("xi", sol.xi)
    summary.set("inlet_defect", sol.inlet_defect)
    summary.set("wall_length", sol.wall_length)
    summary.set("r_equiv", sol.r_equiv)
    _field_stats(summary, sol.field)
    angles = recover_theta(sol.field, gas, rc.flow)
    summary.set("theta_discrepancy", angles.discrepancy)
    summary.set("theta_estimate", angles.estimate)
    if abs(zeta - consts.zeta_hat) <= 1e-12:
        summary.set(
            "oracle_max_error", _sym_oracle_error(sol.field, gas, rc.flow, consts)
        )
    _write_field_csv(out / "field.csv", sol.field, angles.theta)
    _emit_summary(summary, out)
    return _EXIT_OK


def cmd_classify(args) -> int:
    rc = load_config(args.config)
    out = _out_dir(rc, args)
    radius = args.radius if args.radius is not None else rc.R
    if radius is None:
        raise ConfigError("classify needs a radius: pass --radius or set flow.R")
    gas = GasModel(rc.gamma)
    consts = derive_constants(gas, rc.flow)
    t0 = time.perf_counter()
    result = classify_radius(radius, rc.flow, gas, consts, rc.options)
    summary = _base_summary("classify", rc, consts)
    summary.time("classify", time.perf_counter() - t0)
    summary.set("radius", radius)
    summary.set("verdict", result.verdict)
    summary.set("r_hat", result.r_hat)
    summary.set("r_star", result.r_star)
    if result.verdict == "EXISTS":
        summary.set("zeta", result.zeta)
        summary.set("xi", result.xi)
        summary.set("wall_length", result.wall_length)
    _emit_summary(summary, out)
    return _EXIT_OK


def cmd_sweep(args) -> int:
    rc = load_config(args.config)
    out = _out_dir(rc, args)
    gas = GasModel(rc.gamma)
    consts = derive_constants(gas, rc.flow)
    t0 = time.perf_counter()
    rows = sweep_zeta(args.n, rc.flow, gas, consts, rc.options)
    elapsed = time.perf_counter() - t0
    _write_csv(
        out / "sweep.csv",
        ["zeta[-]", "xi[-]", "L[len]", "R_equiv[len]", "status", "message"],
        ((r.zeta, r.xi, r.wall_length, r.r_equiv, r.status, r.message) for r in rows),
    )
    summary = _base_summary("sweep", rc, consts)
    summary.time("sweep", elapsed)
    summary.set("rows", len(rows))
    summary.set("n_ok", sum(1 for r in rows if r.status == "ok"))
    summary.set("n_no_solution", sum(1 for r in rows if r.status == "no-solution"))
    summary.set("n_error", sum(1 for r in rows if r.status == "error"))
    xs = [r.xi for r in rows if r.status == "ok"]
    summary.set("xi_strictly_decreasing", all(b < a for a, b in zip(xs, xs[1:])))
    _emit_summary(summary, out)
    return _EXIT_OK


def cmd_physmap(args) -> int:
    rc = load_config(args.config)
    out = _out_dir(rc, args)
    gas = GasModel(rc.gamma)
    consts = derive_constants(gas, rc.flow)
    summary = _base_summary("physmap", rc, consts)
    radius = args.radius if args.radius is not None else rc.R
    t0 = time.perf_counter()
    if radius is not None:
        summary.set("radius", radius)
        try:
            sol = match_R(radius, rc.flow, gas, consts, rc.options)
        except (LongNozzleError, ShortNozzleError) as err:
            summary.time("solve", time.perf_counter() - t0)
            # The reason is classify's verdict for this radius.
            short = isinstance(err, ShortNozzleError)
            reason = "NO_SOLUTION_SHORT" if short else "NO_SOLUTION_LONG"
            return _no_solution(summary, out, reason, str(err), r_hat=err.r_hat, r_star=err.r_star)
    else:
        zeta = args.zeta if args.zeta is not None else consts.zeta_hat
        sol = solve_outlet(zeta, rc.flow, gas, consts, rc.options)
        if isinstance(sol, Nonexistence):
            summary.set("zeta", zeta)
            summary.time("solve", time.perf_counter() - t0)
            return _no_solution(summary, out, sol.reason, sol.detail, defect=sol.defect)
    summary.time("solve", time.perf_counter() - t0)
    summary.set("status", "ok")
    summary.set("zeta", sol.zeta)
    summary.set("xi", sol.xi)
    summary.set("wall_length", sol.wall_length)
    summary.set("r_equiv", sol.r_equiv)
    _field_stats(summary, sol.field)
    t1 = time.perf_counter()
    angles = recover_theta(sol.field, gas, rc.flow)
    phys = reconstruct(sol.field, angles, rc.flow, gas)
    summary.time("reconstruct", time.perf_counter() - t1)
    summary.set("theta_discrepancy", angles.discrepancy)
    summary.set("theta_estimate", angles.estimate)
    summary.set("mass_flux_out", phys.mass_flux_out)
    checks = geometry_checks(phys, angles, sol.field, gas, rc.flow, R=radius)
    summary.set("geometry_checks", len(checks))
    summary.set("geometry_failed", sum(1 for c in checks if not c.passed))
    for c in checks:
        summary.set(f"geometry.{c.name}", c.status)
    _write_field_csv(out / "field.csv", sol.field, angles.theta)
    _write_coords_csv(out / "coords.csv", sol.field, phys)
    _write_curve_csv(out / "curves_inlet.csv", phys.inlet_curve)
    _write_curve_csv(out / "curves_wall.csv", phys.wall_curve)
    _write_curve_csv(out / "curves_free.csv", phys.free_streamline)
    _write_curve_csv(out / "curves_outlet.csv", phys.outlet_curve)
    _emit_summary(summary, out)
    return _EXIT_OK


# ---------------------------------------------------------------------------
# Verification battery.


def _verify_battery(rc: RunConfig, inject: str) -> list[Check]:
    rows: list[Check] = []
    gas = GasModel(rc.gamma)
    cfg = rc.flow
    consts = derive_constants(gas, cfg)
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
    rc = load_config(args.config)
    out = _out_dir(rc, args)
    t0 = time.perf_counter()
    rows = _verify_battery(rc, args.inject)
    elapsed = time.perf_counter() - t0
    lines = []
    for c in rows:
        measured = "-" if c.measured is None else repr(float(c.measured))
        tolerance = "-" if c.tolerance is None else repr(float(c.tolerance))
        lines.append(f"{c.name} {c.status} {measured} {tolerance}")
    with open(out / "verify.report", "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    for line in lines:
        print(line)
    n_fail = sum(1 for c in rows if c.status == "FAIL")
    print(f"[time] verify: {elapsed:.3f}s", file=sys.stderr)
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
    p.add_argument("--zeta", type=float, help="detachment potential (default: symmetric)")
    p.add_argument("--xi", type=float, help="outlet potential (default: zeta)")
    p.set_defaults(func=cmd_solve_fixed)

    p = sub.add_parser("solve-free", help="solve with the outlet potential shot from mass flux")
    common(p)
    p.add_argument("--zeta", type=float, help="detachment potential (default: symmetric)")
    p.set_defaults(func=cmd_solve_free)

    p = sub.add_parser("classify", help="existence verdict for a nozzle radius")
    common(p)
    p.add_argument("--radius", type=float, help="nozzle radius R (default: flow.R)")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("sweep", help="tabulate the family over detachment abscissas")
    common(p)
    p.add_argument("--n", type=int, default=8, help="number of sweep points (default 8)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("physmap", help="reconstruct the physical-plane flow and curves")
    common(p)
    p.add_argument("--zeta", type=float, help="detachment potential (default: symmetric)")
    p.add_argument("--radius", type=float, help="match this nozzle radius instead of --zeta")
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
