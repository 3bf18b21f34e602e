"""End-to-end command-line runs via subprocess: exit codes, files, formats."""

import csv
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

import jetstream as js
import oracle_data as od
from jetstream import cli

CONFIG_TMPL = """\
gas:
  gamma: 1.4
flow:
  R0: 1.0
  vartheta: 0.5235987755982988
  m: 0.25
  c_e: 0.8
solver:
  n_phi: {n_phi}
  n_psi: {n_psi}
outputs:
  directory: {out}
"""


def _write_config(tmp_path: Path, n_phi=32, n_psi=16, extra="") -> Path:
    out = tmp_path / "out"
    text = CONFIG_TMPL.format(n_phi=n_phi, n_psi=n_psi, out=out) + extra
    path = tmp_path / "run.yaml"
    path.write_text(text, encoding="utf-8")
    return path


def _run(*args):
    return subprocess.run(
        [sys.executable, "-m", "jetstream.cli", *args],
        capture_output=True,
        text=True,
    )


def _read_summary(out_dir: Path) -> dict:
    values = {}
    for line in (out_dir / "summary.kv").read_text().splitlines():
        key, _, val = line.partition("=")
        values[key] = val
    return values


# The summary.kv key sequence of each command: every summary opens with the
# config and its derived constants; a solved field adds its statistics.
BASE_KEYS = [
    "command", "gamma", "R0", "vartheta", "m", "c_e", "c_m", "c_l", "zeta_hat", "R_hat",
    "zeta_cap", "m_window_lo", "m_window_hi", "admissible",
]
FIELD_KEYS = ["n_phi", "n_psi", "residual_norm", "newton_iters", "back_solves", "q_min", "q_max"]
GEOMETRY_ROWS = [
    "inlet_circularity", "inlet_normality", "axis_collinearity", "wall_collinearity",
    "wall_angle", "detachment_angle", "theta_min", "theta_max", "free_x_increasing",
    "free_slope_upper", "free_slope_lower", "free_convexity", "outlet_y_increasing",
    "outlet_slope_lower", "outlet_slope_upper", "outlet_convexity", "mass_flux_columns",
    "outlet_mass_flux",
]
SUMMARY_KEYS = {
    "solve-fixed": [
        "zeta", "xi", *FIELD_KEYS, "inlet_defect", "theta_discrepancy", "theta_estimate",
        "oracle_max_error",
    ],
    "solve-free": [
        "zeta", "status", "xi", "inlet_defect", "wall_length", "r_equiv", *FIELD_KEYS,
        "theta_discrepancy", "theta_estimate", "oracle_max_error",
    ],
    "solve-free no-solution": ["zeta", "status", "reason", "defect", "detail"],
    "classify EXISTS": [
        "radius", "verdict", "r_hat", "r_star", "zeta_star_probes", "zeta", "xi", "wall_length",
    ],
    "classify NO_SOLUTION": ["radius", "verdict", "r_hat", "r_star", "zeta_star_probes"],
    "sweep": ["rows", "n_ok", "n_no_solution", "n_error", "xi_strictly_decreasing"],
    "physmap": [
        "status", "zeta", "xi", "wall_length", "r_equiv", *FIELD_KEYS, "theta_discrepancy",
        "theta_estimate", "mass_flux_out", "geometry_checks", "geometry_failed",
        *(f"geometry.{name}" for name in GEOMETRY_ROWS),
    ],
    "physmap --radius no-solution": ["radius", "status", "reason", "r_hat", "r_star", "detail"],
}


def _assert_summary_keys(out_dir: Path, case: str) -> None:
    keys = [line.partition("=")[0] for line in (out_dir / "summary.kv").read_text().splitlines()]
    assert keys == BASE_KEYS + SUMMARY_KEYS[case], case


# ---------------------------------------------------------------------------
# Config validation and exit codes


def test_missing_required_key_exits_2(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("flow:\n  R0: 1.0\n  vartheta: 0.5\n  m: 0.25\n  c_e: 0.8\n")
    res = _run("solve-fixed", "--config", str(path), "--out", str(tmp_path / "o"))
    assert res.returncode == 2
    assert "gas.gamma" in res.stderr


def test_non_finite_config_number_exits_2(tmp_path):
    # YAML reads ``.inf`` as a float and ``1e400`` as a string that float()
    # turns into inf; both are config errors, not a traceback.
    for old, new, path in (
        ("gamma: 1.4", "gamma: .inf", "gas.gamma"),
        ("gamma: 1.4", "gamma: 1e400", "gas.gamma"),
        ("R0: 1.0", "R0: .nan", "flow.R0"),
    ):
        cfg = _write_config(tmp_path)
        cfg.write_text(cfg.read_text().replace(old, new))
        res = _run("classify", "--config", str(cfg), "--radius", "0.9")
        assert res.returncode == 2, res.stderr
        assert f"{path} must be a finite number" in res.stderr
        assert "Traceback" not in res.stderr


def test_non_finite_flag_exits_2(tmp_path):
    # The number flags follow the config-number rule: nan and +-inf are
    # usage errors, refused before any solve.
    cfg = _write_config(tmp_path)
    for command, flag, value in (
        ("solve-free", "--zeta", "inf"),
        ("classify", "--radius", "inf"),
        ("solve-fixed", "--xi", "nan"),
        ("physmap", "--zeta", "nan"),
        ("physmap", "--radius", "inf"),
    ):
        out = tmp_path / f"{command}{flag}"
        res = _run(command, "--config", str(cfg), flag, value, "--out", str(out))
        assert res.returncode == 2, (command, flag, res.returncode, res.stderr)
        assert flag in res.stderr and "finite" in res.stderr, res.stderr
        assert "Traceback" not in res.stderr
        assert not out.exists()


def test_unusable_output_directory_exits_2(tmp_path):
    # An output directory below a file, named by --out or by
    # outputs.directory, is a config error, not a traceback.
    blocker = tmp_path / "afile"
    blocker.write_text("x")
    cfg = _write_config(tmp_path)
    res = _run("solve-fixed", "--config", str(cfg), "--out", str(blocker / "out"))
    assert res.returncode == 2, res.stderr
    assert "cannot create output directory" in res.stderr
    assert "Traceback" not in res.stderr
    cfg.write_text(cfg.read_text().replace(str(tmp_path / "out"), str(blocker / "sub")))
    res = _run("classify", "--config", str(cfg), "--radius", "0.9")
    assert res.returncode == 2, res.stderr
    assert "cannot create output directory" in res.stderr
    assert "Traceback" not in res.stderr


def test_unknown_key_exits_2_with_dotted_path(tmp_path):
    cfg = _write_config(tmp_path, extra="  turbo: yes\n")
    res = _run("solve-fixed", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert res.returncode == 2
    assert "outputs.turbo" in res.stderr
    # CSV is always written; the key that once selected it is gone.
    cfg = _write_config(tmp_path, extra="  formats: [csv]\n")
    res = _run("solve-fixed", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert res.returncode == 2
    assert "outputs.formats" in res.stderr
    # The solver section holds the grid only; the tolerance and iteration
    # keys it once took are unknown keys too.
    for key, value in (("tol", "1e-10"), ("max_iters", "100"), ("shoot_tol", "1e-8")):
        cfg = _write_config(tmp_path)
        cfg.write_text(cfg.read_text().replace("solver:\n", f"solver:\n  {key}: {value}\n"))
        res = _run("solve-fixed", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert res.returncode == 2
        assert f"solver.{key}" in res.stderr


def test_sweep_jobs_flag_is_gone_and_exits_2(tmp_path):
    # A removed flag is a usage error, like a removed config key.
    cfg = _write_config(tmp_path)
    res = _run("sweep", "--config", str(cfg), "--jobs", "2", "--out", str(tmp_path / "o"))
    assert res.returncode == 2
    assert "--jobs" in res.stderr


def test_unknown_subcommand_exits_2(tmp_path):
    cfg = _write_config(tmp_path)
    res = _run("frobnicate", "--config", str(cfg))
    assert res.returncode == 2


def test_infeasible_domain_exits_3(tmp_path):
    cfg = _write_config(tmp_path)
    res = _run(
        "solve-fixed", "--config", str(cfg), "--zeta", "0.05", "--xi", "0.5",
        "--out", str(tmp_path / "o"),
    )
    assert res.returncode == 3


def test_nonexistence_exits_5(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "o"
    res = _run("solve-free", "--config", str(cfg), "--zeta", "0.24", "--out", str(out))
    assert res.returncode == 5
    vals = _read_summary(out)
    assert vals["status"] == "no-solution"
    assert vals["reason"] == "detachment-beyond-symmetric"
    _assert_summary_keys(out, "solve-free no-solution")


def test_physmap_without_a_flow_still_writes_its_summary(tmp_path):
    # Every command writes summary.kv, also when it exits 5.  A radius is
    # refused with classify's verdict and the window [r_hat, r_star]; a zeta
    # beyond zeta_hat with the solve-free keys.
    cfg = _write_config(tmp_path)
    cases = (
        ("--radius", "0.5", "NO_SOLUTION_LONG", ("radius", "r_hat", "r_star")),
        ("--radius", "0.9999", "NO_SOLUTION_SHORT", ("radius", "r_hat", "r_star")),
        ("--zeta", "0.24", "detachment-beyond-symmetric", ("zeta", "defect")),
    )
    for flag, value, reason, keys in cases:
        out = tmp_path / reason
        res = _run("physmap", "--config", str(cfg), flag, value, "--out", str(out))
        assert res.returncode == 5, res.stderr
        vals = _read_summary(out)
        assert (vals["status"], vals["reason"]) == ("no-solution", reason)
        assert list(vals)[-len(keys) - 3 :] == [keys[0], "status", "reason", *keys[1:], "detail"]
        assert vals[keys[0]] == value
        if flag == "--radius":
            _assert_summary_keys(out, "physmap --radius no-solution")
        assert vals["detail"]


def test_radius_beyond_the_inlet_is_a_short_nozzle_for_physmap_and_classify(tmp_path):
    # One radius precondition: R >= R0 is no usage error but classify's
    # NO_SOLUTION_SHORT, so physmap refuses it with that reason and exits 5.
    cfg = _write_config(tmp_path)
    out = tmp_path / "physmap"
    res = _run("physmap", "--config", str(cfg), "--radius", "1.5", "--out", str(out))
    assert res.returncode == 5, res.stderr
    vals = _read_summary(out)
    assert (vals["status"], vals["reason"]) == ("no-solution", "NO_SOLUTION_SHORT")
    _assert_summary_keys(out, "physmap --radius no-solution")
    for radius in ("1.5", "1.0"):
        out = tmp_path / f"classify-{radius}"
        res = _run("classify", "--config", str(cfg), "--radius", radius, "--out", str(out))
        assert res.returncode == 0, res.stderr
        assert _read_summary(out)["verdict"] == "NO_SOLUTION_SHORT"
        _assert_summary_keys(out, "classify NO_SOLUTION")


# ---------------------------------------------------------------------------
# Solve paths


def test_solve_fixed_symmetric_reports_oracle_error(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "out"
    res = _run("solve-fixed", "--config", str(cfg), "--out", str(out))
    assert res.returncode == 0, res.stderr
    vals = _read_summary(out)
    assert float(vals["oracle_max_error"]) < 1e-9
    _assert_summary_keys(out, "solve-fixed")
    header = (out / "field.csv").read_text().splitlines()[0]
    assert header == "phi[-],psi[-],q[-],Q[-],theta[rad]"
    # stdout mirrors the summary, timings go to stderr only
    assert "oracle_max_error=" in res.stdout
    assert "[time]" in res.stderr and "[time]" not in res.stdout


def test_solve_free_summary_keys(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "out"
    res = _run("solve-free", "--config", str(cfg), "--out", str(out))
    assert res.returncode == 0, res.stderr
    vals = _read_summary(out)
    _assert_summary_keys(out, "solve-free")
    h = od.ZETA_HAT / 32
    assert abs(float(vals["xi"]) - od.ZETA_HAT) <= 2 * h


def test_classify_verdicts(tmp_path):
    cfg = _write_config(tmp_path, n_phi=64, n_psi=32)
    out = tmp_path / "o1"
    res = _run("classify", "--config", str(cfg), "--radius", "0.92", "--out", str(out))
    assert res.returncode == 0, res.stderr
    vals = _read_summary(out)
    assert vals["verdict"] == "EXISTS"
    assert abs(float(vals["wall_length"]) - (od.R0 - 0.92)) < 1e-5
    _assert_summary_keys(out, "classify EXISTS")

    out2 = tmp_path / "o2"
    res2 = _run("classify", "--config", str(cfg), "--radius", "0.4", "--out", str(out2))
    assert res2.returncode == 0, res2.stderr
    assert _read_summary(out2)["verdict"] == "NO_SOLUTION_LONG"
    _assert_summary_keys(out2, "classify NO_SOLUTION")


def test_classify_without_radius_exits_2(tmp_path):
    cfg = _write_config(tmp_path)
    res = _run("classify", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert res.returncode == 2


def test_sweep_table(tmp_path):
    cfg = _write_config(tmp_path, n_phi=64, n_psi=32)
    out = tmp_path / "out"
    res = _run("sweep", "--config", str(cfg), "--n", "4", "--out", str(out))
    assert res.returncode == 0, res.stderr
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "zeta[-],xi[-],L[len],R_equiv[len],status,message"
    assert len(lines) == 5
    xis = [float(l.split(",")[1]) for l in lines[1:]]
    assert all(a > b for a, b in zip(xis, xis[1:]))
    vals = _read_summary(out)
    assert vals["xi_strictly_decreasing"] == "true"
    assert vals["n_ok"] == "4"
    _assert_summary_keys(out, "sweep")


def test_physmap_outputs(tmp_path):
    cfg = _write_config(tmp_path, n_phi=64, n_psi=32)
    out = tmp_path / "out"
    zeta = 0.6 * od.ZETA_HAT
    res = _run("physmap", "--config", str(cfg), "--zeta", repr(zeta), "--out", str(out))
    assert res.returncode == 0, res.stderr
    for name in (
        "field.csv",
        "coords.csv",
        "curves_inlet.csv",
        "curves_wall.csv",
        "curves_free.csv",
        "curves_outlet.csv",
        "summary.kv",
    ):
        assert (out / name).exists(), name
    vals = _read_summary(out)
    geo = {k: v for k, v in vals.items() if k.startswith("geometry.")}
    assert geo and all(v == "PASS" for v in geo.values()), geo
    _assert_summary_keys(out, "physmap")
    coords_header = (out / "coords.csv").read_text().splitlines()[0]
    assert coords_header == "phi[-],psi[-],x[len],y[len]"
    wall = np.loadtxt(out / "curves_wall.csv", delimiter=",", skiprows=1)
    assert wall.shape[1] == 2


def test_physmap_field_csv_writes_each_float_as_its_repr(tmp_path, gas, cfg, consts):
    # The shortest string that reads back to the same double: a rerun in
    # this process gives the same flow, and each token is repr of its value.
    path = _write_config(tmp_path)
    out = tmp_path / "out"
    zeta = 0.6 * od.ZETA_HAT
    res = _run("physmap", "--config", str(path), "--zeta", repr(zeta), "--out", str(out))
    assert res.returncode == 0, res.stderr
    sol = js.solve_outlet(zeta, cfg, gas, consts, js.SolverOptions(n_phi=32, n_psi=16))
    theta = js.recover_theta(sol.field, gas, cfg).theta
    grid = sol.field.grid
    lines = (out / "field.csv").read_text().splitlines()
    assert lines[0] == "phi[-],psi[-],q[-],Q[-],theta[rad]"
    expected = [
        ",".join(repr(float(v)) for v in (p, s, sol.field.q[i, j], sol.field.Q[i, j], theta[i, j]))
        for i, p in enumerate(grid.phi_nodes)
        for j, s in enumerate(grid.psi_nodes)
    ]
    assert lines[1:] == expected


def test_float_csv_writer_writes_the_bytes_of_csv_writer(tmp_path, gas, cfg, consts):
    # field.csv, coords.csv and the curves_*.csv join float reprs with
    # commas instead of going through the csv module: the bytes must stay
    # csv.writer's, here on a 32x16 flow with awkward values planted in it.
    opts = js.SolverOptions(n_phi=32, n_psi=16)
    sol = js.solve_outlet(0.6 * od.ZETA_HAT, cfg, gas, consts, opts)
    angles = js.recover_theta(sol.field, gas, cfg)
    phys = js.reconstruct(sol.field, angles, cfg, gas)
    grid = sol.field.grid
    special = [-0.0, 5e-324, 1e-5, 1e16, float("nan"), float("inf"), -float("inf")]
    q, x = sol.field.q.copy(), phys.x.copy()
    q[1, : len(special)] = special
    x[-1, -len(special):] = special
    wall = phys.wall_curve.copy()
    wall[0, 0], wall[1, 1] = special[0], special[4]

    def reference(path, header, rows):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
        return path.read_bytes()

    def node_rows(*values):
        # Python floats, as the writer had them from ndarray.tolist().
        lists = [v.tolist() for v in values]
        return [
            [p, s] + [v[i][j] for v in lists]
            for i, p in enumerate(grid.phi_nodes.tolist())
            for j, s in enumerate(grid.psi_nodes.tolist())
        ]

    header = ["phi[-]", "psi[-]", "q[-]", "Q[-]", "theta[rad]"]
    cli._write_field_csv(tmp_path / "field.csv", replace(sol.field, q=q), angles.theta)
    want = reference(tmp_path / "want.csv", header, node_rows(q, sol.field.Q, angles.theta))
    assert (tmp_path / "field.csv").read_bytes() == want

    header = ["phi[-]", "psi[-]", "x[len]", "y[len]"]
    cli._write_float_csv(tmp_path / "coords.csv", header, cli._node_lines(grid, x, phys.y))
    want = reference(tmp_path / "want.csv", header, node_rows(x, phys.y))
    assert (tmp_path / "coords.csv").read_bytes() == want

    for curve in (wall, phys.free_streamline, np.empty((0, 2))):
        cli._write_curve_csv(tmp_path / "curve.csv", curve)
        want = reference(tmp_path / "want.csv", ["x[len]", "y[len]"], curve.tolist())
        assert (tmp_path / "curve.csv").read_bytes() == want


# ---------------------------------------------------------------------------
# Verification battery


def test_verify_clean_passes(tmp_path):
    cfg = _write_config(tmp_path, n_phi=64, n_psi=32)
    out = tmp_path / "out"
    res = _run("verify", "--config", str(cfg), "--out", str(out))
    assert res.returncode == 0, res.stdout + res.stderr
    report = (out / "verify.report").read_text().splitlines()
    statuses = {line.split()[0]: line.split()[1] for line in report}
    assert "FAIL" not in statuses.values()
    assert statuses["sym_field_oracle"] == "PASS"
    assert "failed=0" in res.stdout


def test_verify_theta_injection_caught(tmp_path):
    cfg = _write_config(tmp_path, n_phi=64, n_psi=32)
    out = tmp_path / "out"
    res = _run("verify", "--config", str(cfg), "--inject", "theta", "--out", str(out))
    assert res.returncode == 1
    report = (out / "verify.report").read_text().splitlines()
    failed = [line.split()[0] for line in report if line.split()[1] == "FAIL"]
    assert failed == ["geom_wall_angle"], failed


def test_verify_monotone_injection_caught(tmp_path):
    cfg = _write_config(tmp_path, n_phi=64, n_psi=32)
    out = tmp_path / "out"
    res = _run("verify", "--config", str(cfg), "--inject", "monotone", "--out", str(out))
    assert res.returncode == 1
    report = (out / "verify.report").read_text().splitlines()
    failed = sorted(line.split()[0] for line in report if line.split()[1] == "FAIL")
    assert failed == ["field_monotone_phi", "field_monotone_psi"], failed


def test_verify_with_flow_radius_passes(tmp_path):
    # The battery's probe flow is matched to no radius, so flow.R must not
    # be graded against it; that check belongs to physmap --radius.
    cfg = _write_config(tmp_path, n_phi=64, n_psi=32)
    cfg.write_text(
        cfg.read_text().replace("  c_e: 0.8\n", "  c_e: 0.8\n  R: 0.92\n"),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    res = _run("verify", "--config", str(cfg), "--out", str(out))
    assert res.returncode == 0, res.stdout + res.stderr
    report = (out / "verify.report").read_text()
    assert "wall_endpoint_radius" not in report
    assert "failed=0" in res.stdout


# ---------------------------------------------------------------------------
# Determinism


def test_repeated_runs_are_byte_identical(tmp_path):
    # Every file a run writes: summary.kv and field.csv, and physmap's
    # coords.csv and four curves_*.csv.
    cfg = _write_config(tmp_path)
    for args in (("solve-free",), ("physmap", "--zeta", repr(0.6 * od.ZETA_HAT))):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{args[0]}-{tag}"
            res = _run(*args, "--config", str(cfg), "--out", str(out))
            assert res.returncode == 0, res.stderr
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        assert len(names) == (2 if args[0] == "solve-free" else 7), names
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_summary_counts_back_solves_next_to_factorizations(tmp_path):
    # The chord steps of the solve that gave the field are a deterministic
    # count, written right after the factorizations.  The geometry is
    # asymmetric: at xi = zeta the cold start already solves the problem.
    cfg = _write_config(tmp_path)
    out = tmp_path / "o"
    res = _run(
        "solve-fixed", "--config", str(cfg), "--out", str(out), "--zeta", "0.06", "--xi", "0.11"
    )
    assert res.returncode == 0, res.stderr
    keys = [line.partition("=")[0] for line in (out / "summary.kv").read_text().splitlines()]
    assert keys[keys.index("newton_iters") + 1] == "back_solves"
    values = _read_summary(out)
    assert int(values["newton_iters"]) >= 1
    assert int(values["back_solves"]) >= 1


def test_import_loads_no_scipy_package_only_its_lapack_wrapper():
    # The package and its command line need numpy and scipy's compiled
    # LAPACK wrapper only.  scipy.interpolate (which drags in scipy.special
    # and scipy.optimize) cost ~0.27 s of every cold start, and the
    # scipy.linalg package (scipy._lib._array_api, numpy.testing, f2py)
    # ~0.17 s more.
    src = str(Path(js.__file__).resolve().parents[1])
    probe = (
        "import sys, jetstream, jetstream.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    res = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "['scipy.linalg._flapack']"
