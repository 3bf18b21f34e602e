"""The benchmark's workloads: seeded inputs, the timed operation, output checks.

Every workload is a closed loop with one client: the next op is issued
when the previous one returns.  Ops come in fixed *rounds*; slot ``k`` of a
round always draws from the same stratum of the input space, and the seed
only decides where inside each stratum the draw lands.  A run's op mix is
therefore the same for every seed, which keeps the per-run medians steady,
while each seed still feeds the program inputs it has not seen.

Calls into jetstream go through module attributes (``freebnd.solve_outlet``,
not a name bound at import) so the tracer's patches see every op.
"""

from __future__ import annotations

import contextlib
import io
import random
import shutil
from pathlib import Path

import numpy as np

from desk import DESK, GAMMA
from jetstream import cli, fixedbvp, freebnd, gasdyn
from jetstream.symmetric import SymmetricSolution


def _rho(q: float) -> float:
    """Density at speed q, written out here so the checks do not reuse the solver's."""
    return (1.0 - 0.5 * (GAMMA - 1.0) * q * q) ** (1.0 / (GAMMA - 1.0))


def _draw(rng: random.Random, lo: float, hi: float, slot: int, slots: int) -> float:
    """Uniform draw inside the ``slot``-th of ``slots`` equal parts of [lo, hi)."""
    width = (hi - lo) / slots
    return lo + width * (slot + rng.random())


class Workload:
    #: Ops in one round; a traced run runs exactly one round.
    round_ops = 1
    name = ""

    def __init__(self, seed: int, work_dir: Path):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.work_dir = work_dir
        self.bytes_written = 0

    def setup(self) -> None:
        """In-process set-up; the same steps as ``setup_probe.py``."""
        self.gas = gasdyn.GasModel(GAMMA)
        self.cfg = gasdyn.FlowConfig(**DESK)
        self.consts = gasdyn.derive_constants(self.gas, self.cfg)

    def stratum(self, k: int):
        """The input stratum op ``k`` draws from; op_max_s is the largest
        of the strata's median op times."""
        return k % self.round_ops

    def make_input(self, k: int):
        raise NotImplementedError

    def run_op(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> str | None:
        """None when the output is correct, else what is wrong with it."""
        raise NotImplementedError


class FreeFine(Workload):
    """solve_outlet on the desk config at 512x128 cells.

    The first op of a run is the symmetric abscissa zeta_hat, checked
    against the closed-form oracle; every later op alternates between the
    two halves of [0.3, 0.9] zeta_hat.  The oracle op needs one shot where
    the others need about nine, so it is run once, not once per round.  The
    banded LU of ~66k unknowns with 130 sub/super-diagonals dominates."""

    name = "free-fine"
    round_ops = 3
    n_phi, n_psi = 512, 128

    def setup(self):
        super().setup()
        self.options = fixedbvp.SolverOptions(n_phi=self.n_phi, n_psi=self.n_psi)

    def stratum(self, k):
        return 0 if k == 0 else 1 + (k - 1) % 2

    def make_input(self, k):
        zh = self.consts.zeta_hat
        if k == 0:
            return zh
        return _draw(self.rng, 0.3, 0.9, (k - 1) % 2, 2) * zh

    def run_op(self, zeta):
        return freebnd.solve_outlet(zeta, self.cfg, self.gas, self.consts, self.options)

    def check(self, zeta, sol):
        if not isinstance(sol, freebnd.FreeSolution):
            return f"no solution at zeta={zeta!r}: {sol.reason}"
        field = sol.field
        q0 = field.q[0, :]
        integrand = 1.0 / (q0 * np.array([_rho(q) for q in q0]))
        defect = float(np.trapezoid(integrand, field.grid.psi_nodes)) - (
            self.cfg.R0 * self.cfg.vartheta)
        shoot_tol = 1e-8 * self.cfg.R0 * self.cfg.vartheta
        if not abs(defect) <= shoot_tol:
            return f"|inlet defect| {abs(defect):.3e} > shoot tol {shoot_tol:.3e}"
        zh = self.consts.zeta_hat
        if zeta == zh:
            # Acceptance criterion 1: the symmetric oracle.
            sym = SymmetricSolution(self.gas, self.cfg, self.consts)
            q_hat = np.asarray(sym.q_hat(field.grid.phi_nodes))
            err = float(np.max(np.abs(field.q - q_hat[:, None])))
            if not err <= 1e-7:
                return f"oracle nodal error {err:.3e} > 1e-7"
            h = zh / self.n_phi
            if not abs(sol.xi - zh) <= 2.0 * h:
                return f"|xi - zeta_hat| = {abs(sol.xi - zh):.3e} > 2h = {2 * h:.3e}"
        return None


class ClassifyCold(Workload):
    """derive_constants + classify_radius at 64x32 cells, a fresh seeded
    config per op.

    c_e and vartheta are drawn within +-2% of the desk config.  The first
    slot of a round draws m from [0.795, 0.805] of the admissible window,
    where every probed zeta is solvable (floor-limited): find_zeta_star
    solves the inflated floor grid and match_R solves it again, then
    matches a radius between R_hat and R0 (inside the window
    [R_hat, R_star ~ R0]).  The other eight slots draw m from eight strata
    of [0.25, 0.65] of the window, where zeta_star > 0 and the floor probe
    fails cap-bound.  Their radii alternate at or above R0 (too short) and
    below R_hat (too long), except in the last slot (m in [0.6, 0.65] of
    the window, where R_star - R_hat is about half of R0 - R_hat): its
    radius lies 10-30% of the way from R_hat to R0, inside [R_hat, R_star],
    so match_R's interior search runs on a cap-bound config too.  Every
    round so holds the same mix of the three verdicts, and the median op
    falls among cap-bound ops of similar cost.  The slow floor-limited op
    opens the round: in a 30 s run the deadline falls inside the second
    round's floor-limited op, not next to it."""

    name = "classify-cold"
    round_ops = 9
    n_phi, n_psi = 64, 32

    def setup(self):
        super().setup()
        self.options = fixedbvp.SolverOptions(n_phi=self.n_phi, n_psi=self.n_psi)

    def make_input(self, k):
        slot = k % self.round_ops
        rng = self.rng
        # The floor-limited op costs a dozen cap-bound ones and its cost
        # moves with the inflated grid, so its draws stay in a narrower band.
        band = 0.01 if slot == 0 else 0.02
        c_e = DESK["c_e"] * rng.uniform(1.0 - band, 1.0 + band)
        vartheta = DESK["vartheta"] * rng.uniform(1.0 - band, 1.0 + band)
        r0 = DESK["R0"]
        m_hi = r0 * vartheta * c_e * _rho(c_e)
        probe = gasdyn.FlowConfig(R0=r0, vartheta=vartheta, m=0.5 * m_hi, c_e=c_e)
        w_lo, w_hi = gasdyn.derive_constants(self.gas, probe).m_window
        if slot == 0:
            frac = rng.uniform(0.795, 0.805)
            between = (0.4, 0.5)
        else:
            frac = _draw(rng, 0.25, 0.65, slot - 1, self.round_ops - 1)
            between = (0.1, 0.3) if slot == self.round_ops - 1 else None
        m = w_lo + frac * (w_hi - w_lo)
        r_hat = m / (vartheta * c_e * _rho(c_e))
        if between is not None:
            R = r_hat + rng.uniform(*between) * (r0 - r_hat)
        elif slot % 2:
            R = r0 * rng.uniform(1.0, 1.08)
        else:
            R = r_hat * rng.uniform(0.85, 0.97)
        cfg = gasdyn.FlowConfig(R0=r0, vartheta=vartheta, m=m, c_e=c_e)
        return cfg, R, r_hat

    def run_op(self, inp):
        cfg, R, _ = inp
        consts = gasdyn.derive_constants(self.gas, cfg)
        return consts, freebnd.classify_radius(R, cfg, self.gas, consts, self.options)

    def check(self, inp, out):
        cfg, R, r_hat = inp
        consts, res = out
        if not abs(res.r_hat - r_hat) <= 1e-12 * r_hat:
            return f"r_hat {res.r_hat!r} differs from closed form {r_hat!r}"
        # The window edges are resolved only to the wall-length gate of
        # match_R, so a radius within that gate of an edge may take either
        # neighbouring verdict.
        gh = consts.zeta_hat / self.n_phi
        k = cfg.m / self.n_psi
        gate = max(1e-7, 0.1 * (gh * gh + k * k))
        allowed = set()
        if R < res.r_hat + gate:
            allowed.add("NO_SOLUTION_LONG")
        if R > res.r_star - gate:
            allowed.add("NO_SOLUTION_SHORT")
        if res.r_hat - gate <= R <= res.r_star + gate:
            allowed.add("EXISTS")
        if res.verdict not in allowed:
            return (f"verdict {res.verdict} for R={R!r} against window "
                    f"[{res.r_hat!r}, {res.r_star!r}]")
        if res.verdict == "EXISTS":
            miss = abs(res.wall_length - (cfg.R0 - R))
            if not miss <= gate:
                return f"wall length misses R0 - R by {miss:.3e} > {gate:.3e}"
        return None


class PhysmapCli(Workload):
    """In-process ``jetstream physmap`` at 128x64 cells on the desk config.

    Every fifth op, the first included, takes a near-symmetric zeta,
    1 - zeta/zeta_hat in [0.004, 0.0044].  Close to zeta_hat the
    spacing-ratio rule of build_grid grows the left segment like
    1/(1 - zeta/zeta_hat): 128 requested cells become ~480 there and ~2400
    at 1 - 8e-4.  A stratum reaching up to zeta_hat would hit that blow-up
    in some runs only, and the inflated op sets the run's peak memory and
    its slowest stratum, so these ops come from a band narrow enough that
    their cost moves by only a few percent within it.  A 30 s run holds
    four or five of them, so op_max_s is their median, not one op's luck
    with the machine's speed.  The ops in between take sixteen strata of
    [0.2, 0.95] zeta_hat in turn, in bit-reversed order so a partial round
    spans the range.  Each op writes its CSVs and summary.kv to a fresh
    directory, read back by the check and then removed."""

    name = "physmap-cli"
    round_ops = 20
    n_phi, n_psi = 128, 64
    _near = 5
    _order = (0, 8, 4, 12, 2, 10, 6, 14, 1, 9, 5, 13, 3, 11, 7, 15)

    def setup(self):
        super().setup()
        self.config = self.work_dir / "run.yaml"
        self.config.write_text(
            "gas:\n"
            f"  gamma: {GAMMA!r}\n"
            "flow:\n"
            + "".join(f"  {key}: {value!r}\n" for key, value in DESK.items())
            + "solver:\n"
            f"  n_phi: {self.n_phi}\n"
            f"  n_psi: {self.n_psi}\n",
            encoding="utf-8",
        )

    def stratum(self, k):
        if k % self._near == 0:
            return "near"
        return self._order[(k - 1 - k // self._near) % len(self._order)]

    def make_input(self, k):
        slot = self.stratum(k)
        if slot == "near":
            frac = 1.0 - _draw(self.rng, 0.004, 0.0044, (k // self._near) % 4, 4)
        else:
            frac = _draw(self.rng, 0.2, 0.95, slot, len(self._order))
        zeta = frac * self.consts.zeta_hat
        return zeta, self.work_dir / f"op{k}"

    def run_op(self, inp):
        zeta, out_dir = inp
        argv = ["physmap", "--config", str(self.config), "--out", str(out_dir),
                "--zeta", repr(zeta)]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return cli.main(argv)

    def check(self, inp, rc):
        _, out_dir = inp
        try:
            summary = {}
            if out_dir.is_dir():
                self.bytes_written += sum(p.stat().st_size for p in out_dir.iterdir())
                kv = out_dir / "summary.kv"
                if kv.is_file():
                    for line in kv.read_text(encoding="utf-8").splitlines():
                        key, _, value = line.partition("=")
                        summary[key] = value
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        if rc != 0:
            return f"exit code {rc}"
        if summary.get("status") != "ok":
            return f"status={summary.get('status')}"
        if summary.get("geometry_failed") != "0":
            return f"geometry_failed={summary.get('geometry_failed')}"
        return None


WORKLOADS = {w.name: w for w in (FreeFine, ClassifyCold, PhysmapCli)}
