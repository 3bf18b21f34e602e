"""jetstream benchmark: one seeded workload as a closed loop with one client.

    python3 perfbench/run.py --workload free-fine --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the solver is imported from its
``src`` directory, nothing is installed.  With ``--trace 0`` the run issues
ops until their summed time reaches ``--seconds`` and reports the
end-to-end metrics with tracing off.  With ``--trace 1`` it runs exactly one
round of the workload under the outside-in tracer (a fixed op list, so
counts repeat exactly) and reports the per-layer metrics.  Every op's
output is checked; a failed check or an exception counts the op as
failed.  The last line of stdout is the JSON result; progress, the
environment record and failures go to stderr.  Scratch files live under
``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: on two shared cores a second
# OpenBLAS thread made the 513x129-node banded factorization no faster and
# added second-long tails.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: Cold set-ups per timed run, spread over the run; setup_s is their median.
SETUP_REPEATS = 5

#: End-to-end metrics of a timed run, in output order: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("op_max_s", "s"),
    ("ops_per_s", "1/s"),
    ("ok_ops_frac", "ratio"),
    ("peak_rss_mb", "MB"),
)


def _environment(workload) -> dict:
    """What the numbers depend on besides the code: machine, versions, band size."""
    import numpy
    import scipy

    def getconf(key):
        try:
            out = subprocess.run(["getconf", key], capture_output=True, text=True,
                                 timeout=10, check=False).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            return None
        return int(out) if out.isdigit() else None

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    nb = workload.n_psi + 1
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "cache_bytes": {level: getconf(f"{level}_CACHE_SIZE")
                        for level in ("LEVEL1_DCACHE", "LEVEL2", "LEVEL3")},
        # LU storage of one factorization on the requested grid: (2l+u+1) x n.
        "band_bytes_nominal": 8 * (3 * nb + 1) * workload.n_phi * nb,
    }


class SetupProbes:
    """Cold set-ups in fresh interpreters, each timing itself.

    The machine's speed moves from one few-second stretch to the next, so
    the samples are taken at evenly spaced points of the run's op time
    (between ops, never inside one) rather than back to back."""

    def __init__(self, cli: bool, seconds: float):
        self.argv = [sys.executable, str(HERE / "setup_probe.py"), str(SRC)]
        self.argv += ["--cli"] if cli else []
        self.step = seconds / SETUP_REPEATS
        self.samples: list[float] = []

    def sample(self) -> None:
        proc = subprocess.run(self.argv, check=True, timeout=120, capture_output=True,
                              text=True)
        self.samples.append(float(proc.stdout.split()[-1]))

    def __call__(self, elapsed: float) -> None:
        """Take the samples due once ``elapsed`` seconds of ops have run."""
        while (len(self.samples) < SETUP_REPEATS
               and elapsed >= len(self.samples) * self.step):
            self.sample()

    def median(self) -> float:
        while len(self.samples) < SETUP_REPEATS:
            self.sample()
        return statistics.median(self.samples)


def _run_ops(workload, tracer, seconds: float | None, count: int | None, between=None):
    """Closed loop: issue ops until their summed time reaches ``seconds``
    (or ``count`` ops are done), calling ``between(summed op time)`` after
    each op but the last.  Returns (op times, failed count)."""
    times: list[float] = []
    failed = 0
    k = 0
    while True:
        with tracer.paused():
            inp = workload.make_input(k)
        tracer.op = k
        t0 = time.perf_counter()
        try:
            out = workload.run_op(inp)
            err = None
        except Exception as exc:  # a failed op is counted, never retried
            err = f"{type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - t0)
        tracer.op = -1
        if err is None:
            with tracer.paused():
                err = workload.check(inp, out)
        if err is not None:
            failed += 1
            print(f"op {k} failed: {err}", file=sys.stderr)
        k += 1
        if count is not None and k >= count:
            break
        if seconds is not None and sum(times) >= seconds:
            break
        if between is not None:
            between(sum(times))
    return times, failed


def _slowest_stratum(workload, times: list[float]) -> float:
    """The largest median op time over the input strata of the run.

    An op's own time moves by 10-25% with the machine's speed from one
    stretch of seconds to the next; the median of a stratum's ops, spread
    over the run, moves much less."""
    strata: dict = {}
    for k, t in enumerate(times):
        strata.setdefault(workload.stratum(k), []).append(t)
    return max(statistics.median(ts) for ts in strata.values())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "jetstream" / "__init__.py").is_file():
        print(f"error: no solver sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    tracer = layers.Tracer()
    with tempfile.TemporaryDirectory(dir=WORK, prefix=f"{args.workload}-") as tmp:
        workload = workloads.WORKLOADS[args.workload](args.seed, Path(tmp))
        print(json.dumps({"env": _environment(workload)}), file=sys.stderr)
        if args.trace:
            tracer.install()
            try:
                workload.setup()
                times, failed = _run_ops(workload, tracer, None, workload.round_ops)
            finally:
                tracer.uninstall()
            tracer.dump(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl")
            metrics = layers.layer_metrics(tracer.spans, len(times), sum(times),
                                           workload.bytes_written)
        else:
            probes = SetupProbes(args.workload == "physmap-cli", args.seconds)
            probes(0.0)
            workload.setup()
            times, failed = _run_ops(workload, tracer, args.seconds, None, between=probes)
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            values = {
                "setup_s": probes.median(),
                "op_p50_s": statistics.median(times),
                "op_max_s": _slowest_stratum(workload, times),
                "ops_per_s": len(times) / sum(times),
                "ok_ops_frac": (len(times) - failed) / len(times),
                "peak_rss_mb": peak_mb,
            }
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print(f"ops={len(times)} failed={failed} op_s={[round(t, 3) for t in times]}",
          file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": len(times), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
