"""Checks of the benchmark itself.

    python3 perfbench/selfcheck.py [--seed 7] [--seconds 30] [workload ...]

For each workload (default: all) it makes two traced runs and one untraced
run at the same seed, then checks that

- the metric names ``run.py`` prints are exactly those in BENCHMARK.json;
- the two traced runs report identical counts;
- with no failed op, the Newton iterations summed over solve_fixed equal
  the banded factorizations (each Newton step is one factorization);
- every per-layer metric is nonzero on the workloads that exercise its
  layer, the failure counter is zero, and free-fine solves exactly the
  grid it requests while the other two inflate some grids;

and it prints the tracing overhead: the traced op times of one round over
the untraced times of the same ops (same seed, so the same inputs).
Takes about five minutes on two cores.  Exit code 0 when all checks pass.
"""

from __future__ import annotations

import argparse
import json
import sys

import layers
import run
from measure import ALL, ROOT, run_bench

#: Per-layer metrics that must be nonzero, with the workloads they are read on.
NONZERO = {
    name: ALL
    for name in (
        "numerics.solve_banded.calls",
        "numerics.solve_banded.self_s",
        "numerics.solve_banded.unknowns",
        "numerics.solve_banded.band_mb_computed",
        "numerics.banded_matvec.self_s",
        "fixedbvp.solve_fixed.calls",
        "fixedbvp.solve_fixed.self_s",
        "fixedbvp.newton_iters",
        "fixedbvp.cells",
        "fixedbvp.grid_inflation_max",
        "gasdyn.lookup.calls",
        "gasdyn.lookup.points",
        "gasdyn.lookup.self_s",
        "gasdyn.derive_constants.calls",
        "gasdyn.derive_constants.self_s",
        "freebnd.solve_outlet.calls",
        "freebnd.solve_outlet.self_s",
        "freebnd.shots_per_free_solve",
        "trace.ops_per_s",
    )
}
NONZERO.update({
    name: ("classify-cold",)
    for name in (
        "freebnd.nonexistence",
        "freebnd.probes_per_classify",
        "freebnd.find_zeta_star.probes",
        "freebnd.floor_limited_share",
    )
})
NONZERO.update({
    name: ("physmap-cli",)
    for name in (
        "physmap.recover_theta.self_s",
        "physmap.reconstruct.self_s",
        "physmap.geometry_checks.self_s",
        "cli.main.self_s",
        "cli.bytes_written",
    )
})


def _run(workload, seed, seconds, trace):
    result, stderr = run_bench(workload, seed, seconds, trace)
    op_line = next(line for line in stderr.splitlines() if line.startswith("ops="))
    return result, json.loads(op_line.split("op_s=", 1)[1])


def _is_count(name, unit):
    return not name.endswith("_s") and unit != "1/s"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("workloads", nargs="*", default=list(ALL))
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    if [m["name"] for m in spec["per_layer"]] != [n for n, _ in layers.PER_LAYER]:
        problems.append("per_layer names differ between BENCHMARK.json and layers.PER_LAYER")
    if [m["name"] for m in spec["end_to_end"]] != [n for n, _ in run.END_TO_END]:
        problems.append("end_to_end names differ between BENCHMARK.json and run.END_TO_END")

    for wl in args.workloads:
        first, traced_times = _run(wl, args.seed, args.seconds, 1)
        second, _ = _run(wl, args.seed, args.seconds, 1)
        timed, timed_times = _run(wl, args.seed, args.seconds, 0)
        metrics = {k: v["value"] for k, v in first["metrics"].items()}
        if sorted(timed["metrics"]) != sorted(n for n, _ in run.END_TO_END):
            problems.append(f"{wl}: untraced run printed {sorted(timed['metrics'])}")
        if sorted(metrics) != sorted(n for n, _ in layers.PER_LAYER):
            problems.append(f"{wl}: traced run printed {sorted(metrics)}")
        for name, unit in layers.PER_LAYER:
            if _is_count(name, unit) and metrics[name] != second["metrics"][name]["value"]:
                problems.append(f"{wl}: {name} differs between two traced runs: "
                                f"{metrics[name]} vs {second['metrics'][name]['value']}")
        failed = first["failed"] + second["failed"] + timed["failed"]
        if failed:
            problems.append(f"{wl}: {failed} ops failed their output checks")
        elif metrics["fixedbvp.newton_iters"] != metrics["numerics.solve_banded.calls"]:
            problems.append(f"{wl}: newton_iters {metrics['fixedbvp.newton_iters']} != "
                            f"solve_banded.calls {metrics['numerics.solve_banded.calls']}")
        for name, where in NONZERO.items():
            if wl in where and not metrics[name] > 0:
                problems.append(f"{wl}: {name} is {metrics[name]}, expected nonzero")
        if metrics["fixedbvp.failures"] != 0:
            problems.append(f"{wl}: fixedbvp.failures = {metrics['fixedbvp.failures']}")
        inflation = metrics["fixedbvp.grid_inflation_max"]
        if (wl == "free-fine") != (inflation == 1.0):
            problems.append(f"{wl}: fixedbvp.grid_inflation_max = {inflation}")
        n = len(traced_times)
        if len(timed_times) >= n:
            overhead = sum(traced_times) / sum(timed_times[:n]) - 1.0
            print(f"{wl}: tracing overhead {overhead:+.1%} over the first {n} ops "
                  f"(traced {sum(traced_times):.2f} s, untraced {sum(timed_times[:n]):.2f} s)")
        print(f"{wl}: counts " + json.dumps(
            {k: v for k, v in metrics.items()
             if _is_count(k, first["metrics"][k]["unit"])}))
        print(f"{wl}: end-to-end " + json.dumps(
            {k: v["value"] for k, v in timed["metrics"].items()}))

    for p in problems:
        print("FAIL", p)
    print("selfcheck:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
