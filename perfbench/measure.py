"""Measure a baseline: every workload over several seeds, one run at a time.

    python3 perfbench/measure.py [--seeds 1-10] [--seconds 30] [--out FILE] [workload ...]

For each workload it makes one untraced run per seed, then one traced run
at the first seed.  It prints, per end-to-end metric, the median and the
spread (distance between the first and third quartile of the per-run
values, as ``statistics.quantiles(values, n=4)`` gives them, over the
median) next to the metric's bound in BENCHMARK.json, and writes every
run's values, the summaries, the traced run's per-layer metrics and the
environment record to ``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ALL = ("free-fine", "classify-cold", "physmap-cli")


def _seeds(text: str) -> list[int]:
    lo, sep, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if sep else [int(s) for s in text.split(",")]


def run_bench(workload, seed, seconds, trace):
    """One run of run.py in a fresh process: (JSON result, stderr text)."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def _run(workload, seed, seconds, trace):
    result, stderr = run_bench(workload, seed, seconds, trace)
    env = next(json.loads(line)["env"] for line in stderr.splitlines()
               if line.startswith('{"env"'))
    return result, env


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--out", type=Path)
    parser.add_argument("workloads", nargs="*", default=list(ALL))
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"run_seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for wl in args.workloads:
        runs = []
        for seed in args.seeds:
            result, env = _run(wl, seed, args.seconds, 0)
            values = {k: v["value"] for k, v in result["metrics"].items()}
            runs.append({"seed": seed, "attempted": result["attempted"],
                         "failed": result["failed"], "metrics": values})
            print(wl, seed, result["attempted"], result["failed"], json.dumps(values),
                  flush=True)
        summary = {name: summarize([r["metrics"][name] for r in runs])
                   for name in runs[0]["metrics"]}
        for name, s in summary.items():
            print(f"{wl:14s} {name:12s} median={s['median']:.6g} "
                  f"spread={s['spread']:.3f} bound={bounds[name]}")
        traced, _ = _run(wl, args.seeds[0], args.seconds, 1)
        report["workloads"][wl] = {
            "environment": env,
            "runs": runs,
            "summary": summary,
            "per_layer_seed": args.seeds[0],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
