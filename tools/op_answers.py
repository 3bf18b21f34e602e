#!/usr/bin/env python3
"""Per-op answers and solve counts of a benchmark workload, and a comparison
of two such records.

Runs the first N ops of one of the benchmark's workloads
(``perfbench/workloads.py``, imported read-only) in process and records,
per op:

- the answer: the verdict, ``r_star``, zeta and xi for classify-cold; xi
  and ``r_equiv`` for free-fine; ``summary.kv``'s xi and ``wall_length``
  for physmap-cli;
- the number of ``numerics.solve_banded`` (factorization) and
  ``numerics.back_solve`` calls the op made, and its cap shots: the
  ``solve_fixed`` calls at the outlet cap xi = R0 c_l without ``free_xi``;
- the workload's own output check (null when it passes).

Run from the root of a source checkout; the solver and the workloads are
imported from its ``src`` and ``perfbench`` directories, so one copy of this
script records any checkout:

    python tools/op_answers.py --workload classify-cold --seed 1 --ops 18 \\
        --out after.json
    python tools/op_answers.py --compare before.json after.json

``--compare`` prints the verdict and check mismatches, the largest relative
difference of each answer field, the ops whose counts (factorizations,
back-solves or cap shots) differ, and the totals of each count.  It exits
1 on a verdict or check mismatch, else 0.  It is a report, not a test: 18
classify-cold ops take ~3 s, 4 free-fine ops ~10 s.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads, as in perfbench/run.py.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import sys
import tempfile
from pathlib import Path

#: The per-op counts, in output order.
COUNTS = ("solve_banded", "back_solve", "cap_shots")

#: Answer fields per workload, in output order.
FIELDS = {
    "classify-cold": ("r_star", "zeta", "xi"),
    "free-fine": ("xi", "r_equiv"),
    "physmap-cli": ("xi", "wall_length"),
}


def _summary(out_dir: Path) -> dict:
    kv = out_dir / "summary.kv"
    if not kv.is_file():
        return {}
    lines = kv.read_text(encoding="utf-8").splitlines()
    return dict(line.partition("=")[::2] for line in lines)


def _answer(name: str, inp, out) -> tuple[str, dict]:
    """(verdict, answer fields) of one op's output."""
    if name == "classify-cold":
        res = out[1]
        return res.verdict, {f: getattr(res, f) for f in FIELDS[name]}
    if name == "free-fine":
        if hasattr(out, "reason"):
            return f"no-solution:{out.reason}", {f: None for f in FIELDS[name]}
        return "flow", {f: getattr(out, f) for f in FIELDS[name]}
    summary = _summary(inp[1])
    values = {f: float(summary[f]) if f in summary else None for f in FIELDS[name]}
    return f"rc={out} status={summary.get('status')}", values


def record(name: str, seed: int, ops: int) -> dict:
    """Run the first ``ops`` ops of workload ``name`` at ``seed``."""
    root = Path.cwd()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads
    from jetstream import fixedbvp, freebnd, numerics

    counts = {key: 0 for key in COUNTS}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    for key in ("solve_banded", "back_solve"):
        setattr(numerics, key, counted(key, getattr(numerics, key)))
    solve_fixed = fixedbvp.solve_fixed

    def shot(zeta, xi, cfg, gas, consts, *args, **kwargs):
        if xi == consts.zeta_cap and not kwargs.get("free_xi"):
            counts["cap_shots"] += 1
        return solve_fixed(zeta, xi, cfg, gas, consts, *args, **kwargs)

    for module in (fixedbvp, freebnd):
        module.solve_fixed = shot

    rows = []
    with tempfile.TemporaryDirectory(prefix=f"op-answers-{name}-") as tmp:
        workload = workloads.WORKLOADS[name](seed, Path(tmp))
        workload.setup()
        for k in range(ops):
            inp = workload.make_input(k)
            for key in counts:
                counts[key] = 0
            try:
                out = workload.run_op(inp)
            except Exception as exc:  # recorded as the op's verdict
                verdict = f"error:{type(exc).__name__}"
                answer, check = {f: None for f in FIELDS[name]}, str(exc)
            else:
                verdict, answer = _answer(name, inp, out)
                check = workload.check(inp, out)
            rows.append({"op": k, "verdict": verdict, "answer": answer,
                         "counts": dict(counts), "check": check})
    return {"workload": name, "seed": seed, "ops": rows}


def _rel(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return 0.0 if scale == 0.0 else abs(a - b) / scale


def compare(path_a: str, path_b: str) -> int:
    a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in (path_a, path_b))
    if (a["workload"], a["seed"]) != (b["workload"], b["seed"]):
        print(f"records differ in workload or seed: {a['workload']} seed {a['seed']} "
              f"against {b['workload']} seed {b['seed']}")
        return 1
    rows = list(zip(a["ops"], b["ops"]))
    if len(a["ops"]) != len(b["ops"]):
        print(f"op counts differ: {len(a['ops'])} against {len(b['ops'])}; "
              f"comparing the first {len(rows)}")
    bad = 0
    worst = {f: 0.0 for f in FIELDS[a["workload"]]}
    for ra, rb in rows:
        k = ra["op"]
        if ra["verdict"] != rb["verdict"]:
            bad += 1
            print(f"op {k}: verdict {ra['verdict']} against {rb['verdict']}")
        if ra["check"] != rb["check"]:
            bad += 1
            print(f"op {k}: check {ra['check']!r} against {rb['check']!r}")
        for f in worst:
            va, vb = ra["answer"][f], rb["answer"][f]
            if (va is None) != (vb is None):
                bad += 1
                print(f"op {k}: {f} {va!r} against {vb!r}")
            elif va is not None:
                worst[f] = max(worst[f], _rel(va, vb))
        if ra["counts"] != rb["counts"]:
            print(f"op {k}: counts {ra['counts']} against {rb['counts']}")
    print(f"{a['workload']} seed {a['seed']}: {len(rows)} ops, {bad} verdict/check "
          f"mismatches")
    for f, d in worst.items():
        print(f"  max relative difference of {f}: {d:.3g}")
    for key, label in zip(COUNTS, ("factorizations", "back-solves", "cap shots")):
        ta, tb = (sum(r["counts"][key] for r in ops)
                  for ops in (a["ops"][: len(rows)], b["ops"][: len(rows)]))
        print(f"  {label} {ta} / {tb}")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(FIELDS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--ops", type=int)
    parser.add_argument("--out", help="JSON file the record is written to")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two records instead of running")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if None in (args.workload, args.seed, args.ops, args.out) or args.ops < 1:
        parser.error("--workload, --seed, --ops (>= 1) and --out are required to record")
    rec = record(args.workload, args.seed, args.ops)
    Path(args.out).write_text(json.dumps(rec, indent=1) + "\n", encoding="utf-8")
    failed = sum(r["check"] is not None for r in rec["ops"])
    print(f"{args.workload} seed {args.seed}: {len(rec['ops'])} ops, {failed} failed checks")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
