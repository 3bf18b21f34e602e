"""Outside-in tracer for the jetstream layers.

The tracer wraps the public functions of the solver modules by replacing
module attributes, including the copies other modules bound with
``from .x import f`` (``freebnd.solve_fixed``, ``cli.solve_outlet``, ...):
every jetstream module attribute that *is* the original function is
swapped, so no call path escapes its span.  The vectorized table lookups
``GasModel.fast_*`` are wrapped on the class.  Scalar hot paths such as
``GasModel.rho`` are left alone on purpose: quadrature calls them tens of
thousands of times per op and a span there would dominate the trace.

Each call records a span (name, start, end, parent, op id, plus a few
counts read from the call's arguments and result).  Spans stay in memory
and are written out when the run ends.  A span's self time is its
duration minus the time its child spans cover; calls are synchronous and
single-threaded, so children never overlap and that cover is their sum.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

import numpy as np

#: Public functions traced as spans named "<module>.<function>".
FUNCTIONS = (
    ("gasdyn", "derive_constants"),
    ("numerics", "solve_banded"),
    ("numerics", "banded_matvec"),
    ("fixedbvp", "build_grid"),
    ("fixedbvp", "solve_fixed"),
    ("freebnd", "solve_outlet"),
    ("freebnd", "find_zeta_star"),
    ("freebnd", "match_R"),
    ("freebnd", "classify_radius"),
    ("physmap", "recover_theta"),
    ("physmap", "reconstruct"),
    ("physmap", "geometry_checks"),
    ("cli", "main"),
)

#: Vectorized table lookups on GasModel, traced as "gasdyn.lookup.<method>".
LOOKUPS = (
    "fast_A",
    "fast_B",
    "fast_q_of_A",
    "fast_F_of_A",
    "fast_Fprime_of_A",
    "fast_q_of_j",
)
_LOOKUP_PREFIX = "gasdyn.lookup."

#: Per-layer metrics reported by a traced run, in output order: (name, unit).
PER_LAYER = (
    ("numerics.solve_banded.calls", "count"),
    ("numerics.solve_banded.self_s", "s"),
    ("numerics.solve_banded.unknowns", "count"),
    ("numerics.solve_banded.band_mb_computed", "MB"),
    ("numerics.banded_matvec.self_s", "s"),
    ("fixedbvp.solve_fixed.calls", "count"),
    ("fixedbvp.solve_fixed.self_s", "s"),
    ("fixedbvp.newton_iters", "count"),
    ("fixedbvp.failures", "count"),
    ("fixedbvp.cells", "count"),
    ("fixedbvp.grid_inflation_max", "ratio"),
    ("gasdyn.lookup.calls", "count"),
    ("gasdyn.lookup.points", "count"),
    ("gasdyn.lookup.self_s", "s"),
    ("gasdyn.derive_constants.calls", "count"),
    ("gasdyn.derive_constants.self_s", "s"),
    ("freebnd.solve_outlet.calls", "count"),
    ("freebnd.solve_outlet.self_s", "s"),
    ("freebnd.shots_per_free_solve", "ratio"),
    ("freebnd.nonexistence", "count"),
    ("freebnd.probes_per_classify", "ratio"),
    ("freebnd.find_zeta_star.probes", "count"),
    ("freebnd.floor_limited_share", "ratio"),
    ("physmap.recover_theta.self_s", "s"),
    ("physmap.reconstruct.self_s", "s"),
    ("physmap.geometry_checks.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("trace.ops_per_s", "1/s"),
)


class Span:
    __slots__ = ("idx", "name", "start", "end", "parent", "op", "child_s", "info")

    def __init__(self, idx, name, parent, op):
        self.idx = idx
        self.name = name
        self.parent = parent
        self.op = op
        self.child_s = 0.0
        self.info = {}

    def self_s(self) -> float:
        return self.end - self.start - self.child_s

    def ancestor(self, name):
        p = self.parent
        while p is not None and p.name != name:
            p = p.parent
        return p


# Counts read at the call boundary, keyed by span name.


def _note_banded(info, args, kwargs, result):
    system = args[0] if args else kwargs["sys"]
    info["n"] = system.n
    # LAPACK gbsv factors in (2l + u + 1) x n storage (room for fill-in).
    info["rows"] = 2 * system.l + system.u + 1


def _note_solve_fixed(info, args, kwargs, result):
    options = args[5] if len(args) > 5 else kwargs.get("options")
    if options is None:
        from jetstream.fixedbvp import SolverOptions

        options = SolverOptions()
    info["n_phi"] = result.grid.n_phi
    info["n_psi"] = result.grid.n_psi
    info["requested_n_phi"] = options.n_phi
    info["newton_iters"] = result.newton_iters


def _note_solve_outlet(info, args, kwargs, result):
    info["nonexistence"] = not hasattr(result, "field")


def _note_find_zeta_star(info, args, kwargs, result):
    info["floor_limited"] = bool(result.floor_limited)


def _note_lookup(info, args, kwargs, result):
    info["points"] = int(np.size(args[1]))


def _note_cli(info, args, kwargs, result):
    info["rc"] = result


_NOTES = {
    "numerics.solve_banded": _note_banded,
    "fixedbvp.solve_fixed": _note_solve_fixed,
    "freebnd.solve_outlet": _note_solve_outlet,
    "freebnd.find_zeta_star": _note_find_zeta_star,
    "cli.main": _note_cli,
}


class Tracer:
    """Span recorder.  ``op`` is the id stamped on new spans (-1 = set-up).

    An uninstalled tracer is inert, so untraced runs share the same code
    path without paying for spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[Span] = []
        self._paused = 0
        self._patches: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside (input generation, output checks) are not traced."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    def _wrap(self, name, fn):
        note = _NOTES.get(name)
        if name.startswith(_LOOKUP_PREFIX):
            note = _note_lookup
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span = Span(len(tracer.spans), name, stack[-1] if stack else None, tracer.op)
            tracer.spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.info["error"] = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.end - span.start
            if note is not None:
                note(span.info, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Patch every jetstream module attribute bound to a traced function."""
        import jetstream.cli  # noqa: F401  (cli is not imported by the package)
        from jetstream.gasdyn import GasModel

        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "jetstream" or n.startswith("jetstream.")) and m is not None]
        for modname, attr in FUNCTIONS:
            original = getattr(sys.modules[f"jetstream.{modname}"], attr)
            wrapper = self._wrap(f"{modname}.{attr}", original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, value))
                        setattr(module, key, wrapper)
        for method in LOOKUPS:
            original = GasModel.__dict__[method]
            self._patches.append((GasModel, method, original))
            setattr(GasModel, method, self._wrap(_LOOKUP_PREFIX + method, original))

    def uninstall(self):
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                parent = s.parent.idx if s.parent is not None else None
                fh.write(json.dumps([s.idx, s.name, s.start, s.end, parent, s.op, s.info]))
                fh.write("\n")


def layer_metrics(spans, ops: int, op_seconds: float, bytes_written: int) -> dict:
    """Per-layer metrics of a traced run, keyed as in PER_LAYER."""
    by: dict[str, list[Span]] = {}
    for s in spans:
        by.setdefault(s.name, []).append(s)

    def calls(name):
        return len(by.get(name, ()))

    def self_s(name):
        return sum(s.self_s() for s in by.get(name, ()))

    banded = by.get("numerics.solve_banded", [])
    fixed_ok = [s for s in by.get("fixedbvp.solve_fixed", []) if "error" not in s.info]
    lookups = [s for s in spans if s.name.startswith(_LOOKUP_PREFIX)]
    outer_lookups = [s for s in lookups
                     if s.parent is None or not s.parent.name.startswith(_LOOKUP_PREFIX)]
    outlets = by.get("freebnd.solve_outlet", [])
    shots = sum(1 for s in by.get("fixedbvp.solve_fixed", [])
                if s.ancestor("freebnd.solve_outlet") is not None)
    classify_probes = sum(1 for s in outlets if s.ancestor("freebnd.classify_radius") is not None)
    zs_probes = [s for s in outlets
                 if s.parent is not None and s.parent.name == "freebnd.find_zeta_star"]
    # A find_zeta_star call answered from its module cache probes nothing;
    # the share is taken over the searches that actually ran.
    searches = list({id(s.parent): s.parent for s in zs_probes}.values())
    n_classify = calls("freebnd.classify_radius")

    values = {
        "numerics.solve_banded.calls": len(banded),
        "numerics.solve_banded.self_s": self_s("numerics.solve_banded"),
        "numerics.solve_banded.unknowns": sum(s.info.get("n", 0) for s in banded),
        "numerics.solve_banded.band_mb_computed": sum(
            8 * s.info.get("n", 0) * s.info.get("rows", 0) for s in banded) / 1e6,
        "numerics.banded_matvec.self_s": self_s("numerics.banded_matvec"),
        "fixedbvp.solve_fixed.calls": calls("fixedbvp.solve_fixed"),
        "fixedbvp.solve_fixed.self_s": self_s("fixedbvp.solve_fixed"),
        "fixedbvp.newton_iters": sum(s.info["newton_iters"] for s in fixed_ok),
        "fixedbvp.failures": calls("fixedbvp.solve_fixed") - len(fixed_ok),
        "fixedbvp.cells": sum(s.info["n_phi"] * s.info["n_psi"] for s in fixed_ok),
        "fixedbvp.grid_inflation_max": max(
            (s.info["n_phi"] / s.info["requested_n_phi"] for s in fixed_ok), default=0.0),
        "gasdyn.lookup.calls": len(outer_lookups),
        "gasdyn.lookup.points": sum(s.info.get("points", 0) for s in outer_lookups),
        "gasdyn.lookup.self_s": sum(s.self_s() for s in lookups),
        "gasdyn.derive_constants.calls": calls("gasdyn.derive_constants"),
        "gasdyn.derive_constants.self_s": self_s("gasdyn.derive_constants"),
        "freebnd.solve_outlet.calls": len(outlets),
        "freebnd.solve_outlet.self_s": self_s("freebnd.solve_outlet"),
        "freebnd.shots_per_free_solve": shots / len(outlets) if outlets else 0.0,
        "freebnd.nonexistence": sum(1 for s in outlets if s.info.get("nonexistence")),
        "freebnd.probes_per_classify": classify_probes / n_classify if n_classify else 0.0,
        "freebnd.find_zeta_star.probes": len(zs_probes),
        "freebnd.floor_limited_share": (
            sum(1 for s in searches if s.info.get("floor_limited")) / len(searches)
            if searches else 0.0),
        "physmap.recover_theta.self_s": self_s("physmap.recover_theta"),
        "physmap.reconstruct.self_s": self_s("physmap.reconstruct"),
        "physmap.geometry_checks.self_s": self_s("physmap.geometry_checks"),
        "cli.main.self_s": self_s("cli.main"),
        "cli.bytes_written": bytes_written,
        "trace.ops_per_s": ops / op_seconds if op_seconds > 0 else 0.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
