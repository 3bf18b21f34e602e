"""The benchmark tracer's view of the package still matches the package.

``perfbench/layers.py`` names the functions it wraps and reads
``solve_fixed``'s options positionally; a refactor that renames or reorders
them would otherwise break only the traced benchmark run."""

import importlib
import importlib.util
import inspect
from pathlib import Path

from jetstream import fixedbvp
from jetstream.gasdyn import GasModel

_LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", _LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist():
    layers = _layers()
    for modname, attr in layers.FUNCTIONS:
        module = importlib.import_module(f"jetstream.{modname}")
        assert callable(getattr(module, attr, None)), f"jetstream.{modname}.{attr}"


def test_traced_lookups_are_gas_model_methods():
    # The tracer patches them on the class itself, not on a base class.
    for method in _layers().LOOKUPS:
        assert callable(GasModel.__dict__.get(method)), f"GasModel.{method}"


def test_solve_fixed_takes_options_sixth():
    # The tracer reads the requested grid from args[5] of a solve_fixed call.
    params = list(inspect.signature(fixedbvp.solve_fixed).parameters)
    assert params[5] == "options"
