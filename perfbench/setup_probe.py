"""One cold set-up of the solver, run in a fresh interpreter by ``run.py``.

It does what a user's process does before its first solve: import the
package (and the command line, which adds YAML), build the gas model with
its lookup tables, and derive the constants of the desk configuration.  It
prints the seconds those steps took; interpreter start-up is not counted.

    python3 perfbench/setup_probe.py <checkout>/src [--cli]
"""

import sys
import time

from desk import DESK, GAMMA


def main(argv) -> int:
    t0 = time.perf_counter()
    sys.path.insert(0, argv[0])
    import jetstream as js

    if "--cli" in argv[1:]:
        import jetstream.cli  # noqa: F401

    gas = js.GasModel(GAMMA)
    js.derive_constants(gas, js.FlowConfig(**DESK))
    print(repr(time.perf_counter() - t0))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
