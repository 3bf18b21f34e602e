"""The desk configuration every workload starts from.

Kept apart from the workloads so that ``setup_probe.py`` can read it in a
fresh interpreter without importing any solver code before its clock starts.
"""

import math

GAMMA = 1.4
DESK = {"R0": 1.0, "vartheta": math.pi / 6, "m": 0.25, "c_e": 0.8}
