"""The frozen oracle table is exactly what its generator prints."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_oracle_data_matches_generator():
    res = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "gen_oracles.py")],
        capture_output=True,
        check=True,
    )
    assert res.stdout == (ROOT / "tests" / "oracle_data.py").read_bytes()
