"""The demo scripts run to completion against the current API."""

import subprocess
import sys
from pathlib import Path

import pytest

from tests.conftest import source_env

DEMOS = Path(__file__).resolve().parents[1] / "demos"

# (script, lines its output must contain)
HEADERS = {
    "convergence_demo.py": [
        "orientation = 'outward'",
        "orientation = 'paper'",
        "  k          E_k    ratio       sup|e|",
    ],
    "phi_boundary_demo.py": [
        "worst interior/boundary Phi ratio over 20 sweeps "
        "(< 1 means the boundary-maximum property holds)",
        "        case   theta=0   theta=6  theta=10",
    ],
    "p_sweep_demo.py": [
        "sweep finished with exit status 0",
        "     p  iterations     final E  mean ratio",
    ],
}


def test_every_demo_is_covered():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(HEADERS)


@pytest.mark.parametrize("script", sorted(HEADERS))
def test_demo_runs(tmp_path, script):
    proc = subprocess.run([sys.executable, str(DEMOS / script)], cwd=tmp_path,
                          env=source_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for header in HEADERS[script]:
        assert header in lines
