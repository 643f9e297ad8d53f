"""The README's Quick start block runs against the library in src/ and
prints what its comments say."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]


def quick_start():
    """The first python block after the Quick start heading."""
    text = (ROOT / "README.md").read_text()
    return re.search(r"## Quick start\s+```python\n(.*?)```", text, re.S).group(1)


def test_quick_start_runs_and_prints_its_comments(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    # tier-1's warning policy, which a subprocess does not inherit
    cmd = [sys.executable, "-W", "error::RuntimeWarning", "-c", quick_start()]
    proc = subprocess.run(cmd, cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    candidate, _, verdict = proc.stdout.splitlines()
    el_residual, max_u = map(float, candidate.split())
    assert el_residual <= 1e-8
    assert max_u == pytest.approx(3.708, abs=1e-3)
    case, coefficient = verdict.split()
    assert case == "i"
    assert float(coefficient) == pytest.approx(1 / 14, abs=1e-12)
