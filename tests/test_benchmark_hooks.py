"""The benchmark's tracer wraps layersched functions by module attribute
name; every name it wraps must still exist, or a traced benchmark run dies."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_on_the_current_package():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "benchmarks"), str(ROOT / "src")])}
    result = subprocess.run(
        [sys.executable, "-c", "import tracer; tracer.install()"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
