"""The quick demo scripts run to completion against the package in src/.

``train_and_measure.py`` trains two backbones and is left out for time.
``cli_walkthrough.sh`` calls ``opnas``, which a shim on PATH maps to
``python -m opnas.cli``, so the test needs no installed package.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", ["build_a_dag.py", "search_synthetic.py",
                                    "supernet_round_trip.py"])
def test_demo_runs(script, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(ROOT / "demos" / script)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    if script == "search_synthetic.py":
        assert "interrupted-then-resumed history identical: True" in done.stdout


def test_cli_walkthrough_runs(tmp_path):
    shim = tmp_path / "bin" / "opnas"
    shim.parent.mkdir()
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m opnas.cli "$@"\n')
    shim.chmod(0o755)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "TMPDIR": str(tmp_path),
           "PATH": f"{shim.parent}{os.pathsep}{os.environ.get('PATH', '')}"}
    done = subprocess.run(["bash", str(ROOT / "demos" / "cli_walkthrough.sh")],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    assert "--- token-uniformity metrics for both reference backbones ---" in done.stdout
