"""Smoke test: each walkthrough in demos/ runs to completion."""

import os
import pathlib
import subprocess
import sys

import pytest

import stratseg

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("demo", ["demo_segmentation.py", "demo_gda.py"])
def test_demo_runs(tmp_path, demo):
    src = os.path.dirname(os.path.dirname(os.path.abspath(stratseg.__file__)))
    proc = subprocess.run(
        [sys.executable, str(DEMOS / demo)],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
