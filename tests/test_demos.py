"""Every demo runs to completion with warnings as errors."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import corrdet

_DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(_DEMOS) >= 5


@pytest.mark.parametrize("demo", _DEMOS, ids=lambda p: p.stem)
def test_demo_runs_under_warnings_as_errors(demo):
    src = os.path.dirname(os.path.dirname(corrdet.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-W", "error", str(demo)], env=env, capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip()
