"""README's examples run: the quick start's Python block and every line of
its command-line block, with warnings as errors."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import corrdet

_README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(heading: str, lang: str) -> str:
    """The first ``lang`` code block under the ``## heading`` section."""
    section = _README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def _run(args, cwd):
    src = os.path.dirname(os.path.dirname(corrdet.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-W", "error", *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=120)


def test_quick_start_runs(tmp_path):
    out = _run(["-c", _block("Library quick start", "python")], tmp_path)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip()


def test_command_line_examples_run_in_order(tmp_path):
    commands = [shlex.split(line, comments=True) for line in _block("Command line", "sh").splitlines()]
    commands = [c for c in commands if c]
    assert len(commands) >= 7 and all(c[0] == "corrdet" for c in commands)
    for argv in commands:
        out = _run(["-m", "corrdet.cli", *argv[1:]], tmp_path)
        assert out.returncode == 0, (argv, out.stderr)
