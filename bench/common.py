"""Paths, child processes and the machine stamp shared by every workload."""

from __future__ import annotations

import hashlib
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
CHILD_TIMEOUT_S = 150.0

# Time metrics are scaled to a machine on which one calibration() call
# takes this long.  On a shared 2-vCPU Xeon VM the interpreter's speed
# drifted by 10-40% over seconds to minutes; a time measured alongside a
# calibration and divided by it drifted far less, so runs of the same code
# agree.
CALIBRATION_REFERENCE_S = 0.0015
_CAL_DATA = [((i * 7919) % 10007) / 10007.0 for i in range(3000)]
_SAMPLE_DATA = _CAL_DATA[:600]


def source_present() -> bool:
    return os.path.isfile(os.path.join(SRC, "corrdet", "cli.py"))


def child_env() -> dict:
    """Environment for processes that run corrdet: this checkout's sources,
    default settings (no CORRDET_THREADS)."""
    env = {k: v for k, v in os.environ.items() if k != "CORRDET_THREADS"}
    env["PYTHONPATH"] = SRC
    return env


def run_child(argv: list[str], cwd: str, log_path: str) -> tuple[int, float, int]:
    """Run one process to completion; returns (exit code, wall s, peak RSS KiB).

    The process is killed after CHILD_TIMEOUT_S and always reaped.
    """
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=log, stderr=log)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, elapsed, usage.ru_maxrss


def calibration(data: list[float] = _CAL_DATA) -> float:
    """Time of a fixed interpreter workload -- dict inserts, a keyed sort,
    a filtered comprehension -- a gauge of how fast this machine runs
    Python code like corrdet's at the moment."""
    t0 = time.perf_counter()
    table = {}
    for i, v in enumerate(data):
        table[i] = (v, -v)
    sorted(data, key=lambda v: -v)
    [pair for pair in table.values() if pair[0] > 0.5]
    return time.perf_counter() - t0


class SpeedSampler:
    """Samples calibration() every ``interval_s`` from a SIGALRM handler
    while active, interleaving the gauge with the work being timed on the
    same CPU; their median is that work's machine speed.  Main thread
    only; an alarm that lands inside C code runs when the call returns."""

    def __init__(self, interval_s: float = 0.05) -> None:
        self.interval_s = interval_s
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        self.samples.append(calibration(_SAMPLE_DATA))

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # work shorter than one interval
            self._tick(None, None)

    def speed(self) -> float:
        """Median sample, in calibration() units."""
        return statistics.median(self.samples) * len(_CAL_DATA) / len(_SAMPLE_DATA)


def at_reference_speed(seconds: float, calibration_s: float) -> float:
    """A time measured while calibration() took ``calibration_s``, scaled
    to the reference speed."""
    return seconds * CALIBRATION_REFERENCE_S / calibration_s


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _source_digest() -> str:
    h = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(SRC, "corrdet")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def _git_commit() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def stamp(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Machine, library versions, code identity and seed of one run."""
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "unix_time": time.time(),
    }
