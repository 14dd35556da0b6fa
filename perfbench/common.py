"""Shared helpers: checkout paths, host fingerprint, statistics, children."""

from __future__ import annotations

import json
import math
import os
import sys
from pathlib import Path

# Other standard modules are imported where they are used: the worker
# imports this module before it is ready, and its set-up time should
# hold ``repro``'s start-up, not the benchmark's.

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: working space for caches, spans and traces; inside the checkout
RUN_DIR = ROOT / ".perfbench_run"
#: share of a traced run spent on untraced operations, which the traced
#: ones (the same operations again) are compared against
UNTRACED_SHARE = 0.4
#: the interpreter running the benchmark runs every child too
PYTHON = sys.executable


def require_program() -> None:
    """Exit with an error when the checkout holds no ``repro`` sources."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}/repro",
              file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for a child that runs ``repro`` from the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONSTARTUP", None)
    return env


def host_fingerprint() -> dict:
    """The facts a timing depends on beyond the code under test."""
    import platform
    from importlib import metadata

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def version(dist: str) -> str | None:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "networkx": version("networkx"),
    }


# -- statistics -------------------------------------------------------------


def median(values) -> float:
    import statistics

    return statistics.median(values)


def tail(values) -> tuple[float, float]:
    """(value, percentile) of the highest percentile, at most p99, that
    still has at least ten samples beyond it.

    With fewer than 21 samples no percentile above the median qualifies,
    so the median is returned with percentile 50.
    """
    ordered = sorted(values)
    n = len(ordered)
    index = min(math.ceil(0.99 * n) - 1, n - 11)
    if index < n // 2:  # not above the median
        return median(ordered), 50.0
    return ordered[index], 100.0 * (index + 1) / n


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    import statistics

    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = median(values)
    return (q3 - q1) / mid if mid else 0.0


# -- children ---------------------------------------------------------------


def wait_rss(proc, timeout: float = 120.0) -> tuple[int, float]:
    """Reap ``proc``; return (exit code, its peak RSS in MB).

    A child still running after ``timeout`` seconds is killed.
    """
    import threading

    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        _pid, status, usage = os.wait4(proc.pid, 0)
    except BaseException:  # interrupted: stop the child before leaving
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def emit(info: dict, correct: bool, attempted: int, failed: int,
         metrics: dict) -> None:
    """Print the run's context line, then the result as the last line."""
    print("perfbench: " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }), flush=True)
