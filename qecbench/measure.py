"""Shared measuring helpers and the outcome every workload returns."""

from __future__ import annotations

import os
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

from qecbench.taskset import Answers

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

_IMPORT = (
    "import time; start = time.perf_counter(); import repro.api, repro.service; "
    "print(time.perf_counter() - start)"
)


@dataclass
class Outcome:
    answers: Answers
    metrics: dict[str, float] = field(default_factory=dict)
    #: latency samples behind task_s_p50 / task_s_p90, and the tasks they cover
    samples: int = 0
    tasks: int = 0
    #: per traced pass: the share of its wall time no span's self time covers
    unaccounted: list[float] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


def child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": f"{SRC}{os.pathsep}{path}" if path else str(SRC)}


def import_seconds() -> float:
    """Seconds to import the public API in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT], cwd=ROOT, env=child_env(),
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(out.stdout.strip())


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def task_percentiles(samples: list[tuple[str, float]]) -> tuple[float, float, int]:
    """``task_s_p50`` and ``task_s_p90`` from ``(task id, seconds)`` samples,
    and the number of tasks they cover.

    Both are percentiles over the task set of each task's median time.  The
    tasks' times differ by up to 400x and cluster by task, so a percentile of
    the pooled samples falls at the edge between two tasks and moves with
    whichever single sample of either is the slowest or fastest; and with
    random draws it moves with the share each task got.  A task's median
    over a run does neither.
    """
    by_task: dict[str, list[float]] = {}
    for task, seconds in samples:
        by_task.setdefault(task, []).append(seconds)
    medians = [statistics.median(times) for times in by_task.values()]
    return percentile(medians, 50), percentile(medians, 90), len(medians)


def self_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
