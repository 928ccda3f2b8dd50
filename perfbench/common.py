"""Helpers shared by the benchmark's processes (stdlib only)."""

from __future__ import annotations

import json
import os
import resource
import sys
import time

#: The checkout root (the directory holding ``perfbench/`` and ``src/``).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch space for journals and span dumps; listed in .gitignore.
WORK = os.path.join(ROOT, ".perfbench_work")


def use_source_tree() -> None:
    """Import the program from this checkout's ``src/``."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def emit(event: str, **fields) -> None:
    """One JSON event line on stdout, flushed (the parent reads it live)."""
    fields["event"] = event
    print(json.dumps(fields), flush=True)


def peak_rss_mb() -> float:
    """High-water RSS of this process in MB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def now() -> float:
    """CLOCK_MONOTONIC seconds: comparable across this host's processes."""
    return time.monotonic()


def nproc() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0))
