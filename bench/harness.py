"""Timing and reporting shared by the size sweeps in this directory.

Each sweep imports it as ``harness`` (Python puts a script's own directory
first on the path) and prints one JSON object through ``report``: the
environment, the sweep's settings, the repeat count and its result rows.
"""

import hashlib
import json
import os
import platform
import time
from pathlib import Path

import numpy as np

import agekit

REPEATS = 3


def best_time(call):
    """Fastest wall time of REPEATS calls of ``call()``, in seconds."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


def source_digest():
    """Short sha256 over agekit's modules, naming the code that was timed."""
    digest = hashlib.sha256()
    for path in sorted(Path(agekit.__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return digest.hexdigest()[:16]


def report(results, **settings):
    """Print the sweep's rows with the environment and settings they were taken under."""
    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "src_sha256": source_digest(),
    }
    print(json.dumps({"env": env, **settings, "repeats": REPEATS, "results": results}, indent=1))
