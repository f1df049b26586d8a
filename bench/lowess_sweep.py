"""Size sweep of agekit.smoothing.lowess_values, printed as one JSON object.

    PYTHONPATH=src python3 bench/lowess_sweep.py > sweep.json

Times lowess_values at the default fraction 0.3, best of 3 calls, at
n = 1k, 4k, 16k and 64k on two grids: the simulator's uniform hour axis
(tick * 15 / 3600) and an irregular axis with 20-100 s gaps. One more row
times 4k on the uniform grid with 2 robustness passes. agekit is imported
from the path, so pointing PYTHONPATH at another checkout's src/ sweeps that
checkout with the same inputs. Not part of the test suite: the largest sizes
take minutes on code that is quadratic in n.
"""

import hashlib
import json
import os
import platform
import time
from pathlib import Path

import numpy as np

import agekit
from agekit.smoothing import lowess_values

SIZES = (1_000, 4_000, 16_000, 64_000)
REPEATS = 3
SEED = 0


def grid(kind, n):
    if kind == "uniform":
        return np.arange(n) * 15 / 3600
    rng = np.random.default_rng(SEED)
    return np.cumsum(rng.uniform(20.0, 100.0, n)) / 3600


def best_time(t, values, robust_iterations):
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        lowess_values(t, values, 0.3, robust_iterations)
        best = min(best, time.perf_counter() - start)
    return best


def source_digest():
    """Short sha256 over agekit's modules, naming the code that was timed."""
    digest = hashlib.sha256()
    for path in sorted(Path(agekit.__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return digest.hexdigest()[:16]


def main():
    cases = [(kind, n, 0) for kind in ("uniform", "irregular") for n in SIZES]
    cases.append(("uniform", 4_000, 2))
    rows = []
    for kind, n, robust_iterations in cases:
        t = grid(kind, n)
        noise = np.random.default_rng(SEED + 1).normal(0.0, 2.0, n)
        values = 60.0 - 40.0 * np.tanh(t / 20.0) + noise
        seconds = best_time(t, values, robust_iterations)
        rows.append(
            {
                "grid": kind,
                "n": n,
                "robust_iterations": robust_iterations,
                "best_s": round(seconds, 6),
            }
        )
    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "src_sha256": source_digest(),
    }
    print(json.dumps({"env": env, "fraction": 0.3, "repeats": REPEATS, "results": rows}, indent=1))


if __name__ == "__main__":
    main()
