"""Size sweep of agekit.smoothing.lowess_values, printed as one JSON object.

    PYTHONPATH=src python3 bench/lowess_sweep.py > sweep.json

Times lowess_values at the default fraction 0.3, best of 3 calls, at
n = 1k, 4k, 16k and 64k on two grids: the simulator's uniform hour axis
(tick * 15 / 3600) and an irregular axis with 20-100 s gaps. Three more rows
time 4k, 16k and 64k on the uniform grid with 2 robustness passes, which
run the block fit on every row. Two small rows follow: 500 irregular
samples, the size of a perfbench fit-irregular series, and a "gap" grid of
100 samples, 50 on [0, 1] and 50 on [1000, 1000.001]. Its one block spans
the gap, so every row's moments are ill posed and each row is refitted on
its own. The last rows time the window search, smoothing._windows, alone:
at 500 irregular samples per call over a batch of 100 calls, and at 16k on
both grids. agekit is imported from the path, so pointing PYTHONPATH at
another checkout's src/ sweeps that checkout with the same inputs. Not part of the test suite: the largest sizes
take minutes on code that is quadratic in n.
"""

import math

import numpy as np

from agekit.smoothing import _windows, lowess_values
from harness import best_time, report

SIZES = (1_000, 4_000, 16_000, 64_000)
SEED = 0
WINDOW_CASES = (("irregular", 500, 100), ("irregular", 16_000, 1), ("uniform", 16_000, 1))


def grid(kind, n):
    if kind == "uniform":
        return np.arange(n) * 15 / 3600
    if kind == "gap":
        half = n // 2
        far = np.linspace(1000.0, 1000.001, n - half)
        return np.concatenate([np.linspace(0.0, 1.0, half), far])
    rng = np.random.default_rng(SEED)
    return np.cumsum(rng.uniform(20.0, 100.0, n)) / 3600


def main():
    cases = [(kind, n, 0) for kind in ("uniform", "irregular") for n in SIZES]
    cases += [("uniform", n, 2) for n in SIZES[1:]]
    cases += [("irregular", 500, 0), ("gap", 100, 0)]
    rows = []
    for kind, n, robust_iterations in cases:
        t = grid(kind, n)
        noise = np.random.default_rng(SEED + 1).normal(0.0, 2.0, n)
        values = 60.0 - 40.0 * np.tanh(t / 20.0) + noise
        seconds = best_time(lambda: lowess_values(t, values, 0.3, robust_iterations))
        rows.append(
            {
                "grid": kind,
                "n": n,
                "robust_iterations": robust_iterations,
                "best_s": round(seconds, 6),
            }
        )
    for kind, n, calls in WINDOW_CASES:
        t = grid(kind, n)
        window = math.ceil(0.3 * n)
        seconds = best_time(lambda: [_windows(t, window) for _ in range(calls)]) / calls
        rows.append({"layer": "_windows", "grid": kind, "n": n, "best_s": round(seconds, 7)})
    report(rows, fraction=0.3)


if __name__ == "__main__":
    main()
