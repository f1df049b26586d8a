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

import numpy as np

from agekit.smoothing import lowess_values
from harness import best_time, report

SIZES = (1_000, 4_000, 16_000, 64_000)
SEED = 0


def grid(kind, n):
    if kind == "uniform":
        return np.arange(n) * 15 / 3600
    rng = np.random.default_rng(SEED)
    return np.cumsum(rng.uniform(20.0, 100.0, n)) / 3600


def main():
    cases = [(kind, n, 0) for kind in ("uniform", "irregular") for n in SIZES]
    cases.append(("uniform", 4_000, 2))
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
    report(rows, fraction=0.3)


if __name__ == "__main__":
    main()
