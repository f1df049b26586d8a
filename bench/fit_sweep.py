"""Size sweep of the ``agekit fit`` command, printed as one JSON object.

    PYTHONPATH=src python3 bench/fit_sweep.py > sweep.json

Times agekit.cli.main(["fit", ...]) in process, best of 3 calls, on 1, 8 and
32 input files per call, the files having 300, 700 or 4 000 samples each
(300 and 700 bound the perfbench fit-irregular sizes). Each file is a seeded
growth law x^beta * exp(alpha * x) on an irregular grid with 20-100 s gaps,
x being the time mapped onto (0, 10], with 5 % multiplicative noise and 500
added, read as higher-is-worse; alpha is 0, the solver's active bound, on
even files. Each row gives the time per call and per input file, so a
per-call cost (the report's atomic write and fsync) shows at 1 input and a
per-input cost at 32. Inputs are written once to a temporary directory, and
the report goes there too. agekit is imported from the path, so pointing PYTHONPATH at
another checkout's src/ sweeps that checkout with the same inputs. Not part
of the test suite: the 4 000-sample rows take seconds.
"""

import os
import tempfile

import numpy as np

from agekit.cli import main
from harness import best_time, report

SIZES = (300, 700, 4_000)
INPUTS = (1, 8, 32)
SEED = 0
SPACING_S = (20.0, 100.0)
NOISE = 0.05


def write_inputs(directory, n, count, rng):
    """``count`` t,value files of n samples; returns their paths."""
    paths = []
    for i in range(count):
        alpha = 0.0 if i % 2 == 0 else rng.uniform(0.05, 0.4)
        beta = rng.uniform(0.3, 1.5)
        t = np.cumsum(rng.uniform(*SPACING_S, n))
        x = 10.0 * t / t[-1]
        law = np.exp(alpha * x) * x**beta
        values = 500.0 + 100.0 * law * (1.0 + rng.uniform(-NOISE, NOISE, n))
        path = os.path.join(directory, f"series_{n}_{i:02d}.csv")
        lines = ["t,value"] + [f"{a!r},{b!r}" for a, b in zip(t.tolist(), values.tolist())]
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write("\n".join(lines) + "\n")
        paths.append(path)
    return paths


def main_sweep():
    rng = np.random.default_rng(SEED)
    rows = []
    with tempfile.TemporaryDirectory() as work:
        out = os.path.join(work, "report.csv")
        for n in SIZES:
            paths = write_inputs(work, n, max(INPUTS), rng)
            for count in INPUTS:
                argv = ["fit", "--orientation", "higher-is-worse", "-o", out, *paths[:count]]
                if main(argv) != 0:
                    raise SystemExit(f"fit failed on {count} inputs of {n} samples")
                seconds = best_time(lambda: main(argv))
                rows.append(
                    {
                        "samples": n,
                        "inputs": count,
                        "best_s": round(seconds, 6),
                        "ms_per_input": round(seconds / count * 1e3, 3),
                    }
                )
    report(rows, sizes=SIZES, inputs=INPUTS, seed=SEED)


if __name__ == "__main__":
    main_sweep()
