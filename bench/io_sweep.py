"""Size sweep of agekit's CSV layers, printed as one JSON object.

    PYTHONPATH=src python3 bench/io_sweep.py > sweep.json

Times load_trace and trace_csv on simulator traces of n rows (the shipped
aging mix under the random law, seed 0), and load_series on t,value series
of n rows (uniform 15 s grid, a seeded random walk written with shortest
round-trip floats), best of 3 calls, at n = 1k, 4k, 16k and 172 800 rows (one
month of 15 s ticks). Inputs are written once per size to a temporary
directory. agekit is imported from the path, so pointing PYTHONPATH at
another checkout's src/ sweeps that checkout with the same inputs. Not part
of the test suite: building the largest trace takes seconds.
"""

import os
import tempfile

import numpy as np

from agekit.simulator import SimConfig, load_trace, parse_workload, run, trace_csv, write_trace
from agekit.timeseries import MetricSeries, Orientation, load_series, save_series
from harness import best_time, report

WORKLOAD = "600,0,100,20,1000,0"
SIZES = (1_000, 4_000, 16_000, 172_800)
SEED = 0


def row(layer, n, seconds):
    return {
        "layer": layer,
        "rows": n,
        "best_s": round(seconds, 6),
        "us_per_row": round(seconds / n * 1e6, 3),
    }


def main():
    cfg = SimConfig()
    load = parse_workload(WORKLOAD)
    rng = np.random.default_rng(SEED)
    rows = []
    with tempfile.TemporaryDirectory() as work:
        for n in SIZES:
            states = run(cfg, load, ticks=n - 1, seed=SEED)
            trace = os.path.join(work, f"trace_{n}.csv")
            write_trace(trace, states)
            t = np.arange(n) * 15.0
            values = 100.0 + np.cumsum(rng.normal(0.0, 1.0, n))
            series = os.path.join(work, f"series_{n}.csv")
            save_series(MetricSeries("series", Orientation.HIGHER_IS_WORSE, t, values), series)
            rows.append(row("trace_csv", n, best_time(lambda: trace_csv(states))))
            rows.append(row("load_trace", n, best_time(lambda: load_trace(trace))))
            rows.append(
                row(
                    "load_series",
                    n,
                    best_time(lambda: load_series(series, "series", Orientation.HIGHER_IS_WORSE)),
                )
            )
    report(rows, seed=SEED)


if __name__ == "__main__":
    main()
