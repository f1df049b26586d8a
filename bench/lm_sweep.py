"""Size sweep of agekit.fitting.levenberg_marquardt, printed as one JSON object.

    PYTHONPATH=src python3 bench/lm_sweep.py > sweep.json

Times levenberg_marquardt from fit's own log-space start, best of 3 calls, on
three kinds of input: the aging curve `report` fits to a simulator trace of n
ticks (the shipped aging mix under the random law, seed 0; n = 1k, 4k and 16k
only, because LOWESS is quadratic in n); two seeded noisy growth laws on
(0, 10] hours, one with alpha = 0 (the solver's active bound) and one with
alpha > 0, at n = 300, 500 and 700 (the `fit-irregular` sizes), 1k, 4k, 16k
and 172 800 samples (one month of 15 s ticks); and eight long, fast-growing
raw curves (seeds 0-7): 4 000 samples 20-100 s apart (67 hours) of
500 + 100 h**beta e^(alpha h) with alpha in 0.3-0.4, beta in 0.5-1.5 and 5 %
noise, normalized without smoothing, which puts their K at 1e-9 or far less.
Each row gives the iterations, the best time per iteration (us_per_iteration:
at the small sizes mostly the fixed cost of an iteration), whether the solver
reported convergence, the final SSR and the final largest free-column cosine
|J_j^T r| / (||J_j|| ||r||), computed here from the returned parameters so
that every checkout is judged by the same rule (a column is free unless its
parameter is at 0 with the descent direction pointing below it), and the
first call's time apart from the best of 3 (first_s): a first call that pays
for waking a BLAS thread shows there and not in best_s. guess_s is the best of
3 calls of the start itself, fitting._initial_guess, so a start that costs
more shows beside the iterations it saves. agekit is imported from the path,
so pointing PYTHONPATH at another checkout's src/ sweeps that checkout with
the same inputs. Not part of the test suite: the largest size takes seconds
per call.
"""

import time

import numpy as np

from agekit.fitting import _initial_guess, levenberg_marquardt
from agekit.normalize import normalize_only
from agekit.simulator import SimConfig, aging_degree, parse_workload, run
from agekit.timeseries import Orientation
from harness import best_time, report

WORKLOAD = "600,0,100,20,1000,0"
SIZES = (300, 500, 700, 1_000, 4_000, 16_000, 172_800)
CURVE_SIZES = (1_000, 4_000, 16_000)
SEED = 0
LAWS = {"power-law": (0.3, 0.0, 1.1), "growth-law": (0.2, 0.1, 1.2)}  # K, alpha, beta
LONG_SEEDS = range(8)


def aging_curve(n):
    cfg = SimConfig()
    columns = run(cfg, parse_workload(WORKLOAD), ticks=n, seed=SEED).columns()
    curve = aging_degree(columns["tick"], columns["bandwidth_kbyte"], cfg)
    return np.asarray(curve.t), np.asarray(curve.y)


def growth_law(params, n):
    K, alpha, beta = params
    t = np.linspace(10.0 / n, 10.0, n)
    noise = np.random.default_rng(SEED).normal(0.0, 0.05, n)
    return t, K * np.exp(alpha * t) * t**beta + noise


def long_curve(seed):
    rng = np.random.default_rng(seed)
    alpha, beta = rng.uniform(0.3, 0.4), rng.uniform(0.5, 1.5)
    hours = np.cumsum(rng.uniform(20.0, 100.0, 4000)) / 3600.0
    noise = rng.uniform(0.95, 1.05, 4000)
    values = 500.0 + 100.0 * hours**beta * np.exp(alpha * hours) * noise
    return hours, normalize_only(values, Orientation.HIGHER_IS_WORSE)


def free_cosine(t, y, theta):
    """Largest |J_j^T r| / (||J_j|| ||r||) over the columns not held at a lower bound."""
    growth = np.exp(theta[1] * t) * t ** theta[2]
    f = theta[0] * growth
    jac = np.column_stack((growth, t * f, np.log(t) * f))
    residual = y - f
    gradient = jac.T @ residual
    free = (theta > 0.0) | (gradient > 0.0)
    cosines = np.abs(gradient) / (np.linalg.norm(jac, axis=0) * np.linalg.norm(residual))
    return float(np.max(cosines[free], initial=0.0))


def main():
    cases = [("aging-curve", n, aging_curve(n)) for n in CURVE_SIZES]
    cases += [(law, n, growth_law(params, n)) for law, params in LAWS.items() for n in SIZES]
    cases += [(f"long-raw-curve-{seed}", 4000, long_curve(seed)) for seed in LONG_SEEDS]
    rows = []
    for name, n, (t, y) in cases:
        start = _initial_guess(t, y)
        began = time.perf_counter()
        result = levenberg_marquardt(t, y, start)
        first_s = time.perf_counter() - began
        best_s = best_time(lambda: levenberg_marquardt(t, y, start))
        guess_s = best_time(lambda: _initial_guess(t, y))
        rows.append(
            {
                "layer": "levenberg_marquardt",
                "input": name,
                "n": len(t),
                "guess_s": round(guess_s, 6),
                "first_s": round(first_s, 6),
                "best_s": round(best_s, 6),
                "iterations": result.iterations,
                "us_per_iteration": (
                    round(1e6 * best_s / result.iterations, 2) if result.iterations else None
                ),
                "converged": result.converged,
                "ssr": result.ssr_path[-1],
                "cosine": free_cosine(t, y, result.theta),
            }
        )
    report(rows, seed=SEED)


if __name__ == "__main__":
    main()
