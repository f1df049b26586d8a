"""Size sweep of agekit.fitting.levenberg_marquardt, printed as one JSON object.

    PYTHONPATH=src python3 bench/lm_sweep.py > sweep.json

Times levenberg_marquardt from fit's own log-space start, best of 3 calls, at
n = 1k, 4k, 16k and 172 800 samples (one month of 15 s ticks) on two kinds of
input: the aging curve `report` fits to a simulator trace of n ticks (the
shipped aging mix under the random law, seed 0; up to 16k only, because
LOWESS is quadratic in n) and two seeded noisy growth laws on (0, 10] hours,
one with alpha = 0 (the solver's active bound) and one with alpha > 0. Each
row gives the iterations, whether the solver reported convergence, the final
SSR and the final largest free-column cosine |J_j^T r| / (||J_j|| ||r||),
computed here from the returned parameters so that every checkout is judged
by the same rule. agekit is imported from the path, so pointing PYTHONPATH
at another checkout's src/ sweeps that checkout with the same inputs. Not
part of the test suite: the largest size takes seconds per call.
"""

import numpy as np

from agekit import fitting
from agekit.simulator import SimConfig, aging_degree, parse_workload, run
from harness import best_time, report

WORKLOAD = "600,0,100,20,1000,0"
SIZES = (1_000, 4_000, 16_000, 172_800)
CURVE_SIZES = (1_000, 4_000, 16_000)
SEED = 0
LAWS = {"power-law": (0.3, 0.0, 1.1), "growth-law": (0.2, 0.1, 1.2)}  # K, alpha, beta


def aging_curve(n):
    cfg = SimConfig()
    states = run(cfg, parse_workload(WORKLOAD), ticks=n, seed=SEED)
    curve = aging_degree([s.tick for s in states], [s.bandwidth_kbyte for s in states], cfg)
    return np.asarray(curve.t), np.asarray(curve.y)


def growth_law(params, n):
    K, alpha, beta = params
    t = np.linspace(10.0 / n, 10.0, n)
    noise = np.random.default_rng(SEED).normal(0.0, 0.05, n)
    return t, K * np.exp(alpha * t) * t**beta + noise


def free_cosine(t, y, theta):
    """Largest |J_j^T r| / (||J_j|| ||r||) over the columns not held at a lower bound."""
    growth = np.exp(theta[1] * t) * t ** theta[2]
    f = theta[0] * growth
    jac = np.column_stack((growth, t * f, np.log(t) * f))
    residual = y - f
    gradient = jac.T @ residual
    free = (theta > [fitting.K_MIN, 0.0, 0.0]) | (gradient > 0.0)
    cosines = np.abs(gradient) / (np.linalg.norm(jac, axis=0) * np.linalg.norm(residual))
    return float(np.max(cosines[free], initial=0.0))


def main():
    cases = [("aging-curve", n, aging_curve(n)) for n in CURVE_SIZES]
    cases += [(law, n, growth_law(params, n)) for law, params in LAWS.items() for n in SIZES]
    rows = []
    for name, n, (t, y) in cases:
        start = fitting._initial_guess(t, y)
        result = fitting.levenberg_marquardt(t, y, start)
        rows.append(
            {
                "layer": "levenberg_marquardt",
                "input": name,
                "n": len(t),
                "best_s": round(best_time(lambda: fitting.levenberg_marquardt(t, y, start)), 6),
                "iterations": result.iterations,
                "converged": result.converged,
                "ssr": result.ssr_path[-1],
                "cosine": free_cosine(t, y, result.theta),
            }
        )
    report(rows, seed=SEED)


if __name__ == "__main__":
    main()
