"""Acceptance suite.

Eleven numbered criteria, one test per criterion, in order. Every test
prints exactly one "criterion NN PASS/FAIL: ..." line (visible with -s,
or in the failure report) and pins its tolerances in the assert itself.
"""

import time

import numpy as np
import pytest

from agekit.cli import default_config, main
from agekit.fitting import fit, r_square, rmse
from agekit.model import (
    FeedbackLoopModel,
    NegativeLoop,
    PositiveLoop,
    eval_combined,
    eval_model,
    eval_multi_loop,
    eval_negative,
    eval_positive,
    ode_residual,
)
from agekit.normalize import AgingCurve
from agekit.simulator import (
    RejuvenationPolicy,
    apply_policy_experiment,
    load_trace,
    parse_workload,
    run,
)
from agekit.smoothing import lowess_values

from reference_lowess import reference_lowess

STABLE_LOAD = "600,0,20,20,1000,0"
AGING_LOAD = "600,0,100,20,1000,0"

# reference (K, alpha, beta) sets for the generator-based recovery checks
RECOVERY_CASES = (
    (0.5133, 7.02e-11, 0.5357),
    (0.06, 0.0294, 1.858),
    (0.225, 0.446, 2.29e-14),
    (0.4504, 1.09e-9, 0.6693),
    (0.4638, 0.0676, 0.43),
)
NOISY_CASE = FeedbackLoopModel(0.06, 0.0294, 1.858)

VAL_SQRT_THIRD = 0.57735026918962576451  # sqrt(1/3), 30-digit oracle

GENERATOR_GRID = np.linspace(0.02, 10.0, 500)  # 500 points of (0, 10]


def report_line(number, passed, detail):
    print(f"criterion {number:02d} {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"criterion {number:02d}: {detail}"


def ulps_apart(a, b):
    ia = np.atleast_1d(np.asarray(a, dtype=np.float64)).view(np.int64)
    ib = np.atleast_1d(np.asarray(b, dtype=np.float64)).view(np.int64)
    return int(np.max(np.abs(ia - ib)))


def generator_curve(params, noise_sigma=0.0, rng=None, normalized=False):
    values = eval_model(FeedbackLoopModel(*params), GENERATOR_GRID)
    if normalized:
        values = values / values.max()
    if noise_sigma:
        values = values + rng.normal(0.0, noise_sigma, len(values))
    return AgingCurve.unchecked("generated", GENERATOR_GRID, values)


def test_criterion_01_noiseless_parameter_recovery():
    start = time.perf_counter()
    failures = []
    for K, alpha, beta in RECOVERY_CASES:
        fitted = fit(generator_curve((K, alpha, beta))).model
        # beta carries an absolute floor: one reference value is 2.29e-14,
        # below any attainable relative resolution in float64
        if not (
            abs(fitted.K - K) <= 1e-4 * K
            and abs(fitted.alpha - alpha) <= 1e-4
            and abs(fitted.beta - beta) <= 1e-4 * beta + 1e-12
        ):
            failures.append((K, alpha, beta))
    elapsed = time.perf_counter() - start
    report_line(
        1,
        not failures and elapsed < 5.0,
        f"noiseless recovery {5 - len(failures)}/5 cases within 1e-4 "
        f"(K, beta relative; alpha absolute), {elapsed:.2f}s < 5s",
    )


def test_criterion_02_noisy_parameter_recovery():
    start = time.perf_counter()
    successes = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        curve = generator_curve(
            (NOISY_CASE.K, NOISY_CASE.alpha, NOISY_CASE.beta), noise_sigma=0.02, rng=rng
        )
        report = fit(curve)
        fitted = report.model
        if (
            abs(fitted.K - NOISY_CASE.K) <= 0.1 * NOISY_CASE.K
            and abs(fitted.alpha - NOISY_CASE.alpha) <= 0.01
            and abs(fitted.beta - NOISY_CASE.beta) <= 0.1 * NOISY_CASE.beta
            and report.r_square >= 0.99
        ):
            successes += 1
    elapsed = time.perf_counter() - start
    report_line(
        2,
        successes >= 18 and elapsed < 30.0,
        f"noisy recovery {successes}/20 seeds within 10% (K, beta), "
        f"0.01 (alpha), r_square >= 0.99, {elapsed:.2f}s < 30s",
    )


def test_criterion_03_noisy_error_bounds():
    rng = np.random.default_rng(3)
    worst_rmse = 0.0
    worst_r2 = 1.0
    for params in RECOVERY_CASES:
        report = fit(generator_curve(params, noise_sigma=0.02, rng=rng, normalized=True))
        worst_rmse = max(worst_rmse, report.rmse)
        worst_r2 = min(worst_r2, report.r_square)
    report_line(
        3,
        worst_rmse < 0.08 and worst_r2 > 0.93,
        f"five noisy fits: max rmse {worst_rmse:.4f} < 0.08, "
        f"min r_square {worst_r2:.4f} > 0.93",
    )


def test_criterion_04_lowess_oracle_equivalence():
    rng = np.random.default_rng(4)
    t = np.cumsum(rng.uniform(0.05, 0.15, 100))
    values = np.sin(0.3 * t) + rng.normal(0.0, 0.2, 100)
    start = time.perf_counter()
    fast = lowess_values(t, values, fraction=0.3)
    naive = reference_lowess(t, values, fraction=0.3)
    elapsed = time.perf_counter() - start
    deviation = float(np.max(np.abs(fast - np.asarray(naive))))
    report_line(
        4,
        deviation <= 1e-9 and elapsed < 1.0,
        f"lowess vs naive oracle: max deviation {deviation:.2e} <= 1e-9, "
        f"{elapsed:.3f}s < 1s",
    )


def test_criterion_05_log_derivative_consistency():
    rng = np.random.default_rng(5)
    coarse = 1.0 + 2e-3 * np.arange(401)
    fine = 1.0 + 1e-3 * np.arange(801)
    ratios = []
    residuals = []
    for _ in range(50):
        model = FeedbackLoopModel(
            rng.uniform(0.05, 0.6), rng.uniform(0.0, 0.5), rng.uniform(0.05, 2.5)
        )
        r_coarse = ode_residual(model, coarse)
        r_fine = ode_residual(model, fine)
        ratios.append(r_coarse / r_fine)
        residuals.append(r_fine)
    second_order = all(3.0 < ratio < 5.0 for ratio in ratios)
    small = max(residuals) < 1e-6
    report_line(
        5,
        second_order and small,
        f"log-derivative residual: halving ratio in (3, 5) for 50/50 draws "
        f"(range {min(ratios):.2f}-{max(ratios):.2f}), "
        f"max residual {max(residuals):.2e} < 1e-6 at h=1e-3",
    )


def test_criterion_06_loop_product_identities():
    rng = np.random.default_rng(6)
    worst = 0
    for _ in range(1000):
        positive = PositiveLoop(rng.uniform(0.1, 3.0), rng.uniform(0.0, 0.5))
        negative = NegativeLoop(rng.uniform(0.1, 3.0), rng.uniform(0.0, 2.0))
        t = rng.uniform(0.01, 50.0)
        product = eval_positive(positive, t) * eval_negative(negative, t)
        summed = eval_multi_loop([(positive, negative)], t)
        worst = max(worst, ulps_apart(product, summed))
        # unit repair amplitude: the combined evaluator is the same product
        combined = eval_combined(positive, negative.v, t)
        unit_product = eval_positive(positive, t) * eval_negative(
            NegativeLoop(1.0, negative.v), t
        )
        worst = max(worst, ulps_apart(combined, unit_product))
    report_line(
        6,
        worst <= 4,
        f"product identity and single-pair reduction: worst deviation "
        f"{worst} ulps <= 4 over 1000 draws",
    )


def test_criterion_07_metric_identities():
    rng = np.random.default_rng(7)
    y = rng.uniform(0.0, 1.0, 25)
    exact = (
        rmse(y, y) == 0.0
        and r_square(y, y) == 1.0
        and r_square(y, np.full_like(y, y.mean())) == 0.0
    )
    hand = (
        rmse(np.array([0.0, 0.0, 0.0]), np.array([1.0, 1.0, 1.0])) == 1.0
        and rmse(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 4.0]))
        == pytest.approx(VAL_SQRT_THIRD, rel=1e-15)
        and r_square(np.array([0.0, 1.0, 2.0]), np.array([0.5, 1.0, 1.5])) == 0.75
    )
    report_line(
        7,
        exact and hand,
        "rmse/r_square identities and three-point hand examples match exactly",
    )


def test_criterion_08_stable_versus_aging_simulation():
    start = time.perf_counter()
    cfg = default_config()
    nominal = cfg.bandwidth_nominal_kbyte
    ticks = np.arange(4001, dtype=float)

    stable = run(cfg, parse_workload(STABLE_LOAD), ticks=4000, seed=0)
    stable_bw = lowess_values(ticks, np.array([s.bandwidth_kbyte for s in stable]))
    stable_cache = np.array([s.cache_mb for s in stable])
    cache_mean = stable_cache.mean()
    stable_ok = (
        np.all(stable_bw >= 0.85 * nominal)
        and np.all(stable_bw <= 1.15 * nominal)
        and np.all(stable_cache >= 0.85 * cache_mean)
        and np.all(stable_cache <= 1.15 * cache_mean)
    )

    aging = run(cfg, parse_workload(AGING_LOAD), ticks=4000, seed=0)
    aging_bw = lowess_values(ticks, np.array([s.bandwidth_kbyte for s in aging]))
    aging_ok = (
        aging_bw[-1] <= cfg.bandwidth_fail_kbyte
        and aging[-1].working_set_mb >= 1.8 * aging[0].working_set_mb
    )
    elapsed = time.perf_counter() - start
    report_line(
        8,
        stable_ok and aging_ok and elapsed < 10.0,
        f"stable load holds bandwidth/cache bands, aging load ends at "
        f"smoothed bandwidth {aging_bw[-1]:.1f} <= {cfg.bandwidth_fail_kbyte:g} and working set "
        f"{aging[-1].working_set_mb:.0f} >= {1.8 * aging[0].working_set_mb:.0f} MB, "
        f"{elapsed:.2f}s < 10s",
    )


def test_criterion_09_rejuvenation_directions():
    cfg = default_config()
    load = parse_workload(AGING_LOAD)
    policies = {
        "cache-hit": RejuvenationPolicy.cache_hit(),
        "probabilistic": RejuvenationPolicy.probabilistic(0.3),
        "block-reset": RejuvenationPolicy.disk_block_reset(),
        "memreap": RejuvenationPolicy.mem_reap_enlarge(15),
    }
    failures = []
    details = []
    for name, policy in policies.items():
        before, after = apply_policy_experiment(
            cfg, load, policy, ticks=4000, rejuvenation_tick=3000, seed=0
        )
        pre = before[-400:]

        def delta(attr):
            post_mean = float(np.mean([getattr(s, attr) for s in after]))
            pre_mean = float(np.mean([getattr(s, attr) for s in pre]))
            return post_mean - pre_mean

        d_bw = delta("bandwidth_kbyte")
        d_queue = delta("disk_queue_len")
        d_ws = delta("working_set_mb")
        details.append(f"{name}: bw {d_bw:+.1f} queue {d_queue:+.1f} ws {d_ws:+.1f}")
        if d_bw <= 0:
            failures.append(f"{name} bandwidth")
        if name in ("cache-hit", "probabilistic", "block-reset") and d_queue >= 0:
            failures.append(f"{name} queue")
        if name == "memreap" and d_ws >= 0:
            failures.append(f"{name} working set")
    report_line(
        9,
        not failures,
        "policy direction checks: " + "; ".join(details)
        + (f"; wrong-signed: {failures}" if failures else ""),
    )


def run_pipeline(directory):
    """simulate the aging load, refit its bandwidth trace via the CLI."""
    trace = directory / "trace.csv"
    assert main(["simulate", "--ticks", "4000", "--seed", "0", "-o", str(trace)]) == 0
    columns = load_trace(trace)
    seconds = columns["tick"] * default_config().tick_seconds
    series = directory / "bandwidth.csv"
    lines = ["t,value"] + [
        f"{repr(float(a))},{repr(float(b))}"
        for a, b in zip(seconds, columns["bandwidth_kbyte"])
    ]
    series.write_text("\n".join(lines) + "\n")
    report = directory / "report.csv"
    code = main(
        ["fit", str(series), "--orientation", "lower-is-worse", "-o", str(report)]
    )
    assert code == 0
    return trace, report


def test_criterion_10_simulate_then_fit(tmp_path):
    _, report = run_pipeline(tmp_path)
    row = report.read_text().strip().splitlines()[1].split(",")
    r2 = float(row[5])
    report_line(
        10,
        r2 >= 0.9,
        f"aging-run bandwidth refit: r_square {r2:.4f} >= 0.9",
    )


def test_criterion_11_pipeline_determinism(tmp_path):
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    dir_a.mkdir()
    dir_b.mkdir()
    trace_a, report_a = run_pipeline(dir_a)
    trace_b, report_b = run_pipeline(dir_b)
    same = (
        trace_a.read_bytes() == trace_b.read_bytes()
        and report_a.read_bytes() == report_b.read_bytes()
    )
    report_line(
        11,
        same,
        "repeated seeded pipeline runs are byte-identical (trace and fit report)",
    )
