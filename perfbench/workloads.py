"""The benchmark's workloads: generated inputs, the CLI ops of one round, and
the checks every op's outputs must pass.

A round is the fixed list of ``agekit.cli.main`` calls that defines a
workload. The runner repeats rounds for the requested time; every round of a
run gets the same argv, so every round must write the same bytes.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

RANDOM_LAW = "600,0,100,20,1000,0"  # shipped aging mix; policies arm near tick 1 909
POISSON_LAW = "600,2,100,20,1000,0"  # Poisson file law; never ages

UNIFORM_TICKS = 16000
SWEEP_TICKS = 8000
SWEEP_REJUVENATION_TICK = 4000
SWEEP_POLICIES = (
    ("cache-hit",),
    ("probabilistic", "--policy-p", "0.5"),
    ("block-reset",),
    ("memreap", "--refcount", "15"),
)

FIT_SERIES = 160
FIT_FILES_PER_CALL = 8
FIT_MIN_SAMPLES = 300
FIT_MAX_SAMPLES = 700
FIT_SPACING_S = (20.0, 100.0)
FIT_NOISE = 0.02


class CheckFailed(Exception):
    """An op's output broke the correctness gate."""


@dataclass(frozen=True)
class Op:
    """One ``agekit.cli.main`` call and what it must leave behind."""

    argv: tuple
    kind: str  # "sim" (simulate/rejuvenate) or "fit" (fit/report)
    trace: str = None  # trace CSV with ticks + 1 rows
    ticks: int = 0
    report: str = None  # fit report CSV with one row per name in series_names
    series_names: tuple = ()
    svgs: tuple = ()

    @property
    def outputs(self):
        return tuple(p for p in (self.trace, self.report, *self.svgs) if p is not None)


def _sim_op(command, out, ticks, seed, law, extra=(), svg=None):
    argv = [command, "--ticks", str(ticks), "--seed", str(seed), "--workload", law, *extra]
    argv += ["-o", out]
    if svg is not None:
        argv += ["--svg", svg]
    return Op(tuple(argv), "sim", trace=out, ticks=ticks, svgs=(svg,) if svg else ())


def report_uniform_ops(seed, work):
    trace = os.path.join(work, "uniform_trace.csv")
    report = os.path.join(work, "uniform_report.csv")
    report_svg = os.path.join(work, "uniform_report.svg")
    simulate = _sim_op(
        "simulate", trace, UNIFORM_TICKS, seed, RANDOM_LAW,
        svg=os.path.join(work, "uniform_trace.svg"),
    )
    fit = Op(
        ("report", trace, "-o", report, "--svg", report_svg),
        "fit",
        report=report,
        series_names=("uniform_trace",),
        svgs=(report_svg,),
    )
    return [simulate, fit]


def policy_sweep_ops(seed, work):
    variants = []
    for law in (RANDOM_LAW, POISSON_LAW):
        variants.append(("simulate", law, ()))
        for policy in SWEEP_POLICIES:
            flags = ("--policy", *policy)
            variants.append(("simulate", law, flags))
            rejuvenate = flags + ("--rejuvenation-tick", str(SWEEP_REJUVENATION_TICK))
            variants.append(("rejuvenate", law, rejuvenate))
    return [
        _sim_op(command, os.path.join(work, f"sweep_{i:02d}.csv"), SWEEP_TICKS, seed, law, flags)
        for i, (command, law, flags) in enumerate(variants)
    ]


def fit_irregular_series(seed):
    """The ``fit-irregular`` inputs as (name, orientation, t_seconds, values).

    Sample counts are stratified over [300, 700] and then shuffled, so every
    seed gets the same total LOWESS work and only the data changes. Spacing is
    uniform on 20-100 s, so no series sits on a uniform grid. Odd-indexed
    series grow with alpha > 0; even-indexed ones have alpha = 0, the solver's
    active bound. Each call of eight files shares one orientation, and the
    orientation alternates from call to call.
    """
    rng = np.random.default_rng([seed, 0xF17])
    span = FIT_MAX_SAMPLES - FIT_MIN_SAMPLES + 1
    strata = (np.arange(FIT_SERIES) + rng.random(FIT_SERIES)) / FIT_SERIES
    sizes = rng.permutation(FIT_MIN_SAMPLES + np.floor(strata * span).astype(int))
    series = []
    for i, n in enumerate(sizes):
        higher = (i // FIT_FILES_PER_CALL) % 2 == 0
        alpha = 0.0 if i % 2 == 0 else rng.uniform(0.05, 0.4)
        beta = rng.uniform(0.3, 1.5)
        scale = rng.uniform(50.0, 500.0)
        t = np.cumsum(rng.uniform(*FIT_SPACING_S, n))
        hours = t / 3600.0
        law = np.exp(alpha * hours) * hours**beta
        noisy = scale * law * (1.0 + rng.uniform(-FIT_NOISE, FIT_NOISE, n))
        if higher:
            values = 500.0 + noisy
        else:
            values = 1.25 * float(noisy.max()) + 10.0 - noisy
        orientation = "higher-is-worse" if higher else "lower-is-worse"
        series.append((f"series_{i:03d}", orientation, t, values))
    return series


def series_csv(t, values):
    """``t,value`` CSV text with shortest round-trip floats."""
    lines = ["t,value"] + [f"{float(a)!r},{float(b)!r}" for a, b in zip(t, values)]
    return "\n".join(lines) + "\n"


def fit_irregular_ops(seed, work):
    inputs = os.path.join(work, "irregular")
    os.makedirs(inputs, exist_ok=True)
    series = fit_irregular_series(seed)
    for name, _, t, values in series:
        with open(os.path.join(inputs, name + ".csv"), "w", encoding="utf-8", newline="") as f:
            f.write(series_csv(t, values))
    ops = []
    for start in range(0, len(series), FIT_FILES_PER_CALL):
        group = series[start : start + FIT_FILES_PER_CALL]
        names = tuple(name for name, _, _, _ in group)
        report = os.path.join(work, f"irregular_report_{start // FIT_FILES_PER_CALL:02d}.csv")
        argv = ("fit", "--orientation", group[0][1], "-o", report)
        argv += tuple(os.path.join(inputs, name + ".csv") for name in names)
        ops.append(Op(argv, "fit", report=report, series_names=names))
    return ops


BUILDERS = {
    "report-uniform": report_uniform_ops,
    "policy-sweep": policy_sweep_ops,
    "fit-irregular": fit_irregular_ops,
}
NAMES = tuple(BUILDERS)


def _read_rows(path, header):
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as exc:
        raise CheckFailed(f"missing output {path}: {exc}") from None
    if not lines or tuple(lines[0].split(",")) != tuple(header):
        raise CheckFailed(f"{path}: header is not {','.join(header)}")
    return [line.split(",") for line in lines[1:]]


def _finite(path, cells):
    try:
        numbers = [float(c) for c in cells]
    except ValueError:
        raise CheckFailed(f"{path}: non-numeric field in {cells}") from None
    if not all(math.isfinite(x) for x in numbers):
        raise CheckFailed(f"{path}: non-finite value in {cells}")
    return numbers


def check_op(op, trace_header, report_header):
    """Validate an op's outputs; returns the fit rows as {name: (rmse, r_square)}."""
    rows = {}
    if op.trace is not None:
        trace = _read_rows(op.trace, trace_header)
        if len(trace) != op.ticks + 1:
            raise CheckFailed(f"{op.trace}: {len(trace)} rows, expected {op.ticks + 1}")
        for row in trace:
            _finite(op.trace, row)
    if op.report is not None:
        report = _read_rows(op.report, report_header)
        names = tuple(row[0] for row in report)
        if names != op.series_names:
            raise CheckFailed(f"{op.report}: rows {names}, expected {op.series_names}")
        for row in report:
            *_, fit_rmse, fit_r_square = _finite(op.report, row[1:])
            if fit_r_square > 1.0:
                raise CheckFailed(f"{op.report}: r_square {fit_r_square} > 1")
            rows[row[0]] = (fit_rmse, fit_r_square)
    for svg in op.svgs:
        try:
            with open(svg, "r", encoding="utf-8") as f:
                head = f.read(5)
        except OSError as exc:
            raise CheckFailed(f"missing output {svg}: {exc}") from None
        if head != "<svg ":
            raise CheckFailed(f"{svg}: not an SVG document")
    return rows
