"""In-process A/B timing of agekit's layers: a git revision against the working tree.

    python3 bench/ab.py REV [LAYER ...] > ab.json

Exports REV's src/agekit with ``git archive`` (local, no network) into a
temporary directory, imports it as ``agekit_base`` beside the working tree's
``agekit``, and times one layer function per row on both, interleaved: each
round takes each side's best of 3 timings, with gc collected and then disabled
around them, and the side that goes first flips every round (Kalibera & Jones,
"Rigorous Benchmarking in Reasonable Time", ISMM 2013). Each side builds its
own inputs with its own constructors, so no object crosses from one tree to
the other. A timing repeats a fast call for about SAMPLE_S, and rows whose
calls take long run fewer rounds, to keep each row near ROW_BUDGET_S.

Prints one JSON object: the environment, REV, both trees' source digests and,
per row, the median over rounds of the change/base time ratio with a bootstrap
95 % interval (fixed seed), both sides' median seconds, the round count, and
whether both sides returned equal results bit for bit (arrays by bytes, floats
by hex, dataclasses such as LMResult field by field, text exactly); an LM row
also gives each side's iterations and converged flag. A row that raises on a
side, or whose function that side lacks, reports the error and the run goes
on. LAYER names pick the rows (all by default). An A/A run, ``ab.py HEAD`` on
a clean checkout, shows the runner's resolution: its intervals should hold 1.0.

The ``import`` row is the one that leaves the process: each of its timings is
one fresh interpreter, from spawn to exit, running perfbench's set-up probe
with ``PYTHONPATH`` at its side's ``src/``.
"""

import contextlib
import dataclasses
import gc
import hashlib
import importlib.util
import io
import json
import math
import os
import platform
import subprocess
import sys
import tarfile
import tempfile
import time
from collections.abc import Sequence
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
sys.path.insert(0, str(SRC))  # the change side is always this tree's agekit

# the private names the rows time, imported by name so that a rename fails at import
from agekit.cli import _trace_chart  # noqa: E402, F401
from agekit.fitting import _initial_guess  # noqa: E402, F401
from agekit.smoothing import _windows  # noqa: E402, F401

sys.path.insert(1, str(REPO / "perfbench"))
from run import SETUP_PROBE  # noqa: E402  the probe perfbench's setup_s times

ROUNDS = 40
MIN_ROUNDS = 5
ROW_BUDGET_S = 20.0  # a row's timed calls on both sides, roughly; cuts ROUNDS for slow calls
CALLS = 3  # timings per side per round, best taken
SAMPLE_S = 0.005  # a timing repeats a fast call back to back for about this long
BOOTSTRAP = 10_000
SEED = 0

FRACTION = 0.3
LAWS = {"random": "600,0,100,20,1000,0", "poisson": "600,2,100,20,1000,0"}
TICKS = (1_000, 4_000, 8_000, 16_000, 172_800)  # 172 800: one month of 15 s ticks
POLICY_TICKS = 8_000
POLICIES = {  # RejuvenationPolicy constructor and arguments; "none" is NO_POLICY
    "cache-hit": ("cache_hit",),
    "probabilistic": ("probabilistic", 0.5),
    "block-reset": ("disk_block_reset",),
    "memreap": ("mem_reap_enlarge", 15),
}
STEP_CALLS = 2_000
LOWESS_CASES = (
    [("uniform", n, 0) for n in (1_001, 4_001, 16_001, 64_001)]
    + [("irregular", n, 0) for n in (500, 1_000, 4_000, 16_000, 64_000)]
    + [("uniform", n, 2) for n in (4_001, 16_001, 64_001)]
    + [("gap", 100, 0)]
)
WINDOW_CASES = (("irregular", 500, 100), ("irregular", 16_000, 1), ("uniform", 16_001, 1))
LM_LAWS = {"power-law": (0.3, 0.0, 1.1), "growth-law": (0.2, 0.1, 1.2)}  # K, alpha, beta
LM_SIZES = (300, 500, 700, 1_000, 4_000, 16_000, 172_800)
CURVE_TICKS = (1_000, 4_000, 16_000)
LONG_SEEDS = range(8)
FIT_SIZES = (300, 700, 4_000)
FIT_INPUTS = (1, 8, 32)
SERIES_ROWS = (1_000, 4_000, 16_000, 172_800)


class Side:
    """One tree's agekit: ``side.smoothing`` imports ``<package>.smoothing`` on first use;
    ``side.src`` is the directory that holds the tree's ``agekit``."""

    def __init__(self, package, src):
        self.package = package
        self.src = src

    def __getattr__(self, module):
        return importlib.import_module(f"{self.package}.{module}")


# ---- inputs, built by each side for itself ----


def grid(kind, n):
    """The simulator's uniform hour axis, 20-100 s gaps, or two clusters 1000 h apart."""
    if kind == "uniform":
        return np.arange(n) * 15 / 3600
    if kind == "gap":
        half = n // 2
        far = np.linspace(1000.0, 1000.001, n - half)
        return np.concatenate([np.linspace(0.0, 1.0, half), far])
    return np.cumsum(np.random.default_rng(SEED).uniform(20.0, 100.0, n)) / 3600


def write_series(path, t, values, quote_last=False):
    """A t,value CSV of shortest round-trip floats, its last value quoted on request."""
    lines = ["t,value"] + [f"{a!r},{b!r}" for a, b in zip(t.tolist(), values.tolist())]
    if quote_last:
        t_last, value = lines[-1].split(",")
        lines[-1] = f'{t_last},"{value}"'
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("\n".join(lines) + "\n")


def trace(ak, ticks, law="random", policy=None):
    sim = ak.simulator
    if policy is not None:
        policy = getattr(sim.RejuvenationPolicy, policy[0])(*policy[1:])
    load = sim.parse_workload(LAWS[law])
    return sim.run(sim.SimConfig(), load, policy or sim.NO_POLICY, ticks=ticks, seed=SEED)


def aging_curve(ak, ticks):
    """The curve `report` fits to a simulator trace."""
    columns, cfg = trace(ak, ticks).columns(), ak.simulator.SimConfig()
    curve = ak.simulator.aging_degree(columns["tick"], columns["bandwidth_kbyte"], cfg)
    return np.asarray(curve.t), np.asarray(curve.y)


def growth_law(params, n, ak):
    """K e^(alpha t) t^beta on (0, 10] hours plus seeded normal noise of sd 0.05."""
    K, alpha, beta = params
    t = np.linspace(10.0 / n, 10.0, n)
    return t, K * np.exp(alpha * t) * t**beta + np.random.default_rng(SEED).normal(0.0, 0.05, n)


def long_curve(seed, ak):
    """4 000 raw samples 20-100 s apart of 500 + 100 h^beta e^(alpha h), 5 % noise, normalized
    without smoothing: its K is 1e-9 or far less."""
    rng = np.random.default_rng(seed)
    alpha, beta = rng.uniform(0.3, 0.4), rng.uniform(0.5, 1.5)
    hours = np.cumsum(rng.uniform(20.0, 100.0, 4000)) / 3600.0
    values = 500.0 + 100.0 * hours**beta * np.exp(alpha * hours) * rng.uniform(0.95, 1.05, 4000)
    return hours, ak.normalize.normalize_only(values, ak.timeseries.Orientation.HIGHER_IS_WORSE)


# ---- rows: setup(ak, work) builds a side's inputs and returns the call to time ----


def lowess_row(kind, n, robust_iterations, ak, work):
    t = grid(kind, n)
    values = 60.0 - 40.0 * np.tanh(t / 20.0) + np.random.default_rng(SEED + 1).normal(0.0, 2.0, n)
    return partial(ak.smoothing.lowess_values, t, values, FRACTION, robust_iterations)


def windows_row(kind, n, calls, ak, work):
    t, window, windows = grid(kind, n), math.ceil(FRACTION * n), ak.smoothing._windows
    return lambda: [windows(t, window) for _ in range(calls)]


def lm_row(layer, make, ak, work):
    t, y = make(ak)
    if layer == "_initial_guess":
        return partial(ak.fitting._initial_guess, t, y)
    return partial(ak.fitting.levenberg_marquardt, t, y, ak.fitting._initial_guess(t, y))


def fit_row(n, count, ak, work):
    """`agekit fit` on count files of growth laws on (0, 10] hours, 20-100 s gaps, 5 % noise
    plus 500; alpha is 0, the solver's active bound, on even files."""
    rng = np.random.default_rng([SEED, n])
    paths = []
    for i in range(count):
        alpha, beta = (0.0 if i % 2 == 0 else rng.uniform(0.05, 0.4)), rng.uniform(0.3, 1.5)
        t = np.cumsum(rng.uniform(20.0, 100.0, n))
        x = 10.0 * t / t[-1]
        law = np.exp(alpha * x) * x**beta
        values = 500.0 + 100.0 * law * (1.0 + rng.uniform(-0.05, 0.05, n))
        paths.append(os.path.join(work, f"fit_{n}_{i:02d}.csv"))
        write_series(paths[-1], t, values)
    out = os.path.join(work, "report.csv")
    argv = ["fit", "--orientation", "higher-is-worse", "-o", out, *paths]

    def call():
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = ak.cli.main(argv)
        with open(out, encoding="utf-8") as handle:
            return code, handle.read(), err.getvalue()

    return call


def run_row(law, ticks, policy, ak, work):
    return partial(trace, ak, ticks, law, policy)


def step_row(law, ak, work):
    sim = ak.simulator
    cfg, load = sim.SimConfig(), sim.parse_workload(LAWS[law])
    start, rng = sim.init_state(cfg), np.random.default_rng(SEED)
    return lambda: [sim.step(start, load, cfg, sim.NO_POLICY, rng) for _ in range(STEP_CALLS)]


def trace_csv_row(ticks, ak, work):
    return partial(ak.simulator.trace_csv, trace(ak, ticks))


def load_trace_row(ticks, ak, work):
    path = os.path.join(work, f"trace_{ticks}.csv")
    ak.simulator.write_trace(path, trace(ak, ticks))
    return partial(ak.simulator.load_trace, path)


def load_series_row(n, quoted, ak, work):
    """A seeded random walk on a 15 s grid; quoted, its last cell fails numpy's parser and
    the read pays numpy's pass plus the csv fallback's."""
    path = os.path.join(work, f"series_{n}_{quoted}.csv")
    values = 100.0 + np.cumsum(np.random.default_rng(SEED).normal(0.0, 1.0, n))
    write_series(path, np.arange(n) * 15.0, values, quoted)
    orientation = ak.timeseries.Orientation.HIGHER_IS_WORSE
    return partial(ak.timeseries.load_series, path, "series", orientation)


def import_row(ak, work):
    """A fresh interpreter that imports the side's agekit.cli as perfbench's set-up probe does."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ak.src), env.get("PYTHONPATH")) if p)
    argv = [sys.executable, "-c", SETUP_PROBE]
    return lambda: subprocess.run(argv, env=env, cwd=REPO, capture_output=True, check=True).stdout


def render_chart_row(ticks, ak, work):
    """The panels of the CLI's trace chart (five series), as _trace_chart hands them over."""
    handed = []
    with mock.patch.object(ak.cli, "render_chart", handed.append):
        ak.cli._trace_chart(trace(ak, ticks).columns())
    return partial(ak.svg.render_chart, handed[0])


def rows():
    """(layer, input, setup) for every row, in run order."""
    out = [
        ("lowess_values", f"{kind} {n}" + f" robust {r}" * bool(r), partial(lowess_row, kind, n, r))
        for kind, n, r in LOWESS_CASES
    ]
    out += [
        ("_windows", f"{kind} {n} x{calls}", partial(windows_row, kind, n, calls))
        for kind, n, calls in WINDOW_CASES
    ]
    cases = [(f"aging-curve {n} ticks", partial(aging_curve, ticks=n)) for n in CURVE_TICKS]
    cases += [
        (f"{law} {n}", partial(growth_law, params, n))
        for law, params in LM_LAWS.items()
        for n in LM_SIZES
    ]
    cases += [(f"long-raw-curve-{seed} 4000", partial(long_curve, seed)) for seed in LONG_SEEDS]
    for layer in ("_initial_guess", "levenberg_marquardt"):
        out += [(layer, name, partial(lm_row, layer, make)) for name, make in cases]
    out += [
        ("main", f"fit {count} x {n}", partial(fit_row, n, count))
        for n in FIT_SIZES
        for count in FIT_INPUTS
    ]
    for law in LAWS:
        out += [("run", f"{law} {ticks}", partial(run_row, law, ticks, None)) for ticks in TICKS]
        out += [
            ("run", f"{law} {POLICY_TICKS} {name}", partial(run_row, law, POLICY_TICKS, policy))
            for name, policy in POLICIES.items()
        ]
        out.append(("step", f"{law} x{STEP_CALLS}", partial(step_row, law)))
    out += [("trace_csv", f"{ticks + 1} rows", partial(trace_csv_row, ticks)) for ticks in TICKS]
    out += [("load_trace", f"{ticks + 1} rows", partial(load_trace_row, ticks)) for ticks in TICKS]
    out += [
        ("load_series", f"{n} rows" + " quoted" * quoted, partial(load_series_row, n, quoted))
        for n in SERIES_ROWS
        for quoted in (False, True)
    ]
    out += [("render_chart", f"{t + 1} rows", partial(render_chart_row, t)) for t in TICKS]
    out.append(("import", "perfbench set-up probe", import_row))
    return out


# ---- timing and comparison ----


def best_of(call, number=1):
    """Fastest of CALLS timings of `number` calls each, in seconds per call, with gc
    collected and then held off."""
    gc.collect()
    gc.disable()
    try:
        best = math.inf
        for _ in range(CALLS):
            start = time.perf_counter()
            for _ in range(number):
                call()
            best = min(best, (time.perf_counter() - start) / number)
        return best
    finally:
        gc.enable()


def same(a, b):
    """Bit-for-bit equality across the two trees, whose classes are distinct objects."""
    if type(a).__name__ != type(b).__name__:
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, float):
        return a.hex() == b.hex()
    if isinstance(a, str):
        return a == b
    if dataclasses.is_dataclass(a):
        fields = [[(f.name, getattr(x, f.name)) for f in dataclasses.fields(x)] for x in (a, b)]
        return same(*fields)
    if isinstance(a, dict):
        return list(a) == list(b) and all(same(a[k], b[k]) for k in a)
    if isinstance(a, Sequence):
        return len(a) == len(b) and all(map(same, a, b))
    return repr(a) == repr(b)


def ratio_interval(ratios):
    """Median of the per-round ratios and its bootstrap 95 % interval."""
    rng = np.random.default_rng(SEED)
    resampled = np.median(ratios[rng.integers(0, len(ratios), (BOOTSTRAP, len(ratios)))], axis=1)
    return float(np.median(ratios)), np.percentile(resampled, [2.5, 97.5]).tolist()


def compare(layer, name, setup, sides, works):
    """One row: set up and call once on each side, then time them interleaved."""
    row = {"layer": layer, "input": name}
    calls, results, errors = {}, {}, {}
    for label, ak in sides.items():
        try:
            calls[label] = setup(ak, works[label])
            results[label] = calls[label]()
        except Exception as exc:  # a row that fails on one side is reported, not fatal
            errors[label] = f"{type(exc).__name__}: {exc}"
    if errors:
        return {**row, "error": errors}
    call_s = sum(best_of(call) for call in calls.values()) / len(calls)
    number = math.ceil(SAMPLE_S / call_s)
    budget_rounds = ROW_BUDGET_S / (len(calls) * CALLS * number * call_s)
    rounds = int(min(ROUNDS, max(MIN_ROUNDS, budget_rounds)))
    times = {label: [] for label in sides}
    for r in range(rounds):
        for label in list(sides)[:: 1 if r % 2 == 0 else -1]:
            times[label].append(best_of(calls[label], number))
    base, change = np.array(times["base"]), np.array(times["change"])
    ratio, interval = ratio_interval(change / base)
    row.update(
        rounds=rounds,
        calls_per_timing=number,
        base_s=float(f"{np.median(base):.4g}"),
        change_s=float(f"{np.median(change):.4g}"),
        ratio=round(ratio, 4),
        ratio_ci95=[round(x, 4) for x in interval],
        change_faster_in=f"{int(np.sum(change < base))}/{rounds}",
        equal=same(results["base"], results["change"]),
    )
    if hasattr(results["base"], "converged"):
        for key in ("iterations", "converged"):
            row[key] = {label: getattr(result, key) for label, result in results.items()}
    return row


# ---- the two trees ----


def source_digest(package_dir):
    """Short sha256 over a tree's agekit modules, naming the code that was timed."""
    digest = hashlib.sha256()
    for path in sorted(Path(package_dir).glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return digest.hexdigest()[:16]


def git(*args):
    return subprocess.run(["git", "-C", str(REPO), *args], capture_output=True, check=False)


def export_base(rev, root):
    """Extract REV's src/agekit under root and import it as agekit_base; returns the commit
    and the package directory."""
    found = git("rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}")
    if found.returncode != 0:
        raise SystemExit(f"ab.py: unknown revision {rev!r}")
    commit = found.stdout.decode().strip()
    archive = git("archive", "--format=tar", commit, "src/agekit")
    if archive.returncode != 0:
        raise SystemExit(f"ab.py: git archive {commit} failed: {archive.stderr.decode().strip()}")
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(root, filter="data")
    package = Path(root) / "src" / "agekit"
    spec = importlib.util.spec_from_file_location(
        "agekit_base", package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules["agekit_base"] = module
    spec.loader.exec_module(module)
    return commit, package


def main(argv):
    table = rows()
    layers = sorted({layer for layer, _, _ in table})
    if not argv or argv[0].startswith("-") or not set(argv[1:]) <= set(layers):
        raise SystemExit(f"usage: ab.py REV [LAYER ...]\nlayers: {' '.join(layers)}")
    wanted = set(argv[1:]) or set(layers)
    with tempfile.TemporaryDirectory(prefix="agekit-ab-") as tmp:
        commit, base_package = export_base(argv[0], os.path.join(tmp, "base_tree"))
        digests = {"base": source_digest(base_package), "change": source_digest(SRC / "agekit")}
        sides = {"base": Side("agekit_base", base_package.parent), "change": Side("agekit", SRC)}
        works = {label: os.path.join(tmp, label) for label in sides}
        for work in works.values():
            os.mkdir(work)
        results = []
        for layer, name, setup in table:
            if layer in wanted:
                print(f"{layer} {name}", file=sys.stderr)
                results.append(compare(layer, name, setup, sides, works))
    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }
    settings = {"rounds": ROUNDS, "min_rounds": MIN_ROUNDS, "row_budget_s": ROW_BUDGET_S,
                "calls": CALLS, "sample_s": SAMPLE_S}
    report = {"env": env, "rev": commit, "src_sha256": digests, **settings, "results": results}
    print(json.dumps(report, indent=1))


if __name__ == "__main__":
    main(sys.argv[1:])
