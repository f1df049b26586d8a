"""agekit benchmark: time one workload end to end through ``agekit.cli.main``.

    python3 perfbench/run.py --workload report-uniform --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Run from a checkout: the benchmark imports agekit from ``src/`` beside it.
One run is one fresh Python process with one caller: it repeats the
workload's round of CLI ops, one op after the other, for about ``--seconds``
(at least three rounds), and checks every op's outputs. Times are reported as
the sum over the round's ops of each op's fastest time in the run. With ``--trace 1`` it alternates untraced rounds with rounds run
under the span tracer and reports the per-layer metrics instead. The last
line of standard output is the result as one JSON object.
"""

import argparse
import contextlib
import ctypes
import gc
import hashlib
import importlib.util
import io
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ORACLE = ROOT / "tests" / "reference_lowess.py"
WORK_PARENT = ROOT / ".perfbench_work"

MIN_PASSES = 3  # fewest untraced rounds in a run; with --trace 1 each has a traced twin
SETUP_PROBES = 7
SETUP_PROBE = "import agekit.cli; agekit.cli.default_config(); print('ready', flush=True)"
ORACLE_TOLERANCE = 1e-9

# (name, unit, better). END_TO_END and PER_LAYER are the result line's
# metrics and must match BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
# Printed by every untraced run, but kept out of the result line: each one
# is undefined or exactly 0 on at least one workload (see README.md).
USER_METRICS = (
    ("sim_ticks_per_s", "1/s", "higher"),
    ("fit_series_per_s", "1/s", "higher"),
    ("fit_converged_share", "share", "higher"),
    ("fit_rmse_p50", "1", "lower"),
    ("error_rate", "share", "lower"),
)
PER_LAYER = (
    ("smoothing.lowess_s", "s", "lower"),
    ("smoothing.calls", "count", "lower"),
    ("smoothing.samples", "count", "lower"),
    ("smoothing.pair_evals", "count", "lower"),
    ("smoothing.ns_per_pair", "ns", "lower"),
    ("normalize.self_s", "s", "lower"),
    ("normalize.normalize_only_s", "s", "lower"),
    ("fitting.fit_s", "s", "lower"),
    ("fitting.lm_s", "s", "lower"),
    ("fitting.lm_s_max", "s", "lower"),
    ("fitting.lm_iterations", "count", "lower"),
    ("fitting.lm_cap_hits", "count", "lower"),
    ("fitting.lm_accepted_share", "share", "higher"),
    ("fitting.converged_share", "share", "higher"),
    ("fitting.rmse_p50", "1", "lower"),
    ("fitting.write_reports_s", "s", "lower"),
    ("model.eval_model_s", "s", "lower"),
    ("model.eval_points", "count", "lower"),
    ("simulator.run_s", "s", "lower"),
    ("simulator.ticks", "count", "higher"),
    ("simulator.us_per_tick", "us", "lower"),
    ("simulator.policy_active_share", "share", "higher"),
    ("simulator.trace_csv_s", "s", "lower"),
    ("simulator.load_trace_s", "s", "lower"),
    ("simulator.rows_loaded", "count", "lower"),
    ("timeseries.load_series_s", "s", "lower"),
    ("timeseries.rows_read", "count", "lower"),
    ("timeseries.write_s", "s", "lower"),
    ("timeseries.bytes_written", "bytes", "lower"),
    ("svg.render_chart_s", "s", "lower"),
    ("svg.points", "count", "lower"),
    ("svg.bytes", "bytes", "lower"),
    ("cli.main_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.calls", "count", "lower"),
    ("trace_overhead_s", "s", "lower"),
)


class Runner:
    """Runs rounds of ops through ``cli.main`` and applies the correctness gate.

    ``best[traced][i]`` is op i's fastest time so far in untraced (False) or
    traced (True) rounds, and ``walls[traced]`` holds the round totals.
    """

    def __init__(self, ops, cli, trace_header, report_header):
        self.ops = ops
        self.cli = cli
        self.headers = (trace_header, report_header)
        self.digests = {}
        self.attempted = 0
        self.failed = 0
        self.best = {False: [math.inf] * len(ops), True: [math.inf] * len(ops)}
        self.walls = {False: [], True: []}
        self.fit_rows = {}  # op index -> {series name: (rmse, r_square)}
        self.unconverged = {}  # op index -> fits the CLI warned did not converge

    def round(self, tracer=None):
        traced = tracer is not None
        wall = 0.0
        for index, op in enumerate(self.ops):
            for path in op.outputs:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(path)
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                start = perf_counter()
                try:
                    code = self.cli.main(list(op.argv))
                except Exception as exc:  # an escaped error fails the op, not the run
                    code = f"{type(exc).__name__}: {exc}"
                elapsed = perf_counter() - start
            if tracer is not None:
                tracer.resolve()
            self.attempted += 1
            wall += elapsed
            self.best[traced][index] = min(self.best[traced][index], elapsed)
            try:
                rows = self._check(index, op, code)
            except workloads.CheckFailed as exc:
                self.failed += 1
                print(f"perfbench: op {index} {op.argv[0]} failed: {exc}", file=sys.stderr)
                print(stderr.getvalue(), end="", file=sys.stderr)
                continue
            if op.report is not None:
                self.fit_rows[index] = rows
                self.unconverged[index] = stderr.getvalue().count("(converged=false)")
        self.walls[traced].append(wall)

    def best_wall(self, traced=False, kind=None):
        """Sum of the fastest time of each op (of one kind, if given)."""
        return sum(t for op, t in zip(self.ops, self.best[traced]) if kind in (None, op.kind))

    def _check(self, index, op, code):
        if code != 0:
            raise workloads.CheckFailed(f"exit code {code}")
        rows = workloads.check_op(op, *self.headers)
        digest = hashlib.sha256()
        for path in op.outputs:
            digest.update(Path(path).read_bytes())
        # the first round of the run fixes the bytes every later round must write
        if self.digests.setdefault(index, digest.digest()) != digest.digest():
            raise workloads.CheckFailed("output bytes differ from the run's first round")
        return rows


def measure_setup():
    """Seconds from spawning a fresh interpreter until agekit.cli is ready."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    times = []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", SETUP_PROBE], stdout=subprocess.PIPE, env=env, cwd=ROOT
        ) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
            proc.stdout.read()
            proc.wait(timeout=60)
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        times.append(elapsed)
    return times


def lowess_oracle_deviation(seed, lowess_values):
    """Largest gap between lowess_values and tests/reference_lowess.py.

    Runs on the shortest fit-irregular series of the seed, scaled to unit
    magnitude so the absolute tolerance means what it means in the
    acceptance tests.
    """
    spec = importlib.util.spec_from_file_location("reference_lowess", ORACLE)
    reference = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reference)
    _, _, t, values = min(workloads.fit_irregular_series(seed), key=lambda s: len(s[2]))
    hours = t / 3600.0
    values = values / np.max(np.abs(values))
    fast = lowess_values(hours, values)
    naive = np.asarray(reference.reference_lowess(hours, values))
    return float(np.max(np.abs(fast - naive)))


def _blas_threads():
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            func = getattr(handle, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return func()
    return None


def _git_commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "agekit").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(workload, seed):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    thread_env = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in thread_env if k in os.environ},
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
    }


def user_metrics(runner):
    ticks = sum(op.ticks for op in runner.ops)
    rows = [row for rows in runner.fit_rows.values() for row in rows.values()]
    return {
        "sim_ticks_per_s": ticks / runner.best_wall(kind="sim") if ticks else None,
        "fit_series_per_s": len(rows) / runner.best_wall(kind="fit") if rows else None,
        "fit_converged_share": (
            1.0 - sum(runner.unconverged.values()) / len(rows) if rows else None
        ),
        "fit_rmse_p50": statistics.median(r for r, _ in rows) if rows else None,
        "error_rate": runner.failed / runner.attempted,
    }


def _print_table(specs, values):
    for name, unit, better in specs:
        value = values[name]
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:32s} {shown:>14s} {unit:6s} ({better} is better)")


def run_workload(args, setup_times, work):
    from agekit import cli, smoothing
    from agekit.fitting import FIT_REPORT_HEADER
    from agekit.simulator import TRACE_HEADER

    import tracer as tracing

    deviation = lowess_oracle_deviation(args.seed, smoothing.lowess_values)
    ops = workloads.BUILDERS[args.workload](args.seed, work)
    runner = Runner(ops, cli, TRACE_HEADER, FIT_REPORT_HEADER)
    tracer = tracing.Tracer() if args.trace else None
    start = perf_counter()
    for passes in itertools.count(1):
        gc.collect()
        runner.round()
        if tracer is not None:
            gc.collect()
            with tracer.installed():
                runner.round(tracer)
        elapsed = perf_counter() - start
        # stop at the pass boundary nearest to the requested time
        if passes >= MIN_PASSES and elapsed + 0.5 * elapsed / passes >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    correct = runner.failed == 0 and deviation <= ORACLE_TOLERANCE
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# env {json.dumps(environment(args.workload, args.seed), sort_keys=True)}")
    print(
        f"# {passes} untraced and {len(runner.walls[True])} traced rounds of {len(ops)} ops;"
        f" ops attempted {runner.attempted}, failed {runner.failed};"
        f" lowess oracle deviation {deviation:.3g} (tolerance {ORACLE_TOLERANCE:g})"
    )
    print(f"# untraced round walls [s]: {' '.join(f'{w:.4f}' for w in runner.walls[False])}")
    end_to_end = {
        "setup_s": statistics.median(setup_times),
        "wall_s": runner.best_wall(),
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is None:
        _print_table(END_TO_END, end_to_end)
        _print_table(USER_METRICS, user_metrics(runner))
        specs, values = END_TO_END, end_to_end
    else:
        traced_walls = runner.walls[True]
        values = tracing.layer_metrics(tracer.spans, len(traced_walls))
        values["trace_overhead_s"] = runner.best_wall(traced=True) - end_to_end["wall_s"]
        _print_table(PER_LAYER, values)
        print(
            f"# traced round wall mean {statistics.mean(traced_walls):.6g} s; spans account"
            f" for {values['cli.main_s']:.6g} s of it (wrapped self times plus cli.self_s)"
        )
        specs = PER_LAYER
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in specs}
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def run_all(args):
    """Run every workload, each in its own fresh process."""
    codes = []
    for name in workloads.NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        argv += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
        argv += ["--trace", str(args.trace)]
        codes.append(subprocess.run(argv, check=False).returncode)
    return max(codes)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0, help="input seed (default: 0)")
    parser.add_argument(
        "--seconds", type=float, default=30.0, help="measuring time per run (default: 30)"
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0, help="1: report per-layer metrics"
    )
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "agekit" / "cli.py").is_file() or not ORACLE.is_file():
        print(
            f"perfbench: no agekit sources under {ROOT}; run it from a full checkout",
            file=sys.stderr,
        )
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    try:
        setup_times = measure_setup()
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    WORK_PARENT.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=WORK_PARENT)
    try:
        return run_workload(args, setup_times, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_PARENT.rmdir()


if __name__ == "__main__":
    sys.exit(main())
