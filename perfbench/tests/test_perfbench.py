"""Self-tests of the benchmark: input generation, metric declarations, the
correctness gate, and the tracer's patching and self-time arithmetic.

    python3 -m pytest perfbench/tests -q
"""

import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from agekit import cli, fitting, normalize, simulator, smoothing  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
ALL_METRICS = run.END_TO_END + run.USER_METRICS + run.PER_LAYER


def _inputs(seed):
    return [workloads.series_csv(t, v) for _, _, t, v in workloads.fit_irregular_series(seed)]


def test_same_seed_gives_byte_identical_inputs():
    assert _inputs(7) == _inputs(7)


def test_different_seed_gives_different_inputs():
    first, second = _inputs(7), _inputs(8)
    assert all(a != b for a, b in zip(first, second))


def test_fit_irregular_shape():
    series = workloads.fit_irregular_series(3)
    assert len(series) == workloads.FIT_SERIES
    sizes = [len(t) for _, _, t, _ in series]
    assert min(sizes) >= workloads.FIT_MIN_SAMPLES and max(sizes) <= workloads.FIT_MAX_SAMPLES
    for i, (_, orientation, t, _) in enumerate(series):
        gaps = t[1:] - t[:-1]
        assert gaps.min() >= workloads.FIT_SPACING_S[0] and gaps.max() <= workloads.FIT_SPACING_S[1]
        call = i // workloads.FIT_FILES_PER_CALL
        assert orientation == ("higher-is-worse" if call % 2 == 0 else "lower-is-worse")


def test_metric_names_are_well_formed_and_unique():
    names = [name for name, _, _ in ALL_METRICS]
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in names)
    assert len(names) == len(set(names))


def test_every_metric_declares_unit_and_direction():
    for name, unit, better in ALL_METRICS:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit), name
        assert better in ("lower", "higher"), name


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    assert declared == list(run.END_TO_END)
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert declared == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def _fit_op(tmp_path, rows):
    report = tmp_path / "report.csv"
    report.write_text("name,K,alpha,beta,rmse,r_square\n" + "".join(r + "\n" for r in rows))
    return workloads.Op(("fit",), "fit", report=str(report), series_names=("a", "b"))


def test_gate_accepts_a_good_report(tmp_path):
    op = _fit_op(tmp_path, ["a,1.0,0.0,0.5,0.01,0.9", "b,1.0,0.1,0.5,0.02,0.8"])
    rows = workloads.check_op(op, simulator.TRACE_HEADER, fitting.FIT_REPORT_HEADER)
    assert rows == {"a": (0.01, 0.9), "b": (0.02, 0.8)}


@pytest.mark.parametrize(
    "rows",
    [
        ["a,1.0,0.0,0.5,0.01,0.9"],
        ["a,1.0,0.0,0.5,0.01,0.9", "b,1.0,0.1,0.5,0.02,1.5"],
        ["a,1.0,0.0,0.5,nan,0.9", "b,1.0,0.1,0.5,0.02,0.8"],
    ],
)
def test_gate_rejects_a_bad_report(tmp_path, rows):
    op = _fit_op(tmp_path, rows)
    with pytest.raises(workloads.CheckFailed):
        workloads.check_op(op, simulator.TRACE_HEADER, fitting.FIT_REPORT_HEADER)


def test_gate_rejects_a_short_trace(tmp_path):
    trace = tmp_path / "trace.csv"
    states = simulator.run(cli.default_config(), simulator.parse_workload("600,0,20,20,1000,0"), ticks=5)
    trace.write_text(simulator.trace_csv(states))
    op = workloads.Op(("simulate",), "sim", trace=str(trace), ticks=6)
    with pytest.raises(workloads.CheckFailed):
        workloads.check_op(op, simulator.TRACE_HEADER, fitting.FIT_REPORT_HEADER)


def test_tracer_patches_every_alias_and_restores():
    originals = (cli.fit, cli.to_aging_curve, normalize.lowess, smoothing.lowess_values)
    spy = tracer.Tracer()
    with spy.installed():
        assert cli.fit is fitting.fit and cli.fit is not originals[0]
        assert cli.to_aging_curve is normalize.to_aging_curve
        assert smoothing.lowess_values is not originals[3]
    assert (cli.fit, cli.to_aging_curve, normalize.lowess, smoothing.lowess_values) == originals


def test_self_times_add_up_to_main(tmp_path):
    name, orientation, t, values = workloads.fit_irregular_series(0)[0]
    path = tmp_path / f"{name}.csv"
    path.write_text(workloads.series_csv(t, values))
    spy = tracer.Tracer()
    with spy.installed():
        assert cli.main(["fit", "--orientation", orientation, "-o", str(tmp_path / "r.csv"), str(path)]) == 0
    spy.resolve()
    metrics = tracer.layer_metrics(spy.spans, rounds=1)
    parts = [v for k, v in metrics.items() if k.endswith("_s") and k not in ("cli.main_s", "fitting.lm_s_max")]
    assert sum(parts) == pytest.approx(metrics["cli.main_s"], rel=1e-9)
    assert metrics["smoothing.calls"] == 1 and metrics["smoothing.samples"] == len(t)
    assert metrics["timeseries.rows_read"] == len(t) and metrics["cli.calls"] == 1
