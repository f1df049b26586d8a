"""End-to-end tests for the command-line interface.

Exit-code contract under test: 0 success, 2 usage/parse error, 3 domain
error. Commands are driven in-process through main(argv).
"""

import functools
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import agekit
from agekit import fitting
from agekit.cli import L2_WORKLOAD, default_config, main
from agekit.fitting import FIT_REPORT_HEADER, fit
from agekit.model import FeedbackLoopModel, eval_model
from agekit.normalize import to_aging_curve
from agekit.simulator import (
    TRACE_HEADER,
    RejuvenationPolicy,
    SimConfig,
    aging_degree,
    load_trace,
    parse_workload,
    run,
    trace_csv,
)
from agekit.smoothing import lowess_values
from agekit.timeseries import Orientation, load_series, rescale_time

SVG_NS = "{http://www.w3.org/2000/svg}"


def write_series_csv(path, t, values):
    lines = ["t,value"] + [f"{repr(float(a))},{repr(float(b))}" for a, b in zip(t, values)]
    path.write_text("\n".join(lines) + "\n")


def fit_stderr(name, curve):
    """What fit and report must print: the warning once iff the library fit does not converge."""
    if fit(curve).converged:
        return ""
    return f"warning: {name}: fit did not converge (converged=false)\n"


def read_report(path):
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ",".join(FIT_REPORT_HEADER)
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        rows.append(
            {
                "name": parts[0],
                "K": float(parts[1]),
                "alpha": float(parts[2]),
                "beta": float(parts[3]),
                "rmse": float(parts[4]),
                "r_square": float(parts[5]),
            }
        )
    return rows


@pytest.fixture(scope="module")
def l2_trace(tmp_path_factory):
    # one shared full-length simulation of the aging workload
    path = tmp_path_factory.mktemp("sim") / "l2.csv"
    assert main(["simulate", "--ticks", "4000", "--seed", "0", "-o", str(path)]) == 0
    return path


class TestExitCodes:
    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert main(["explode"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "smooth" in capsys.readouterr().out

    def test_malformed_workload_tuple(self, tmp_path, capsys):
        code = main(["simulate", "--workload", "1,2,3", "-o", str(tmp_path / "t.csv")])
        assert code == 2
        assert "agekit: error:" in capsys.readouterr().err

    def test_inconsistent_workload_tuple(self, tmp_path, capsys):
        # parses fine, violates file_max_object <= file_object
        code = main(
            ["simulate", "--workload", "600,0,20,100,1000,0", "-o", str(tmp_path / "t.csv")]
        )
        assert code == 3

    def test_over_capacity_workload(self, tmp_path):
        code = main(
            ["simulate", "--workload", "950,0,20,20,1000,0", "-o", str(tmp_path / "t.csv")]
        )
        assert code == 3

    def test_bad_smoothing_fraction(self, tmp_path):
        src = tmp_path / "in.csv"
        write_series_csv(src, [1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert main(["smooth", str(src), str(tmp_path / "out.csv"), "--fraction", "0"]) == 3

    def test_missing_input_file(self, tmp_path, capsys):
        code = main(
            [
                "fit",
                str(tmp_path / "absent.csv"),
                "--orientation",
                "higher-is-worse",
                "-o",
                str(tmp_path / "r.csv"),
            ]
        )
        assert code == 2

    def test_svg_with_multiple_fit_inputs(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        t = np.linspace(1.0, 10.0, 20)
        write_series_csv(a, t, t**1.5)
        write_series_csv(b, t, t**1.2)
        code = main(
            [
                "fit",
                str(a),
                str(b),
                "--orientation",
                "higher-is-worse",
                "-o",
                str(tmp_path / "r.csv"),
                "--svg",
                str(tmp_path / "c.svg"),
            ]
        )
        assert code == 2
        assert "exactly one input" in capsys.readouterr().err

    def test_rejuvenation_tick_must_precede_end(self, tmp_path):
        code = main(
            [
                "rejuvenate",
                "--policy",
                "cache-hit",
                "--rejuvenation-tick",
                "500",
                "--ticks",
                "500",
                "-o",
                str(tmp_path / "t.csv"),
            ]
        )
        assert code == 3

    @pytest.mark.parametrize(
        "extra",
        [
            ["--policy", "probabilistic"],  # missing --policy-p
            ["--policy", "cache-hit", "--policy-p", "0.5"],
            ["--policy", "none", "--refcount", "5"],
            ["--policy", "memreap"],  # missing --refcount
        ],
    )
    def test_mismatched_policy_flags(self, tmp_path, extra, capsys):
        code = main(["simulate", *extra, "--ticks", "10", "-o", str(tmp_path / "t.csv")])
        assert code == 2

    def test_refcount_with_probabilistic_policy(self, tmp_path, capsys):
        # every policy flag outside its own variant is a usage error
        argv = ["simulate", "--policy", "probabilistic", "--policy-p", "0.5", "--refcount", "5"]
        assert main([*argv, "--ticks", "10", "-o", str(tmp_path / "t.csv")]) == 2
        assert "--refcount is only valid with --policy memreap" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    def test_unwritable_output_names_the_users_path(self, tmp_path, capsys):
        out = str(tmp_path / "absent" / "t.csv")
        assert main(["simulate", "--ticks", "1", "-o", out]) == 2
        assert capsys.readouterr().err == (
            f"agekit: error: [Errno 2] No such file or directory: {out!r}\n"
        )
        assert not (tmp_path / "absent").exists()

    @pytest.mark.parametrize(
        "command",
        [["simulate"], ["rejuvenate", "--policy", "cache-hit", "--rejuvenation-tick", "5"]],
    )
    def test_negative_seed_is_a_domain_error(self, tmp_path, capsys, command):
        out = tmp_path / "t.csv"
        assert main([*command, "--ticks", "10", "--seed", "-1", "-o", str(out)]) == 3
        assert capsys.readouterr().err == (
            "agekit: error: seed must be a nonnegative integer, got -1\n"
        )
        assert not out.exists()

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("flux_capacitor=1\n")
        code = main(
            ["simulate", "--config", str(cfg), "--ticks", "10", "-o", str(tmp_path / "t.csv")]
        )
        assert code == 2


class TestSmooth:
    def test_matches_library_smoother(self, tmp_path):
        rng = np.random.default_rng(5)
        t = np.linspace(0.5, 20.0, 40)
        values = 0.2 * t + rng.normal(0.0, 0.4, 40)
        src = tmp_path / "raw.csv"
        write_series_csv(src, t, values)
        out = tmp_path / "smooth.csv"
        assert main(["smooth", str(src), str(out), "--fraction", "0.4"]) == 0

        series = load_series(out, "smooth", Orientation.HIGHER_IS_WORSE)
        assert len(series.t) == 40
        np.testing.assert_array_equal(series.t, t)
        np.testing.assert_array_equal(series.values, lowess_values(t, values, fraction=0.4))

    def test_fraction_sweep_writes_every_file(self, tmp_path):
        rng = np.random.default_rng(6)
        t = np.linspace(1.0, 30.0, 60)
        src = tmp_path / "raw.csv"
        write_series_csv(src, t, np.sqrt(t) + rng.normal(0.0, 0.1, 60))
        outputs = []
        for fraction in ("0.1", "0.2", "0.3", "0.4"):
            out = tmp_path / f"smooth_{fraction}.csv"
            assert main(["smooth", str(src), str(out), "--fraction", fraction]) == 0
            outputs.append(out.read_text())
        assert all(text.startswith("t,value\n") for text in outputs)
        assert len(set(outputs)) == 4  # each fraction smooths differently


class TestFit:
    def make_model_series(self, path, record, n=80):
        # seconds on disk; the default --time-scale turns them into hours
        t_hours = np.linspace(0.001, 10.0, n)
        values = eval_model(record, t_hours)
        write_series_csv(path, t_hours * 3600.0, values)
        return t_hours, values

    def test_single_input_recovers_shape(self, tmp_path, capsys):
        record = FeedbackLoopModel(0.4504, 0.05, 1.2)
        src = tmp_path / "tpcw.csv"
        self.make_model_series(src, record)
        out = tmp_path / "report.csv"
        assert main(["fit", str(src), "--orientation", "higher-is-worse", "-o", str(out)]) == 0

        series = load_series(src, "tpcw", Orientation.HIGHER_IS_WORSE)
        curve = to_aging_curve(rescale_time(series, 1.0 / 3600.0))
        assert capsys.readouterr().err == fit_stderr("tpcw", curve)

        rows = read_report(out)
        assert len(rows) == 1
        assert rows[0]["name"] == "tpcw"
        # smoothing plus normalization rescale K and blur the exponents a
        # little; the growth shape must survive within ten percent
        assert rows[0]["beta"] == pytest.approx(record.beta, rel=0.1)
        assert rows[0]["r_square"] > 0.999

    def test_multiple_inputs_keep_order(self, tmp_path):
        names = ["web_a", "web_b", "web_c"]
        paths = []
        for index, name in enumerate(names):
            path = tmp_path / f"{name}.csv"
            self.make_model_series(path, FeedbackLoopModel(0.3, 0.01, 1.0 + 0.3 * index))
            paths.append(str(path))
        out = tmp_path / "report.csv"
        code = main(["fit", *paths, "--orientation", "higher-is-worse", "-o", str(out)])
        assert code == 0
        rows = read_report(out)
        assert [row["name"] for row in rows] == names
        betas = [row["beta"] for row in rows]
        assert betas == sorted(betas)

    def test_svg_output_parses(self, tmp_path):
        src = tmp_path / "series.csv"
        self.make_model_series(src, FeedbackLoopModel(0.3, 0.05, 1.2))
        out = tmp_path / "report.csv"
        chart = tmp_path / "fit.svg"
        code = main(
            [
                "fit",
                str(src),
                "--orientation",
                "higher-is-worse",
                "-o",
                str(out),
                "--svg",
                str(chart),
            ]
        )
        assert code == 0
        root = ET.fromstring(chart.read_text())
        assert root.tag == f"{SVG_NS}svg"
        # observed, fitted, and residual lines across the two panels
        assert len(root.findall(f".//{SVG_NS}polyline")) == 3

    def test_time_scale_flag(self, tmp_path):
        # same curve written directly in hours fits with --time-scale 1
        record = FeedbackLoopModel(0.3, 0.05, 1.2)
        src = tmp_path / "hours.csv"
        t_hours = np.linspace(0.001, 10.0, 60)
        write_series_csv(src, t_hours, eval_model(record, t_hours))
        out = tmp_path / "report.csv"
        code = main(
            [
                "fit",
                str(src),
                "--orientation",
                "higher-is-worse",
                "--time-scale",
                "1",
                "-o",
                str(out),
            ]
        )
        assert code == 0
        assert read_report(out)[0]["beta"] == pytest.approx(1.2, rel=0.1)


class TestSimulate:
    def test_minimal_run_has_two_rows(self, tmp_path):
        out = tmp_path / "tiny.csv"
        assert main(["simulate", "--ticks", "1", "-o", str(out)]) == 0
        columns = load_trace(out)
        np.testing.assert_array_equal(columns["tick"], [0.0, 1.0])

    def test_trace_length_and_chart(self, tmp_path):
        out = tmp_path / "trace.csv"
        chart = tmp_path / "trace.svg"
        code = main(["simulate", "--ticks", "300", "-o", str(out), "--svg", str(chart)])
        assert code == 0
        assert len(load_trace(out)["tick"]) == 301
        root = ET.fromstring(chart.read_text())
        # bandwidth, working set, cache, stale, queue
        assert len(root.findall(f".//{SVG_NS}polyline")) == 5

    def test_same_seed_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert main(["simulate", "--ticks", "400", "--seed", "9", "-o", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_differs(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--ticks", "400", "--seed", "0", "-o", str(a)]) == 0
        assert main(["simulate", "--ticks", "400", "--seed", "1", "-o", str(b)]) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_custom_config_changes_trajectory(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("cache_growth_mb_per_miss=0.0006\n")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--ticks", "200", "-o", str(a)]) == 0
        assert main(["simulate", "--config", str(cfg), "--ticks", "200", "-o", str(b)]) == 0
        assert load_trace(b)["cache_mb"][-1] > load_trace(a)["cache_mb"][-1]

    def test_probabilistic_policy_matches_library_run(self, tmp_path):
        out = tmp_path / "p.csv"
        argv = ["simulate", "--policy", "probabilistic", "--policy-p", "0.3", "--trigger", "0.1"]
        assert main([*argv, "--ticks", "1000", "-o", str(out)]) == 0
        cfg, load = SimConfig(), parse_workload(L2_WORKLOAD)
        policy = RejuvenationPolicy.probabilistic(0.3, trigger_threshold=0.1)
        assert out.read_text() == trace_csv(run(cfg, load, policy, ticks=1000, seed=0))
        # the policy armed: the trace differs from the unpoliced one
        assert out.read_text() != trace_csv(run(cfg, load, ticks=1000, seed=0))

    def test_default_config_matches_builtin(self):
        assert default_config() == SimConfig()

    def test_poisson_law_on_large_catalog(self, tmp_path):
        # lam = 0.25 * 4000 = 1000: exp(-lam) underflows to 0 in double precision
        cfg = tmp_path / "big.cfg"
        cfg.write_text("catalog_files = 4000\n")
        out = tmp_path / "big.csv"
        argv = ["simulate", "--config", str(cfg), "--workload", "600,2,4000,20,1000,0"]
        assert main(argv + ["--ticks", "50", "-o", str(out)]) == 0
        assert len(load_trace(out)["tick"]) == 51


class TestRejuvenate:
    def test_cache_hit_restores_bandwidth(self, tmp_path, l2_trace):
        out = tmp_path / "rejuvenated.csv"
        chart = tmp_path / "rejuvenated.svg"
        code = main(
            [
                "rejuvenate",
                "--policy",
                "cache-hit",
                "--rejuvenation-tick",
                "3000",
                "--ticks",
                "4000",
                "-o",
                str(out),
                "--svg",
                str(chart),
            ]
        )
        assert code == 0
        policed = load_trace(out)
        plain = load_trace(l2_trace)
        assert len(policed["tick"]) == 4001
        # identical prefix up to the switch, recovery afterwards
        np.testing.assert_array_equal(
            policed["bandwidth_kbyte"][:3001], plain["bandwidth_kbyte"][:3001]
        )
        post = policed["bandwidth_kbyte"][3001:]
        pre_tail = policed["bandwidth_kbyte"][2601:3001]
        assert post.mean() > pre_tail.mean()
        ET.fromstring(chart.read_text())

    def test_memreap_flags_accepted(self, tmp_path):
        out = tmp_path / "reap.csv"
        code = main(
            [
                "rejuvenate",
                "--policy",
                "memreap",
                "--refcount",
                "15",
                "--rejuvenation-tick",
                "3000",
                "--ticks",
                "3200",
                "-o",
                str(out),
            ]
        )
        assert code == 0
        assert len(load_trace(out)["tick"]) == 3201


class TestReport:
    def test_fits_simulated_bandwidth(self, tmp_path, l2_trace, capsys):
        out = tmp_path / "report.csv"
        chart = tmp_path / "report.svg"
        code = main(["report", str(l2_trace), "-o", str(out), "--svg", str(chart)])
        assert code == 0
        rows = read_report(out)
        assert len(rows) == 1
        assert rows[0]["name"] == "l2"
        assert rows[0]["r_square"] > 0.9
        root = ET.fromstring(chart.read_text())
        assert root.tag == f"{SVG_NS}svg"

        columns = load_trace(l2_trace)
        curve = aging_degree(columns["tick"], columns["bandwidth_kbyte"], default_config(), "l2")
        assert capsys.readouterr().err == fit_stderr("l2", curve)

    def test_default_simulate_then_report_writes_no_warning(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        assert main(["simulate", "--ticks", "4000", "--seed", "0", "-o", str(trace)]) == 0
        assert main(["report", str(trace), "-o", str(tmp_path / "report.csv")]) == 0
        assert capsys.readouterr().err == ""

    def test_unconverged_fit_warns_and_still_writes(self, tmp_path, l2_trace, capsys, monkeypatch):
        capped = functools.partial(fitting.levenberg_marquardt, max_iterations=1)
        monkeypatch.setattr(fitting, "levenberg_marquardt", capped)
        out = tmp_path / "report.csv"
        assert main(["report", str(l2_trace), "-o", str(out)]) == 0
        assert capsys.readouterr().err == "warning: l2: fit did not converge (converged=false)\n"
        assert [row["name"] for row in read_report(out)] == ["l2"]

    def test_rejects_non_trace_input(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.csv"
        write_series_csv(bogus, [1.0, 2.0], [3.0, 4.0])
        assert main(["report", str(bogus), "-o", str(tmp_path / "r.csv")]) == 2

        # a non-finite trace field is a parse error that names file, row and field
        non_finite = tmp_path / "non_finite.csv"
        non_finite.write_text(",".join(TRACE_HEADER) + "\n0,1,2,3,4,5,6\n1,1,2,3,4,nan,6\n")
        capsys.readouterr()
        assert main(["report", str(non_finite), "-o", str(tmp_path / "r.csv")]) == 2
        err = capsys.readouterr().err
        assert "non_finite.csv: row 3: field bandwidth_kbyte is not finite" in err


class TestModuleEntrypoint:
    """``python -m agekit`` exits with main's code."""

    def agekit(self, *argv):
        src = os.path.dirname(os.path.dirname(os.path.abspath(agekit.__file__)))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        return subprocess.run(
            [sys.executable, "-m", "agekit", *argv], env=env, capture_output=True, text=True
        )

    def test_success(self, tmp_path):
        out = tmp_path / "t.csv"
        done = self.agekit("simulate", "--ticks", "5", "-o", str(out))
        assert done.returncode == 0, done.stderr
        assert len(load_trace(out)["tick"]) == 6

    def test_domain_error_exit_code(self, tmp_path):
        out = str(tmp_path / "t.csv")
        done = self.agekit("simulate", "--workload", "950,0,20,20,1000,0", "-o", out)
        assert done.returncode == 3
        assert done.stderr.startswith("agekit: error: client_count (950) exceeds capacity_clients")

    @pytest.mark.parametrize(
        "rows",
        [
            # the cube of |t_j - t_i| / d_max would overflow far outside the
            # first two rows' windows
            ["0.0,1.0", "0.125,0.0", "1.6759759912428246e+153,0.0"],
            # row 0's radius is 5e-324, so 1 / d_max alone would overflow
            ["0.0,1.0", "5e-324,0.0", "1.0,0.0"],
        ],
    )
    def test_smooth_over_a_vast_gap_writes_nothing_to_stderr(self, tmp_path, rows):
        # the far points weigh 0 and numpy must not warn about them
        src = tmp_path / "raw.csv"
        src.write_text("\n".join(["t,value", *rows]) + "\n")
        done = self.agekit("smooth", str(src), str(tmp_path / "smooth.csv"))
        assert done.returncode == 0
        assert done.stderr == ""
