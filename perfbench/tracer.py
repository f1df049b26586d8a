"""Spans around agekit's public functions, recorded from outside the package.

``Tracer.installed()`` replaces every module attribute through which a
wrapped function is resolved (``agekit.cli.fit`` and ``agekit.fitting.fit``
both name ``fit``) with one timing wrapper, and restores the originals on
exit, so the traced run takes exactly the path of the untimed one. ``step``
and the other per-tick helpers are not wrapped: a span per tick would cost
more than the tick. Counts are taken from arguments and return values after
the op returns (``resolve``), so counting never runs inside a span.

Spans stay in memory; ``layer_metrics`` turns them into self times once, at
the end of the run. A span's self time is its duration minus the durations of
its direct child spans.
"""

import inspect
import math
import statistics
import sys
from collections import defaultdict
from time import perf_counter

from agekit.simulator import PolicyVariant, aging_level


def _active_steps(priors, cfg, policy):
    if policy.variant is PolicyVariant.NONE:
        return 0
    return sum(aging_level(s, cfg) >= policy.trigger_threshold for s in priors)


def _run_counts(args, states):
    return {
        "ticks": len(states) - 1,
        "active": _active_steps(states[:-1], args["cfg"], args["policy"]),
    }


def _experiment_counts(args, result):
    before, after = result
    priors = [before[-1], *after[:-1]]
    return {
        "ticks": len(before) - 1 + len(after),
        "active": _active_steps(priors, args["cfg"], args["policy"]),
    }


def _lowess_counts(args, smoothed):
    n = len(smoothed)
    window = max(2, math.ceil(args["fraction"] * n))
    return {"samples": n, "pairs": n * window}


def _lm_counts(args, result):
    return {
        "iterations": result.iterations,
        "accepted": len(result.ssr_path) - 1,
        "cap_hits": int(not result.converged and result.iterations >= args["max_iterations"]),
    }


def _chart_counts(args, svg_text):
    points = sum(len(s.x) for panel in args["panels"] for s in panel.series)
    return {"points": points, "bytes": len(svg_text.encode("utf-8"))}


# (module, function, counter(bound arguments, return value) -> {count: number})
LAYERS = (
    ("cli", "main", None),
    ("timeseries", "load_series", lambda a, r: {"rows": len(r.t)}),
    ("timeseries", "write_text_atomic", lambda a, r: {"bytes": len(a["text"].encode("utf-8"))}),
    ("smoothing", "lowess_values", _lowess_counts),
    ("normalize", "to_aging_curve", None),
    ("normalize", "normalize_only", None),
    ("model", "eval_model", lambda a, r: {"points": len(r)}),
    ("fitting", "fit", lambda a, r: {"converged": int(r.converged), "rmse": r.rmse}),
    ("fitting", "levenberg_marquardt", _lm_counts),
    ("fitting", "write_fit_reports", None),
    ("simulator", "run", _run_counts),
    ("simulator", "apply_policy_experiment", _experiment_counts),
    ("simulator", "trace_csv", None),
    ("simulator", "load_trace", lambda a, r: {"rows": len(r["tick"])}),
    ("svg", "render_chart", _chart_counts),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts", "_pending")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.counts = {}
        self._pending = None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []
        self._unresolved = []

    def _wrap(self, name, fn, counter):
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            span = Span(name, self._open[-1] if self._open else None)
            self.spans.append(span)
            self._open.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._open.pop()
            if counter is not None:
                span._pending = (counter, signature, args, kwargs, result)
                self._unresolved.append(span)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def resolve(self):
        """Take the counts of the spans recorded since the last call."""
        for span in self._unresolved:
            counter, signature, args, kwargs, result = span._pending
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            span.counts = counter(bound.arguments, result)
            span._pending = None
        self._unresolved.clear()

    def installed(self):
        return _Installed(self)


class _Installed:
    """Context manager that patches every alias of each wrapped function."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.patches = []

    def __enter__(self):
        modules = [m for n, m in sys.modules.items() if n == "agekit" or n.startswith("agekit.")]
        for module_name, func_name, counter in LAYERS:
            original = getattr(sys.modules[f"agekit.{module_name}"], func_name)
            wrapper = self.tracer._wrap(f"{module_name}.{func_name}", original, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self.patches.append((module, attr, original))
        return self.tracer

    def __exit__(self, *exc):
        for module, attr, original in reversed(self.patches):
            setattr(module, attr, original)
        self.patches.clear()
        return False


def _share(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans, rounds):
    """Per-round layer metrics from the spans of ``rounds`` traced rounds.

    Times and counts are per-round means, so the self times of all layers sum
    to ``cli.main_s``; ``fitting.lm_s_max`` is the longest single solver call.
    """
    child_time = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_time[id(span.parent)] += span.duration
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(float)
    lm_max = 0.0
    fit_rmse = []
    for span in spans:
        self_s[span.name] += span.duration - child_time[id(span)]
        total_s[span.name] += span.duration
        calls[span.name] += 1
        for key, value in span.counts.items():
            counts[f"{span.name}.{key}"] += value
        if span.name == "fitting.levenberg_marquardt":
            lm_max = max(lm_max, span.duration)
        if span.name == "fitting.fit":
            fit_rmse.append(span.counts["rmse"])

    def per_round(value):
        return value / rounds

    lowess_s = self_s["smoothing.lowess_values"]
    run_s = self_s["simulator.run"] + self_s["simulator.apply_policy_experiment"]
    ticks = counts["simulator.run.ticks"] + counts["simulator.apply_policy_experiment.ticks"]
    active = counts["simulator.run.active"] + counts["simulator.apply_policy_experiment.active"]
    return {
        "smoothing.lowess_s": per_round(lowess_s),
        "smoothing.calls": per_round(calls["smoothing.lowess_values"]),
        "smoothing.samples": per_round(counts["smoothing.lowess_values.samples"]),
        "smoothing.pair_evals": per_round(counts["smoothing.lowess_values.pairs"]),
        "smoothing.ns_per_pair": 1e9 * _share(lowess_s, counts["smoothing.lowess_values.pairs"]),
        "normalize.self_s": per_round(self_s["normalize.to_aging_curve"]),
        "normalize.normalize_only_s": per_round(self_s["normalize.normalize_only"]),
        "fitting.fit_s": per_round(self_s["fitting.fit"]),
        "fitting.lm_s": per_round(self_s["fitting.levenberg_marquardt"]),
        "fitting.lm_s_max": lm_max,
        "fitting.lm_iterations": per_round(counts["fitting.levenberg_marquardt.iterations"]),
        "fitting.lm_cap_hits": per_round(counts["fitting.levenberg_marquardt.cap_hits"]),
        "fitting.lm_accepted_share": _share(
            counts["fitting.levenberg_marquardt.accepted"],
            counts["fitting.levenberg_marquardt.iterations"],
        ),
        "fitting.converged_share": _share(counts["fitting.fit.converged"], calls["fitting.fit"]),
        "fitting.rmse_p50": statistics.median(fit_rmse) if fit_rmse else 0.0,
        "fitting.write_reports_s": per_round(self_s["fitting.write_fit_reports"]),
        "model.eval_model_s": per_round(self_s["model.eval_model"]),
        "model.eval_points": per_round(counts["model.eval_model.points"]),
        "simulator.run_s": per_round(run_s),
        "simulator.ticks": per_round(ticks),
        "simulator.us_per_tick": 1e6 * _share(run_s, ticks),
        "simulator.policy_active_share": _share(active, ticks),
        "simulator.trace_csv_s": per_round(self_s["simulator.trace_csv"]),
        "simulator.load_trace_s": per_round(self_s["simulator.load_trace"]),
        "simulator.rows_loaded": per_round(counts["simulator.load_trace.rows"]),
        "timeseries.load_series_s": per_round(self_s["timeseries.load_series"]),
        "timeseries.rows_read": per_round(counts["timeseries.load_series.rows"]),
        "timeseries.write_s": per_round(self_s["timeseries.write_text_atomic"]),
        "timeseries.bytes_written": per_round(counts["timeseries.write_text_atomic.bytes"]),
        "svg.render_chart_s": per_round(self_s["svg.render_chart"]),
        "svg.points": per_round(counts["svg.render_chart.points"]),
        "svg.bytes": per_round(counts["svg.render_chart.bytes"]),
        "cli.main_s": per_round(total_s["cli.main"]),
        "cli.self_s": per_round(self_s["cli.main"]),
        "cli.calls": per_round(calls["cli.main"]),
    }
