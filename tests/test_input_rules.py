"""The shared numeric input rules: every bad number ends as DomainError.

The scalar rules are ``errors._is_real`` and ``errors._is_integral``; the
vector rule is ``timeseries._as_readonly_float_array``. Each probe below is a
non-numeric, non-finite or out-of-range input to one library entry point.
A message echoes the rejected value through ``errors._shown``.
"""

import math
import re

import numpy as np
import pytest

from agekit import svg
from agekit.errors import DomainError, _is_integral, _is_real
from agekit.fitting import rmse
from agekit.model import FeedbackLoopModel, NegativeLoop, PositiveLoop, eval_model
from agekit.normalize import AgingCurve, normalize_only
from agekit.simulator import (
    NO_POLICY,
    RejuvenationPolicy,
    SimConfig,
    WorkloadSpec,
    apply_policy_experiment,
    parse_workload,
    run,
)
from agekit.smoothing import lowess_values
from agekit.timeseries import MetricSeries, Orientation, _as_readonly_float_array, rescale_time

T = np.arange(1.0, 11.0)
V = np.sin(T)
UP = Orientation.HIGHER_IS_WORSE
SERIES = MetricSeries("s", UP, T, V)
MODEL = FeedbackLoopModel(1.0, 0.0, 0.0)
LOAD = parse_workload("600,0,100,20,1000,0")

PROBES = {
    "lowess-nan-iterations": lambda: lowess_values(T, V, 0.3, math.nan),
    "lowess-inf-iterations": lambda: lowess_values(T, V, 0.3, math.inf),
    "lowess-string-fraction": lambda: lowess_values(T, V, "0.3"),
    "lowess-string-t": lambda: lowess_values(["a"] * 10, V),
    "cache-hit-string-trigger": lambda: RejuvenationPolicy.cache_hit("0.5"),
    "probabilistic-string-trigger": lambda: RejuvenationPolicy.probabilistic("0.5"),
    "rescale-string-factor": lambda: rescale_time(SERIES, "2"),
    "model-string-k": lambda: FeedbackLoopModel("1", 0, 0),
    "nice-ticks-string-bound": lambda: svg.nice_ticks("0", 1),
    "series-string-t": lambda: MetricSeries("s", UP, ["a"], [1.0]),
    "aging-curve-string-y": lambda: AgingCurve("c", [1, 2], ["a", "b"]),
    "normalize-strings": lambda: normalize_only(["a", "b"], UP),
    "rmse-string": lambda: rmse(["a"], [1.0]),
    "eval-model-string-t": lambda: eval_model(MODEL, "a"),
    "eval-model-nan-t": lambda: eval_model(MODEL, [1.0, math.nan]),
    "svg-series-string-x": lambda: svg.Series("a", ["x"], [1.0]),
    "run-negative-seed": lambda: run(
        SimConfig(), parse_workload("600,0,100,20,1000,0"), ticks=3, seed=-1
    ),
    # 600 clients x 1e23 ms / 1000 ms: past the 2**63 trials numpy's binomial takes
    "run-requests-past-int64": lambda: run(SimConfig(tick_seconds=1e20), LOAD, ticks=1),
}


@pytest.mark.parametrize("probe", PROBES.values(), ids=PROBES.keys())
def test_bad_number_raises_domain_error(probe):
    with pytest.raises(DomainError):
        probe()


# every message that echoes a caller's scalar, each site with a string (shown
# quoted) and a numpy scalar (shown as a plain number, not np.float64(...))
ECHOES = {
    "lowess-fraction": (lambda v: lowess_values(T, V, v), "0.3", np.float64(2.0), "1]: {}"),
    "lowess-iterations": (lambda v: lowess_values(T, V, 0.3, v), "1", np.int64(-1), "got {}"),
    "model-k-finite": (lambda v: FeedbackLoopModel(v, 0, 0), "1", np.float64(np.nan), "got {}"),
    "model-k-positive": (lambda v: FeedbackLoopModel(v, 0, 0), "1", np.float64(-2.0), "got {}"),
    "model-alpha": (lambda v: FeedbackLoopModel(1, v, 0), "0", np.float64(-0.5), "got {}"),
    "positive-loop-z0": (lambda v: PositiveLoop(v, 0), "0", np.int64(-1), "got {}"),
    "negative-loop-v": (lambda v: NegativeLoop(1, v), "0", np.float64(-1.0), "got {}"),
    "rescale-factor": (lambda v: rescale_time(SERIES, v), "2", np.float64(-2.0), "got {}"),
    "policy-trigger": (RejuvenationPolicy.cache_hit, "0.5", np.float64(2.0), "1]: {}"),
    "run-ticks": (lambda v: run(SimConfig(), LOAD, ticks=v), "3", np.int64(-1), "got {}"),
    "run-seed": (lambda v: run(SimConfig(), LOAD, ticks=3, seed=v), "1", np.int64(-1), "got {}"),
    "experiment-ticks": (
        lambda v: apply_policy_experiment(SimConfig(), LOAD, NO_POLICY, v, 5),
        "10",
        np.float64(2.5),
        "got {} and 5",
    ),
    "experiment-rejuvenation-tick": (
        lambda v: apply_policy_experiment(SimConfig(), LOAD, NO_POLICY, 10, v),
        "5",
        np.float64(2.5),
        "got 10 and {}",
    ),
    "workload-enum": (lambda v: WorkloadSpec(600, v, 100, 20, 1000, 0), "0", np.int64(7), "got {}"),
    "workload-count": (lambda v: WorkloadSpec(v, 0, 100, 20, 1000, 0), "1", np.int64(-1), "got {}"),
    "config-integer": (lambda v: SimConfig(catalog_files=v), "100", np.float64(2.5), "got {}"),
    "config-positive": (lambda v: SimConfig(tick_seconds=v), "15", np.float64(-1.0), "got {}"),
    "config-nonnegative": (lambda v: SimConfig(heap_decay_rate=v), "0", np.int64(-1), "got {}"),
    "config-finite": (lambda v: SimConfig(heap_decay_rate=v), "0", np.float64(np.inf), "got {}"),
}


@pytest.mark.parametrize("call, text, number, fragment", ECHOES.values(), ids=ECHOES.keys())
def test_a_rejected_value_is_echoed_quoted_or_as_a_plain_number(call, text, number, fragment):
    for value, shown in ((text, repr(text)), (number, str(number))):
        with pytest.raises(DomainError, match=re.escape(fragment.format(shown))):
            call(value)


@pytest.mark.parametrize("value", [0, -3, 2.5, np.float64(1e300), np.int64(7)])
def test_finite_reals_are_real(value):
    assert _is_real(value)


@pytest.mark.parametrize(
    "value", [math.nan, math.inf, -math.inf, "1", None, 1j, 10**400, np.array(1.0)]
)
def test_everything_else_is_not_real(value):
    assert not _is_real(value)
    assert not _is_integral(value)


@pytest.mark.parametrize(
    "value, integral", [(3, True), (3.0, True), (np.int64(-2), True), (2.5, False)]
)
def test_integral_needs_an_integral_value(value, integral):
    assert _is_integral(value) == integral


class TestReadonlyFloatArray:
    def test_copies_and_freezes(self):
        source = np.array([1.0, 2.0])
        arr = _as_readonly_float_array(source, "x")
        source[0] = 9.0
        assert arr.tolist() == [1.0, 2.0]
        assert not arr.flags.writeable

    def test_non_numeric_input_is_named(self):
        with pytest.raises(DomainError, match="^x must be numeric$"):
            _as_readonly_float_array([1.0, "b"], "x")

    def test_shape_is_checked_before_finiteness(self):
        with pytest.raises(DomainError, match="x must be one-dimensional"):
            _as_readonly_float_array([[math.nan]], "x", "x has NaN")

    def test_non_finite_entries_raise_the_callers_message(self):
        with pytest.raises(DomainError, match="^x has NaN$"):
            _as_readonly_float_array([1.0, math.inf], "x", "x has NaN")
        assert math.isnan(_as_readonly_float_array([math.nan], "x")[0])

    @pytest.mark.parametrize("call", [lambda v: normalize_only(v, UP), lambda v: rmse(v, v)])
    def test_two_dimensional_input_names_its_shape(self, call):
        with pytest.raises(DomainError, match="must be one-dimensional"):
            call(np.ones((2, 3)))
