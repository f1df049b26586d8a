"""Property tests for the CSV reader behind load_series and load_trace,
and for the simulator's key=value config reader.

Hypothesis is a test-only dependency; without it this module is skipped.
"""

import os
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from agekit.errors import DomainError, ParseError  # noqa: E402
from agekit.simulator import (  # noqa: E402
    TRACE_HEADER,
    SimState,
    load_sim_config,
    load_trace,
    trace_csv,
)
from agekit.timeseries import (  # noqa: E402
    MetricSeries,
    Orientation,
    load_series,
    save_series,
)

finite = st.floats(allow_nan=False, allow_infinity=False)
times = st.lists(
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False), min_size=1, unique=True
).map(sorted)


def scratch_file(data):
    """Write ``data`` (bytes) to a fresh temporary file and return its path."""
    handle, path = tempfile.mkstemp(suffix=".csv")
    with os.fdopen(handle, "wb") as f:
        f.write(data)
    return path


series_columns = times.flatmap(
    lambda t: st.tuples(st.just(t), st.lists(finite, min_size=len(t), max_size=len(t)))
)


@settings(max_examples=60, deadline=None)
@given(series_columns)
def test_save_then_load_is_a_fixed_point(columns):
    t, values = columns
    series = MetricSeries("s", Orientation.HIGHER_IS_WORSE, t, values)
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "s.csv")
        save_series(series, path)
        loaded = load_series(path, "s", Orientation.HIGHER_IS_WORSE)
    np.testing.assert_array_equal(loaded.t, series.t)
    np.testing.assert_array_equal(loaded.values, series.values)


states = st.builds(
    SimState,
    tick=st.integers(min_value=0, max_value=10**9),
    cache_mb=finite,
    working_set_mb=finite,
    disk_queue_len=finite,
    block_kb=finite,
    bandwidth_kbyte=finite,
    sfr_mb=finite,
    bw_avg_kbyte=st.just(0.0),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(states, min_size=1, max_size=20))
def test_trace_csv_then_load_trace_is_a_fixed_point(trace):
    path = scratch_file(trace_csv(trace).encode("utf-8"))
    try:
        columns = load_trace(path)
    finally:
        os.unlink(path)
    for name in TRACE_HEADER:
        np.testing.assert_array_equal(columns[name], [float(getattr(s, name)) for s in trace])


def loads_or_raises_package_error(load, *args):
    try:
        load(*args)
    except (ParseError, DomainError):
        pass


# Text that often gets past the header, so the row checks see fuzz too.
file_text = st.one_of(
    st.text(),
    st.text(alphabet="t,value\n\r 0123456789.e-+naif"),
    st.builds(lambda body: "t,value\n" + body, st.text(alphabet=",\n 0123456789.e-+naifx\"")),
    st.builds(lambda body: ",".join(TRACE_HEADER) + "\n" + body, st.text(alphabet=",\n 0159.e-nf")),
)


@settings(max_examples=200, deadline=None)
@given(st.one_of(file_text.map(lambda text: text.encode("utf-8")), st.binary()))
def test_arbitrary_file_loads_or_raises_package_errors(data):
    path = scratch_file(data)
    try:
        loads_or_raises_package_error(load_series, path, "s", Orientation.HIGHER_IS_WORSE)
        loads_or_raises_package_error(load_trace, path)
    finally:
        os.unlink(path)


# Lines that often name a real key, so the value parse and SimConfig see fuzz too.
config_text = st.lists(
    st.tuples(
        st.sampled_from(["catalog_files", "queue_gain", "tick_seconds", "warp"]),
        st.sampled_from(["=", " = ", " "]),
        st.text(alphabet="0123456789.e-+naif# "),
    ).map("".join)
).map("\n".join)


@settings(max_examples=200, deadline=None)
@given(st.one_of(config_text.map(lambda text: text.encode("utf-8")), st.binary()))
def test_arbitrary_config_loads_or_raises_package_errors(data):
    path = scratch_file(data)
    try:
        loads_or_raises_package_error(load_sim_config, path)
    finally:
        os.unlink(path)
