"""Property test of the CLI's exit-code contract under fuzzed argv and files.

Whatever the flags and input files, ``main(argv)`` returns 0, 2 or 3 and
prints no traceback. Hypothesis is a test-only dependency; without it this
module is skipped.
"""

import contextlib
import dataclasses
import io
import os
import tempfile

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from agekit.cli import L2_WORKLOAD, main  # noqa: E402
from agekit.simulator import SimConfig, parse_workload, run, trace_csv  # noqa: E402


def mostly(valid, *junk):
    """Text from ``valid``, and about one draw in eight from ``junk``."""
    # junk sits at the top of the range: Hypothesis draws 0 more often than 1/8
    return st.integers(min_value=0, max_value=7).flatmap(
        lambda k: st.sampled_from(junk) if k == 7 else valid
    )


# float flags: in range, any float repr (nan, inf, huge, negative), and junk
reals = mostly(
    st.one_of(st.floats(min_value=0.0, max_value=1.0), st.floats()).map(repr),
    "abc",
    "",
    "1e400",
    "-1e400",
    "0x1p-2",
    "1_0",
)
# int flags: small, negative, past any float, and not integers at all
seeds = mostly(
    st.one_of(
        st.integers(min_value=-3, max_value=3),
        st.integers(min_value=-(10**6), max_value=10**30),
        st.sampled_from([2**64, 10**400]),
    ).map(str),
    "2.5",
    "x",
    "-0",
)
ticks = mostly(st.integers(min_value=-3, max_value=300).map(str), "1.5", "x")
counts = mostly(st.integers(min_value=-3, max_value=40).map(str), "2.5", "x")

series_rows = st.lists(st.tuples(reals, reals).map(",".join), max_size=30)
well_formed_series = st.lists(
    st.floats(min_value=-1e6, max_value=1e6), min_size=0, max_size=40
).map(lambda ys: "t,value\n" + "".join(f"{i * 15}.0,{y!r}\n" for i, y in enumerate(ys)))
series_text = st.one_of(
    well_formed_series,
    series_rows.map(lambda rows: "\n".join(["t,value", *rows]) + "\n"),
    st.text(alphabet="t,value\n 0123456789.e-+naif", max_size=80),
)

GOOD_TRACE = trace_csv(run(SimConfig(), parse_workload(L2_WORKLOAD), ticks=60)).splitlines()


def mangled_trace(row, column, cell):
    cells = GOOD_TRACE[row].split(",")
    cells[column] = cell
    return "\n".join([*GOOD_TRACE[:row], ",".join(cells), *GOOD_TRACE[row + 1 :]]) + "\n"


trace_text = st.one_of(
    # a valid trace cut to k data rows
    st.integers(min_value=0, max_value=len(GOOD_TRACE) - 1).map(
        lambda k: "\n".join(GOOD_TRACE[: k + 1]) + "\n"
    ),
    # a valid trace with one cell replaced
    st.tuples(
        st.integers(min_value=1, max_value=len(GOOD_TRACE) - 1),
        st.integers(min_value=0, max_value=6),
        st.sampled_from(["nan", "inf", "x", "", "-1", "1e400", "0"]),
    ).map(lambda edit: mangled_trace(*edit)),
    st.text(alphabet="tick,cache_mb\n 0159.e-nf", max_size=80),
)

config_line = st.one_of(
    st.tuples(
        st.sampled_from([f.name for f in dataclasses.fields(SimConfig)] + ["warp"]),
        reals | counts,
    ).map("=".join),
    st.sampled_from(["# comment", "", "no equals sign"]),
)
config_text = st.lists(config_line, max_size=3).map(lambda lines: "\n".join(lines) + "\n")

# each policy with the flag it takes
POLICY_FLAGS = {
    "none": (),
    "cache-hit": (),
    "probabilistic": (("--policy-p", reals),),
    "block-reset": (),
    "memreap": (("--refcount", counts),),
}
workloads = st.one_of(
    st.sampled_from([L2_WORKLOAD, "600,0,20,20,1000,0", "600,2,100,20,1000,0", "(1,3,1,1,0,1)"]),
    st.lists(st.integers(min_value=-3, max_value=700).map(str), min_size=5, max_size=7).map(
        ",".join
    ),
)


@st.composite
def optional(draw, flag, values):
    """[] or [flag, value]."""
    return [flag, draw(values)] if draw(st.booleans()) else []


@st.composite
def invocations(draw):
    """(argv, files): argv names files as '@name'; files maps each name to its text."""
    command = draw(st.sampled_from(["smooth", "fit", "simulate", "rejuvenate", "report"]))
    files = {}
    svg = draw(optional("--svg", st.just("@chart.svg")))
    if command == "smooth":
        files["in.csv"] = draw(series_text)
        argv = ["smooth", "@in.csv", "@out.csv"]
        argv += draw(optional("--fraction", reals)) + draw(optional("--iterations", counts))
    elif command == "fit":
        names = ["a.csv", "b.csv", "c.csv"][: draw(st.integers(min_value=1, max_value=3))]
        for name in names:
            files[name] = draw(series_text)
        orientation = draw(mostly(st.sampled_from(["higher-is-worse", "lower-is-worse"]), "up"))
        argv = ["fit", *("@" + name for name in names), "--orientation", orientation]
        argv += ["-o", "@report.csv", *draw(optional("--time-scale", reals)), *svg]
    elif command == "report":
        files["trace.csv"] = draw(trace_text)
        argv = ["report", "@trace.csv", "-o", "@report.csv", *svg]
    else:
        policy = draw(mostly(st.sampled_from(list(POLICY_FLAGS)), "x"))
        argv = [command, "--policy", policy, "--ticks", draw(ticks), "--seed", draw(seeds)]
        if draw(st.booleans()):
            # the flags the policy takes, with fuzzed values
            flags = POLICY_FLAGS.get(policy, ())
            argv += [arg for flag, values in flags for arg in (flag, draw(values))]
        else:
            # each flag drawn whatever the policy, so they often mismatch
            argv += draw(optional("--policy-p", reals)) + draw(optional("--refcount", counts))
        argv += draw(optional("--trigger", reals)) + draw(optional("--workload", workloads))
        argv += ["-o", "@trace.csv", *svg]
        if command == "rejuvenate":
            argv += ["--rejuvenation-tick", draw(ticks)]
    if command in ("simulate", "rejuvenate", "report") and draw(st.booleans()):
        files["sim.cfg"] = draw(config_text)
        argv += ["--config", "@sim.cfg"]
    return argv, files


@settings(max_examples=150, deadline=None)
@given(invocations())
@example((["simulate", "--ticks", "10", "--seed", "-1", "-o", "@trace.csv"], {}))
@example(
    (
        ["rejuvenate", "--policy", "cache-hit", "--rejuvenation-tick", "5"]
        + ["--ticks", "10", "--seed", "-1", "-o", "@trace.csv"],
        {},
    )
)
def test_main_keeps_the_exit_code_contract(invocation):
    argv, files = invocation
    with tempfile.TemporaryDirectory() as work:
        for name, text in files.items():
            with open(os.path.join(work, name), "w", encoding="utf-8") as handle:
                handle.write(text)
        argv = [os.path.join(work, arg[1:]) if arg.startswith("@") else arg for arg in argv]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
