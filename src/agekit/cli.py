"""Command-line front end.

Subcommands: smooth, fit, simulate, rejuvenate, report. Each subparser sets
its handler ``cmd_*(parser, args)`` as a default (rejuvenate shares
cmd_simulate) and ``main`` makes the one call ``args.handler(parser, args)``.
Every command is deterministic given its flags (simulation randomness is
seeded). Exit codes are a stable contract: 0 success, 2 input or parse
error, 3 domain or invariant error; one ``except`` arm in ``main`` maps
them. Diagnostics go to stderr; outputs are written atomically.

A multi-input ``fit`` reads every input, then smooths every series, then
fits every curve. The first failing input in argument order still decides
the error, after the inputs before it are fitted and warned for.
"""

import argparse
import functools
import os
import sys

from .errors import DomainError, ParseError
from .fitting import fit, write_fit_reports
from .model import eval_model
from .normalize import to_aging_curve
from .simulator import (
    DEFAULT_TICKS,
    NO_POLICY,
    PolicyVariant,
    RejuvenationPolicy,
    SimConfig,
    aging_degree,
    apply_policy_experiment,
    load_sim_config,
    load_trace,
    parse_workload,
    run,
    write_trace,
)
from .smoothing import DEFAULT_FRACTION, lowess
from .svg import Panel, Series, render_chart
from .timeseries import (
    Orientation,
    load_series,
    rescale_time,
    save_series,
    write_text_atomic,
)

L2_WORKLOAD = "600,0,100,20,1000,0"


def default_config():
    """The simulator configuration used when --config is not given."""
    return SimConfig()


def _resolve_config(args):
    if args.config is None:
        return default_config()
    return load_sim_config(args.config)


def _series_name(path):
    return os.path.splitext(os.path.basename(path))[0]


def cmd_smooth(parser, args):
    series = load_series(args.input, _series_name(args.input), Orientation.HIGHER_IS_WORSE)
    save_series(lowess(series, args.fraction, args.iterations), args.output)
    return 0


def _fit_chart(curve, report):
    predicted = eval_model(report.model, curve.t)
    residual = curve.y - predicted
    return render_chart(
        [
            Panel(
                "aging degree and fitted model",
                "time [h]",
                "aging degree",
                [
                    Series("observed", curve.t, curve.y),
                    Series("fitted", curve.t, predicted, dashed=True),
                ],
            ),
            Panel(
                "residual (observed - fitted)",
                "time [h]",
                "residual",
                [Series("residual", curve.t, residual)],
            ),
        ]
    )


def _fit_and_write(args, curves, failure=None):
    """Fit each curve and warn on stderr for each that does not converge; then raise
    ``failure`` (a later input's) if there is one, else write the outputs."""
    fitted = []
    for curve in curves:
        report = fit(curve)
        if not report.converged:
            print(
                f"warning: {curve.source_name}: fit did not converge (converged=false)",
                file=sys.stderr,
            )
        fitted.append((curve, report))
    if failure is not None:
        raise failure
    write_fit_reports(args.output, [(curve.source_name, report) for curve, report in fitted])
    if args.svg is not None:
        write_text_atomic(args.svg, _fit_chart(*fitted[0]))
    return 0


def _map_until_failure(func, items, failure=None):
    """(results, failure): func over items in order until one raises, and that exception.

    A stage runs only over the inputs before the previous stage's failure, so
    an exception here belongs to an earlier input and replaces ``failure``.
    """
    results = []
    for item in items:
        try:
            results.append(func(item))
        except Exception as exc:  # raised again once every earlier input is fitted
            return results, exc
    return results, failure


def cmd_fit(parser, args):
    orientation = Orientation(args.orientation)
    if args.svg is not None and len(args.inputs) != 1:
        raise ParseError("--svg requires exactly one input file")
    series, failure = _map_until_failure(
        lambda path: load_series(path, _series_name(path), orientation), args.inputs
    )
    curves, failure = _map_until_failure(
        lambda raw: to_aging_curve(rescale_time(raw, args.time_scale)), series, failure
    )
    del series  # the fit stage reads only the curves
    # the fits of the inputs before the first failure warn as they would one
    # input at a time
    return _fit_and_write(args, curves, failure)


def _build_policy(parser, args):
    variant = PolicyVariant(args.policy)
    # each policy flag belongs to one variant: required there, a usage error elsewhere
    for flag, value, owner in (
        ("--policy-p", args.policy_p, PolicyVariant.PROBABILISTIC_ADMISSION),
        ("--refcount", args.refcount, PolicyVariant.MEM_REAP_ENLARGE),
    ):
        if variant is owner and value is None:
            parser.error(f"--policy {owner.value} requires {flag}")
        if variant is not owner and value is not None:
            parser.error(f"{flag} is only valid with --policy {owner.value}")
    if variant is PolicyVariant.NONE:
        return NO_POLICY
    return RejuvenationPolicy(variant, args.trigger, args.policy_p, args.refcount)


def _trace_chart(columns, marker=None):
    """The bandwidth, memory and queue panels of a trace given as {column: array}."""
    ticks = columns["tick"]
    label = "rejuvenation" if marker is not None else ""
    return render_chart(
        [
            Panel(
                "bandwidth per client",
                "tick",
                "kbyte",
                [Series("bandwidth", ticks, columns["bandwidth_kbyte"])],
                vline=marker,
                vline_label=label,
            ),
            Panel(
                "memory",
                "tick",
                "MB",
                [
                    Series("working set", ticks, columns["working_set_mb"]),
                    Series("cache", ticks, columns["cache_mb"]),
                    Series("stale blocks", ticks, columns["sfr_mb"], dashed=True),
                ],
                vline=marker,
            ),
            Panel(
                "disk queue",
                "tick",
                "length",
                [Series("queue", ticks, columns["disk_queue_len"])],
                vline=marker,
            ),
        ]
    )


def cmd_simulate(parser, args):
    cfg = _resolve_config(args)
    load = parse_workload(args.workload)
    policy = _build_policy(parser, args)
    if args.rejuvenation_tick is None:
        trace = run(cfg, load, policy, ticks=args.ticks, seed=args.seed)
    else:
        before, after = apply_policy_experiment(
            cfg, load, policy, args.ticks, args.rejuvenation_tick, seed=args.seed
        )
        trace = before + after
    write_trace(args.output, trace)
    if args.svg is not None:
        write_text_atomic(args.svg, _trace_chart(trace.columns(), marker=args.rejuvenation_tick))
    return 0


def cmd_report(parser, args):
    cfg = _resolve_config(args)
    columns = load_trace(args.input)
    curve = aging_degree(columns["tick"], columns["bandwidth_kbyte"], cfg, _series_name(args.input))
    return _fit_and_write(args, [curve])


def _add_simulation_flags(sub):
    sub.add_argument("--config", help="key=value file overriding SimConfig defaults")
    sub.add_argument(
        "--workload",
        default=L2_WORKLOAD,
        help="workload tuple 'clients,file_dist,file_object,file_max_object,"
        f"sleep_ms,file_difference' (default: {L2_WORKLOAD})",
    )
    sub.add_argument(
        "--policy",
        choices=tuple(v.value for v in PolicyVariant),
        default="none",
        help="rejuvenation policy variant (default: none)",
    )
    sub.add_argument(
        "--policy-p",
        type=float,
        default=None,
        help="admission probability for --policy probabilistic",
    )
    sub.add_argument(
        "--refcount",
        type=int,
        default=None,
        help="enlarged refcount threshold for --policy memreap",
    )
    sub.add_argument(
        "--trigger",
        type=float,
        default=RejuvenationPolicy.trigger_threshold,
        help="aging degree that activates the policy (default: %(default)s)",
    )
    sub.add_argument(
        "--ticks", type=int, default=DEFAULT_TICKS, help="tick count (default: %(default)s)"
    )
    sub.add_argument("--seed", type=int, default=0, help="random seed (default: 0)")
    sub.add_argument("-o", "--output", required=True, help="trace CSV path")
    sub.add_argument("--svg", help="optional chart path (bandwidth/memory/queue)")


# parsing leaves the tree as it was, so one build (0.75 ms, 2-vCPU x86_64) serves
# every main call, 20 a fit-irregular round; handlers look up the library late
@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="agekit",
        description="Aging-trend analysis: smooth, normalize, fit, simulate, report.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("smooth", help="lowess-smooth a t,value series")
    sub.add_argument("input", help="input CSV with header t,value")
    sub.add_argument("output", help="output CSV path")
    sub.add_argument(
        "--fraction",
        type=float,
        default=DEFAULT_FRACTION,
        help="neighbor fraction (default: %(default)s)",
    )
    sub.add_argument(
        "--iterations", type=int, default=0, help="robustness passes (default: 0)"
    )
    sub.set_defaults(handler=cmd_smooth)

    sub = commands.add_parser(
        "fit", help="smooth, normalize, and fit one or more metric series"
    )
    sub.add_argument("inputs", nargs="+", help="input CSVs with header t,value")
    sub.add_argument(
        "--orientation",
        required=True,
        choices=tuple(o.value for o in Orientation),
        help="whether larger values mean more aging",
    )
    sub.add_argument(
        "--time-scale",
        type=float,
        default=1.0 / 3600.0,
        help="multiplier applied to input times (default: 1/3600, seconds to hours)",
    )
    sub.add_argument("-o", "--output", required=True, help="report CSV path")
    sub.add_argument("--svg", help="optional chart path (single input only)")
    sub.set_defaults(handler=cmd_fit)

    sub = commands.add_parser("simulate", help="run the feedback-loop simulator")
    _add_simulation_flags(sub)
    sub.set_defaults(handler=cmd_simulate, rejuvenation_tick=None)

    sub = commands.add_parser(
        "rejuvenate", help="simulate with a policy switched on mid-run"
    )
    _add_simulation_flags(sub)
    sub.add_argument(
        "--rejuvenation-tick",
        type=int,
        required=True,
        help="tick at which the policy becomes active",
    )
    sub.set_defaults(handler=cmd_simulate)

    sub = commands.add_parser(
        "report", help="fit the aging model to a simulator trace's bandwidth"
    )
    sub.add_argument("input", help="trace CSV produced by simulate/rejuvenate")
    sub.add_argument("--config", help="key=value file overriding SimConfig defaults")
    sub.add_argument("-o", "--output", required=True, help="report CSV path")
    sub.add_argument("--svg", help="optional chart path")
    sub.set_defaults(handler=cmd_report)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(parser, args)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; normalize to int
        return int(exc.code or 0)
    except (ParseError, DomainError, OSError) as exc:
        print(f"agekit: error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, DomainError) else 2


def entrypoint():
    sys.exit(main())
