"""Command-line front end.

Subcommands: smooth, fit, simulate, rejuvenate, report. Every command is
deterministic given its flags (simulation randomness is seeded). Exit
codes are a stable contract: 0 success, 2 input or parse error, 3 domain
or invariant error. Diagnostics go to stderr; outputs are written
atomically.
"""

import argparse
import itertools
import os
import sys

import numpy as np

from .errors import DomainError, ParseError
from .fitting import fit, write_fit_reports
from .model import eval_model
from .normalize import to_aging_curve
from .simulator import (
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
from .smoothing import lowess
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


def cmd_smooth(args):
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


def _fit_and_write(args, curves):
    """Fit each curve, warn on stderr when a fit does not converge, write the outputs."""
    fitted = []
    for curve in curves:
        report = fit(curve)
        if not report.converged:
            print(
                f"warning: {curve.source_name}: fit did not converge (converged=false)",
                file=sys.stderr,
            )
        fitted.append((curve, report))
    write_fit_reports(args.output, [(curve.source_name, report) for curve, report in fitted])
    if args.svg is not None:
        write_text_atomic(args.svg, _fit_chart(*fitted[0]))
    return 0


def cmd_fit(args):
    orientation = Orientation(args.orientation)
    if args.svg is not None and len(args.inputs) != 1:
        raise ParseError("--svg requires exactly one input file")

    def curve(path):
        series = load_series(path, _series_name(path), orientation)
        return to_aging_curve(rescale_time(series, args.time_scale))

    return _fit_and_write(args, (curve(path) for path in args.inputs))


def _build_policy(parser, args):
    variant = PolicyVariant(args.policy)
    if variant is PolicyVariant.PROBABILISTIC_ADMISSION:
        if args.policy_p is None:
            parser.error("--policy probabilistic requires --policy-p")
        return RejuvenationPolicy.probabilistic(args.policy_p, args.trigger)
    if args.policy_p is not None:
        parser.error("--policy-p is only valid with --policy probabilistic")
    if variant is PolicyVariant.MEM_REAP_ENLARGE:
        if args.refcount is None:
            parser.error("--policy memreap requires --refcount")
        return RejuvenationPolicy.mem_reap_enlarge(args.refcount, args.trigger)
    if args.refcount is not None:
        parser.error("--refcount is only valid with --policy memreap")
    if variant is PolicyVariant.NONE:
        return NO_POLICY
    return RejuvenationPolicy(variant, args.trigger)


def _trace_chart(states, marker=None):
    # one pass over states; each row's tuple is freed as soon as it is read
    rows = (
        (s.tick, s.bandwidth_kbyte, s.working_set_mb, s.cache_mb, s.sfr_mb, s.disk_queue_len)
        for s in states
    )
    flat = np.fromiter(itertools.chain.from_iterable(rows), dtype=float, count=6 * len(states))
    ticks, bandwidth, working_set, cache, sfr, queue = flat.reshape(-1, 6).T
    label = "rejuvenation" if marker is not None else ""
    return render_chart(
        [
            Panel(
                "bandwidth per client",
                "tick",
                "kbyte",
                [Series("bandwidth", ticks, bandwidth)],
                vline=marker,
                vline_label=label,
            ),
            Panel(
                "memory",
                "tick",
                "MB",
                [
                    Series("working set", ticks, working_set),
                    Series("cache", ticks, cache),
                    Series("stale blocks", ticks, sfr, dashed=True),
                ],
                vline=marker,
            ),
            Panel(
                "disk queue",
                "tick",
                "length",
                [Series("queue", ticks, queue)],
                vline=marker,
            ),
        ]
    )


def _run_simulation(parser, args, rejuvenation_tick=None):
    cfg = _resolve_config(args)
    load = parse_workload(args.workload)
    policy = _build_policy(parser, args)
    if rejuvenation_tick is None:
        states = run(cfg, load, policy, ticks=args.ticks, seed=args.seed)
    else:
        before, after = apply_policy_experiment(
            cfg, load, policy, args.ticks, rejuvenation_tick, seed=args.seed
        )
        states = before + after
    write_trace(args.output, states)
    if args.svg is not None:
        write_text_atomic(args.svg, _trace_chart(states, marker=rejuvenation_tick))
    return 0


def cmd_simulate(parser, args):
    return _run_simulation(parser, args)


def cmd_rejuvenate(parser, args):
    return _run_simulation(parser, args, rejuvenation_tick=args.rejuvenation_tick)


def cmd_report(args):
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
        default=0.5,
        help="aging degree that activates the policy (default: 0.5)",
    )
    sub.add_argument("--ticks", type=int, default=4000, help="tick count (default: 4000)")
    sub.add_argument("--seed", type=int, default=0, help="random seed (default: 0)")
    sub.add_argument("-o", "--output", required=True, help="trace CSV path")
    sub.add_argument("--svg", help="optional chart path (bandwidth/memory/queue)")


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
        "--fraction", type=float, default=0.3, help="neighbor fraction (default: 0.3)"
    )
    sub.add_argument(
        "--iterations", type=int, default=0, help="robustness passes (default: 0)"
    )

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

    sub = commands.add_parser("simulate", help="run the feedback-loop simulator")
    _add_simulation_flags(sub)

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

    sub = commands.add_parser(
        "report", help="fit the aging model to a simulator trace's bandwidth"
    )
    sub.add_argument("input", help="trace CSV produced by simulate/rejuvenate")
    sub.add_argument("--config", help="key=value file overriding SimConfig defaults")
    sub.add_argument("-o", "--output", required=True, help="report CSV path")
    sub.add_argument("--svg", help="optional chart path")

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "smooth":
            return cmd_smooth(args)
        if args.command == "fit":
            return cmd_fit(args)
        if args.command == "simulate":
            return cmd_simulate(parser, args)
        if args.command == "rejuvenate":
            return cmd_rejuvenate(parser, args)
        return cmd_report(args)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; normalize to int
        return int(exc.code or 0)
    except ParseError as exc:
        print(f"agekit: error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"agekit: error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"agekit: error: {exc}", file=sys.stderr)
        return 2


def entrypoint():
    sys.exit(main())
