"""Size sweep of agekit.svg.render_chart, printed as one JSON object.

    PYTHONPATH=src python3 bench/chart_sweep.py > sweep.json

Times render_chart on the panels of the CLI's trace chart (bandwidth; working
set, cache and stale blocks; disk queue: five series) of a simulator trace of n
rows (the shipped aging mix under the random law, seed 0), best of 3 calls,
at n = 1k, 4k, 16k and 172 800 rows (one month of 15 s ticks). Each row also
gives the points drawn over all polylines and the document's size in bytes.
agekit is imported from the path, so pointing PYTHONPATH at another
checkout's src/ sweeps that checkout with the same inputs. Not part of the
test suite: simulating the largest trace takes seconds.
"""

import re
from unittest import mock

from agekit import cli
from agekit.simulator import SimConfig, parse_workload, run
from agekit.svg import render_chart
from harness import best_time, report

WORKLOAD = "600,0,100,20,1000,0"
SIZES = (1_000, 4_000, 16_000, 172_800)
SEED = 0
POINTS = re.compile(r'points="([^"]*)"')


def trace_panels(states):
    """The panels the CLI's trace chart hands to render_chart."""
    handed = []
    with mock.patch.object(cli, "render_chart", handed.append):
        cli._trace_chart(states)
    return handed[0]


def main():
    cfg = SimConfig()
    load = parse_workload(WORKLOAD)
    rows = []
    for n in SIZES:
        panels = trace_panels(run(cfg, load, ticks=n - 1, seed=SEED))
        text = render_chart(panels)
        rows.append(
            {
                "layer": "render_chart",
                "rows": n,
                "best_s": round(best_time(lambda: render_chart(panels)), 6),
                "points": sum(len(p.split(" ")) for p in POINTS.findall(text)),
                "bytes": len(text.encode()),
            }
        )
    report(rows, seed=SEED)


if __name__ == "__main__":
    main()
