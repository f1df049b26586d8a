"""Size sweep of agekit.simulator.run, printed as one JSON object.

    PYTHONPATH=src python3 bench/sim_sweep.py > sweep.json

Times run() on the shipped aging mix under the random file law
(600,0,100,20,1000,0) and under the Poisson law (600,2,100,20,1000,0), best
of 3 calls, at 1k, 4k, 16k and 172 800 ticks (one month of 15 s ticks). Per
law it also times one public step() call (best of 3 batches of 2 000 calls
from the fresh server on one Generator) and an 8 000-tick run() under each
policy of the benchmark's policy-sweep (default trigger 0.5); trace_csv has
its own sweep in io_sweep.py. agekit is imported from the path, so
pointing PYTHONPATH at another checkout's src/ sweeps that checkout with the
same inputs. Not part of the test suite: the largest size takes tens of
seconds.
"""

import numpy as np

from agekit.simulator import (
    NO_POLICY,
    RejuvenationPolicy,
    SimConfig,
    init_state,
    parse_workload,
    run,
    step,
)
from harness import best_time, report

LAWS = {"random": "600,0,100,20,1000,0", "poisson": "600,2,100,20,1000,0"}
TICKS = (1_000, 4_000, 16_000, 172_800)
POLICIES = {
    "none": NO_POLICY,
    "cache-hit": RejuvenationPolicy.cache_hit(),
    "probabilistic": RejuvenationPolicy.probabilistic(0.5),
    "block-reset": RejuvenationPolicy.disk_block_reset(),
    "memreap": RejuvenationPolicy.mem_reap_enlarge(15),
}
POLICY_TICKS = 8_000
STEP_CALLS = 2_000
SEED = 0


def main():
    cfg = SimConfig()
    rows = []
    for law, workload in LAWS.items():
        load = parse_workload(workload)
        for ticks in TICKS:
            seconds = best_time(lambda: run(cfg, load, ticks=ticks, seed=SEED))
            rows.append(
                {
                    "layer": "run",
                    "law": law,
                    "ticks": ticks,
                    "best_s": round(seconds, 6),
                    "us_per_tick": round(seconds / ticks * 1e6, 3),
                }
            )
        for name, policy in POLICIES.items():
            seconds = best_time(lambda: run(cfg, load, policy, ticks=POLICY_TICKS, seed=SEED))
            rows.append(
                {
                    "layer": "run",
                    "law": law,
                    "policy": name,
                    "ticks": POLICY_TICKS,
                    "best_s": round(seconds, 6),
                    "us_per_tick": round(seconds / POLICY_TICKS * 1e6, 3),
                }
            )
        start = init_state(cfg)
        rng = np.random.default_rng(SEED)
        seconds = best_time(
            lambda: [step(start, load, cfg, NO_POLICY, rng) for _ in range(STEP_CALLS)]
        )
        rows.append(
            {
                "layer": "step",
                "law": law,
                "calls": STEP_CALLS,
                "best_s": round(seconds, 6),
                "us_per_call": round(seconds / STEP_CALLS * 1e6, 3),
            }
        )
    report(rows, seed=SEED)


if __name__ == "__main__":
    main()
