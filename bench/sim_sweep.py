"""Size sweep of agekit.simulator.run, printed as one JSON object.

    PYTHONPATH=src python3 bench/sim_sweep.py > sweep.json

Times run() on the shipped aging mix under the random file law
(600,0,100,20,1000,0) and under the Poisson law (600,2,100,20,1000,0), best
of 3 calls, at 1k, 4k, 16k and 172 800 ticks (one month of 15 s ticks). Per
law it also times one public step() call (best of 3 batches of 2 000 calls
from the fresh server on one Generator) and an 8 000-tick run() under each
policy of the benchmark's policy-sweep (default trigger 0.5), then
trace_csv on the 16k random-law states. agekit is imported from the path, so
pointing PYTHONPATH at another checkout's src/ sweeps that checkout with the
same inputs. Not part of the test suite: the largest size takes tens of
seconds.
"""

import hashlib
import json
import os
import platform
import time
from pathlib import Path

import numpy as np

import agekit
from agekit.simulator import (
    NO_POLICY,
    RejuvenationPolicy,
    SimConfig,
    init_state,
    parse_workload,
    run,
    step,
    trace_csv,
)

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
TRACE_TICKS = 16_000
REPEATS = 3
SEED = 0


def best_time(call):
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


def source_digest():
    """Short sha256 over agekit's modules, naming the code that was timed."""
    digest = hashlib.sha256()
    for path in sorted(Path(agekit.__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return digest.hexdigest()[:16]


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
    states = run(cfg, parse_workload(LAWS["random"]), ticks=TRACE_TICKS, seed=SEED)
    seconds = best_time(lambda: trace_csv(states))
    rows.append(
        {"layer": "trace_csv", "law": "random", "ticks": TRACE_TICKS, "best_s": round(seconds, 6)}
    )
    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "src_sha256": source_digest(),
    }
    print(json.dumps({"env": env, "seed": SEED, "repeats": REPEATS, "results": rows}, indent=1))


if __name__ == "__main__":
    main()
