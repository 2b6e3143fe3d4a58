"""Regenerate ``reference.json``, the oracle's reference counts.

    python3 perfbench/calibrate.py

Runs each checked quantity far longer than a benchmark run does, on a seed
stream the benchmark never draws from, and records ``k`` successes out of
``n`` trials.  Re-run it only when the program's distribution is meant to
change (for example a decoder change), never to make a failing check pass.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import memory_bench
import oracle
import run
import sweep_bench

from repro.experiments.registry import run_experiment
from repro.noise.rng import point_seed
from repro.simulation.memory import run_memory_experiment

#: Root seed and seed-stream tag of the calibration runs.  The benchmark's
#: own streams use tags 0-2, so no run can share a stream with these.
CALIBRATION_SEED = 20261017
CALIBRATION_TAG = 9

MEMORY_TRIALS = {"memory-lowp": 2_000_000, "memory-highp": 200_000}
COVERAGE_CYCLES = 1_000_000


def calibrate_memory(name: str, total: int) -> dict:
    workload = run.memory_workload(name)
    code, noise = memory_bench.code_and_noise(workload)
    failures = onchip = trials = 0
    call = 0
    while trials < total:
        call += 1
        result = run_memory_experiment(
            code, noise, memory_bench.cascade_factory, trials=workload.call_trials,
            rounds=workload.distance,
            rng=point_seed(CALIBRATION_SEED, CALIBRATION_TAG, call),
        )
        failures += result.logical_failures
        onchip += result.tier_trials[0]
        trials += result.trials
    return {
        "logical_failures": {"k": failures, "n": trials},
        "onchip_trials": {"k": onchip, "n": trials},
    }


def calibrate_coverage() -> dict:
    result = run_experiment(
        "fig11", cycles=COVERAGE_CYCLES, seed=CALIBRATION_SEED,
        distances=sweep_bench.FIG11["distances"],
        error_rates=sweep_bench.FIG11["error_rates"],
        workers=run.usable_cpus(),
    )
    reference = {}
    for row in result.rows:
        key = f"fig11 d={row['code_distance']} p={row['physical_error_rate']:g}"
        onchip = round(row["coverage_pct"] * row["cycles"] / 100.0)
        reference[key] = {"k": onchip, "n": row["cycles"]}
    return reference


def main() -> None:
    reference = {}
    for name, total in MEMORY_TRIALS.items():
        key = memory_bench.workload_key(run.memory_workload(name))
        reference[key] = calibrate_memory(name, total)
        print(key, reference[key], flush=True)
    reference.update(calibrate_coverage())
    reference["_comment"] = (
        "k of n reference counts for oracle.py; regenerate with "
        "python3 perfbench/calibrate.py"
    )
    reference["_stamp"] = run.env_stamp()
    oracle.REFERENCE_PATH.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
