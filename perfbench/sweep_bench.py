"""The paper-sweep workload: figs 11, 14 and 16 through ``run_experiment``.

One repetition runs the three experiments cold into a fresh result store,
with the ``workers`` it is given, then re-runs them warm against the
same store.  The cold run writes every sweep point through the store, the
warm one reads them back; it is the only workload that goes through the
shard scheduler, the process pool, the store and the serial
``StallSimulator``.

Run lengths are cut down from the paper's so that several repetitions fit in
one benchmark run.  Fig. 16 is provisioned at the 90th percentile and above:
below that the stall simulation can abort on a diverging backlog, and how
early it aborts depends on the seed, which would make the sweep's length,
not the program's speed, set ``sweep_s``.
"""

from __future__ import annotations

import resource
import shutil
import statistics
import time
import warnings
from contextlib import nullcontext
from functools import partial
from pathlib import Path

import oracle
from hostspeed import Bracketed
from spans import SpanRecorder

from repro.bandwidth.stalling import StallSimulator
from repro.experiments.registry import run_experiment
from repro.faults import pool_construction_count
from repro.noise.rng import point_seed
from repro.store import ResultStore

FIG11 = {"cycles": 8_000, "distances": (5, 9, 13), "error_rates": (1e-3, 1e-2)}
FIG14 = {
    "trials": 2_000,
    "distances": (3, 5, 7),
    "error_rates": (5e-3, 1e-2),
    "engine": "sharded",
    "tiers": "clique,mwpm",
}
FIG16 = {
    "program_cycles": 20_000,
    "coverage_cycles": 8_000,
    "percentiles": (90.0, 95.0, 99.0, 99.9),
}
#: Fig. 16's default operating points, spelled out to count the sweep points.
FIG16_OPERATING_POINTS = ((1e-2, 11), (5e-3, 13), (1e-3, 9))
EXPERIMENTS = (("fig11", FIG11), ("fig14", FIG14), ("fig16", FIG16))

#: Points one sweep stores: fig11 one per (d, p); fig14 a baseline and a
#: cascade run per (d, p); fig16 a coverage point per operating point plus a
#: stall simulation per (operating point, percentile).
SWEEP_POINTS = (
    len(FIG11["distances"]) * len(FIG11["error_rates"])
    + 2 * len(FIG14["distances"]) * len(FIG14["error_rates"])
    + len(FIG16_OPERATING_POINTS) * (1 + len(FIG16["percentiles"]))
)

#: Monte-Carlo samples one sweep draws: fig11 and fig16 coverage cycles and
#: fig14 trials (two decoders per point).
SWEEP_SAMPLES = (
    FIG11["cycles"] * len(FIG11["distances"]) * len(FIG11["error_rates"])
    + 2 * FIG14["trials"] * len(FIG14["distances"]) * len(FIG14["error_rates"])
    + FIG16["coverage_cycles"] * len(FIG16_OPERATING_POINTS)
)


def _cpu(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def run_sweep(store_dir: Path, seed: int, workers: int, recorder: SpanRecorder | None = None,
              timer: Bracketed | None = None):
    """Run the three experiments once; return per-experiment walls, rows and CPU.

    With a ``timer``, each experiment is bracketed by host-speed probes and
    ``normalized_wall`` is the sweep's wall time at the nominal host speed.
    """
    walls, rows = {}, {}
    normalized_wall = 0.0
    cpu_self, cpu_children = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
    for experiment_id, params in EXPERIMENTS:
        span = recorder.span(f"experiments.{experiment_id}") if recorder else nullcontext()
        experiment = partial(
            run_experiment, experiment_id, seed=seed, workers=workers, store=store_dir, **params
        )
        with span:
            if timer is None:
                start = time.perf_counter()
                result = experiment()
                walls[experiment_id] = time.perf_counter() - start
            else:
                result = timer.time(experiment)
                walls[experiment_id] = timer.walls[-1]
                normalized_wall += timer.walls[-1] * timer.last_scale()
        rows[experiment_id] = result.rows
    return {
        "walls": walls,
        "rows": rows,
        "wall": sum(walls.values()),
        "normalized_wall": normalized_wall,
        "parent_cpu_s": _cpu(resource.RUSAGE_SELF) - cpu_self,
        "worker_cpu_s": _cpu(resource.RUSAGE_CHILDREN) - cpu_children,
    }


def _coverage_checks(reference: dict, fig11_rows) -> list[dict]:
    checks = []
    for row in fig11_rows:
        key = f"fig11 d={row['code_distance']} p={row['physical_error_rate']:g}"
        onchip = round(row["coverage_pct"] * row["cycles"] / 100.0)
        checks.append(oracle.check(key, reference[key], onchip, row["cycles"]))
    return checks


def _repetition_checks(reference, store_dir: Path, cold, warm) -> tuple[list[dict], int]:
    """Oracle verdicts for one cold/warm pair and the number of failed points."""
    records = len(ResultStore(store_dir))
    lines = (store_dir / "results.jsonl").read_text(encoding="utf-8").count("\n")
    mismatched = sum(
        cold_row != warm_row
        for experiment_id, _ in EXPERIMENTS
        for cold_row, warm_row in zip(cold["rows"][experiment_id], warm["rows"][experiment_id])
    )
    coverage = _coverage_checks(reference, cold["rows"]["fig11"])
    store_ok = records == lines == SWEEP_POINTS
    checks = coverage + [
        {"check": "warm rows == cold rows", "mismatched": mismatched, "ok": mismatched == 0},
        {
            "check": "warm re-run builds no pool",
            "pool_builds": warm["pool_builds"],
            "ok": warm["pool_builds"] == 0,
        },
        {
            "check": "one store record per point",
            "records": records,
            "lines": lines,
            "points": SWEEP_POINTS,
            "ok": store_ok,
        },
    ]
    failed = sum(not c["ok"] for c in coverage) + mismatched + warm["pool_builds"]
    if not store_ok:
        failed += max(abs(SWEEP_POINTS - records), abs(SWEEP_POINTS - lines), 1)
    return checks, min(failed, SWEEP_POINTS)


def repetition(work_dir: Path, seed: int, index: int, workers: int, recorder=None, timer=None):
    """One cold sweep into a fresh store, its warm re-run, and their checks.

    Returns ``None`` for the sweeps when an experiment raised; the store is
    removed either way.
    """
    store_dir = work_dir / f"store-{index}"
    sweep_seed = point_seed(seed, index) >> 96
    try:
        pools = pool_construction_count()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cold = run_sweep(store_dir, sweep_seed, workers, recorder, timer)
        cold["pool_builds"] = pool_construction_count() - pools
        cold["warnings"] = len(caught)
        cold["store_bytes"] = (store_dir / "results.jsonl").stat().st_size
        pools = pool_construction_count()
        warm = run_sweep(store_dir, sweep_seed, workers)
        warm["pool_builds"] = pool_construction_count() - pools
        checks, failed = _repetition_checks(oracle.load_reference(), store_dir, cold, warm)
    except Exception as error:
        # A failed operation is counted against the run, not fatal to it.
        print(f"sweep repetition {index} failed: {error!r}")
        return None, None, [], SWEEP_POINTS
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)
    return cold, warm, checks, failed


def run_timed(work_dir: Path, seed: int, seconds: float, workers: int):
    """Untraced run: cold/warm repetitions for ``seconds``.

    Each experiment of a cold sweep is bracketed by host-speed probes; a
    cold sweep's ``normalized_wall`` is its wall time at the nominal host
    speed.
    """
    timer = Bracketed()
    colds, warms, checks = [], [], []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or attempted == 0:
        cold, warm, rep_checks, rep_failed = repetition(
            work_dir, seed, attempted // SWEEP_POINTS, workers, timer=timer
        )
        attempted += SWEEP_POINTS
        failed += rep_failed
        checks.extend(rep_checks)
        if cold is not None:
            colds.append(cold)
            warms.append(warm)
    return {
        "colds": colds,
        "warms": warms,
        "checks": checks,
        "attempted": attempted,
        "failed": failed,
    }


class _Probes:
    """Parent-side wrappers around ``StallSimulator.run`` and ``ResultStore.put``."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self.sim_cycles = 0
        self.puts = 0
        self._originals = (StallSimulator.run, ResultStore.put)

    def __enter__(self):
        stall_run, store_put = self._originals
        probes = self

        def run(simulator, *args, **kwargs):
            with probes.recorder.span("bandwidth.stall"):
                result = stall_run(simulator, *args, **kwargs)
            probes.sim_cycles += result.total_cycles
            return result

        def put(store, *args, **kwargs):
            with probes.recorder.span("store.put"):
                store_put(store, *args, **kwargs)
            probes.puts += 1

        StallSimulator.run, ResultStore.put = run, put
        return self

    def __exit__(self, *exc_info):
        StallSimulator.run, ResultStore.put = self._originals


def run_traced(work_dir: Path, seed: int, seconds: float, workers: int, recorder: SpanRecorder):
    """Traced run: traced cold/warm repetitions, each followed by the same
    cold sweep untraced, for ``seconds``.  Per-layer numbers are medians over
    the repetitions."""
    per_rep: list[dict] = []
    checks: list[dict] = []
    attempted = failed = 0
    stale = False
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or attempted == 0:
        index = attempted // SWEEP_POINTS
        attempted += SWEEP_POINTS
        first_span = len(recorder.spans)
        with _Probes(recorder) as probes:
            cold, warm, rep_checks, rep_failed = repetition(
                work_dir, seed, index, workers, recorder
            )
        failed += rep_failed
        checks.extend(rep_checks)
        if cold is None:
            continue
        untraced, _, _, _ = repetition(work_dir, seed, index, workers)
        if untraced is None or untraced["rows"] != cold["rows"]:
            stale = True
        spans = recorder.spans[first_span:]
        stall_s = sum(s["end"] - s["start"] for s in spans if s["name"] == "bandwidth.stall")
        put_s = sum(s["end"] - s["start"] for s in spans if s["name"] == "store.put")
        sweep_s = cold["wall"]
        per_rep.append({
            "shard.worker_cpu_s": cold["worker_cpu_s"],
            "shard.parent_cpu_s": cold["parent_cpu_s"],
            "scheduler.busy_frac": cold["worker_cpu_s"] / (sweep_s * workers),
            "faults.pool_builds": cold["pool_builds"],
            "faults.warnings": cold["warnings"],
            "store.puts": probes.puts,
            "store.put_s": put_s,
            "store.bytes": cold["store_bytes"],
            "store.warm_rerun_s": warm["wall"],
            "store.warm_pool_builds": warm["pool_builds"],
            "bandwidth.stall_s": stall_s,
            "bandwidth.sim_cycles": probes.sim_cycles,
            "bandwidth.cycles_per_s": probes.sim_cycles / stall_s if stall_s else 0.0,
            "bandwidth.stall_share": stall_s / sweep_s,
            "experiments.fig11_s": cold["walls"]["fig11"],
            "experiments.fig14_s": cold["walls"]["fig14"],
            "experiments.fig16_s": cold["walls"]["fig16"],
            "trace.overhead_frac": (
                sweep_s / untraced["wall"] - 1.0 if untraced is not None else 0.0
            ),
        })
    names = per_rep[0].keys() if per_rep else ()
    metrics = {name: statistics.median(rep[name] for rep in per_rep) for name in names}
    metrics["trace.stale"] = int(stale)
    return {"metrics": metrics, "checks": checks, "attempted": attempted, "failed": failed}
