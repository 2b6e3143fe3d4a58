"""The repository benchmark: one command, three workloads, every metric.

Usage (from the repository root)::

    python3 perfbench/run.py --workload memory-lowp --seed 1 --seconds 35 --trace 0

Workloads (why each was chosen):

* ``memory-lowp`` -- memory experiment at d=13, p=1e-3, rounds=d, two-tier
  Clique -> MWPM cascade, default in-process engine, one core.  Noise
  sampling is most of the work and the off-chip tier is quiet.
* ``memory-highp`` -- the same pipeline at the paper's p=1e-2, d=11.  It
  inverts ``memory-lowp``: off-chip matching is most of the work.
* ``paper-sweep`` -- figs 11, 14 and 16 through ``run_experiment`` into a
  fresh result store with ``workers`` = usable cores, then re-run warm.  The
  only workload through the shard scheduler, the process pool, the store and
  the serial ``StallSimulator``.

End-to-end metrics (``--trace 0``), reported on every workload.  Every
timed operation is bracketed by a fixed host-speed probe and its time is
rescaled to the host speed at which the probe takes a nominal time
(``hostspeed.py``), so that a shared host's drifting speed does not swamp
the program's; the figures as measured are printed above the result line.

* ``trials_per_s`` -- memory: median over engine calls of trials per second
  at the stated d, p and rounds; paper-sweep: Monte-Carlo samples (fig14
  trials plus coverage cycles) per second of the median cold sweep.
* ``sweep_s`` -- paper-sweep: median wall time of a cold sweep; memory:
  median wall time of one ``run_memory_experiment`` call.
* ``setup_s`` -- median over fresh interpreters of the time from import to
  first call ready (``setup_probe.py``).
* ``peak_rss_mb`` -- peak resident memory; paper-sweep adds the largest
  pool worker's peak.

The failed-operation fraction is the ``failed / attempted`` pair of every
result line; as a metric (``failed_op_frac``) it is reported per layer,
since an end-to-end metric must never read 0.

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
makes a separate traced run that times the calls into each layer from this
directory's files and reports the per-layer metrics.  Every metric of the
other mode's workloads is reported too: a layer a workload does not call
from the benchmark process reads 0 (the memory workloads make no store puts;
the paper-sweep's sampling and decoding run in pool workers, out of reach of
spans taken in the parent).  Either mode runs the distribution-level
correctness oracle (``oracle.py``), prints an environment stamp, writes the
traced spans as JSONL under ``.perfbench/`` and prints, last, one JSON line
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Setup probes per run; ``setup_s`` is their median.
SETUP_PROBES = 5

END_TO_END_UNITS = {
    "trials_per_s": "trials/s",
    "sweep_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER_UNITS = {
    "noise.sample_s": "s",
    "noise.sample_share": "ratio",
    "noise.uniforms_drawn": "count",
    "noise.set_bits": "count",
    "noise.set_bit_frac": "ratio",
    "bitplane.syndrome_s": "s",
    "bitplane.syndrome_share": "ratio",
    "clique.triage_s": "s",
    "clique.triage_share": "ratio",
    "clique.onchip_trial_frac": "ratio",
    "clique.onchip_round_frac": "ratio",
    "decoders.offchip_s": "s",
    "decoders.offchip_share": "ratio",
    "decoders.calls": "count",
    "decoders.events": "count",
    "decoders.events_p50": "count",
    "decoders.events_max": "count",
    "decoders.small_calls": "count",
    "decoders.small_s": "s",
    "decoders.large_calls": "count",
    "decoders.large_s": "s",
    "shard.worker_cpu_s": "s",
    "shard.parent_cpu_s": "s",
    "scheduler.busy_frac": "ratio",
    "faults.pool_builds": "count",
    "faults.warnings": "count",
    "store.puts": "count",
    "store.put_s": "s",
    "store.bytes": "bytes",
    "store.warm_rerun_s": "s",
    "store.warm_pool_builds": "count",
    "bandwidth.stall_s": "s",
    "bandwidth.sim_cycles": "count",
    "bandwidth.cycles_per_s": "cycles/s",
    "bandwidth.stall_share": "ratio",
    "experiments.fig11_s": "s",
    "experiments.fig14_s": "s",
    "experiments.fig16_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.stale": "count",
    "failed_op_frac": "ratio",
}

WORKLOADS = ("memory-lowp", "memory-highp", "paper-sweep")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


# ----------------------------------------------------------------------
# Environment stamp


def cgroup_cpu_quota() -> float | None:
    """CPUs allowed by the cgroup CPU quota, or ``None`` if unlimited/unreadable."""
    try:
        quota, period = Path("/sys/fs/cgroup/cpu.max").read_text().split()[:2]
        return None if quota == "max" else int(quota) / int(period)
    except (OSError, ValueError):
        pass
    try:
        quota = int(Path("/sys/fs/cgroup/cpu/cpu.cfs_quota_us").read_text())
        period = int(Path("/sys/fs/cgroup/cpu/cpu.cfs_period_us").read_text())
        return None if quota <= 0 else quota / period
    except (OSError, ValueError):
        return None


def usable_cpus() -> int:
    """Cores this process may use: affinity, capped by the cgroup quota."""
    cpus = len(os.sched_getaffinity(0))
    quota = cgroup_cpu_quota()
    if quota is not None:
        cpus = min(cpus, max(1, int(quota)))
    return cpus


def git_commit() -> str | None:
    """The checkout's commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def env_stamp() -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cgroup_cpu_quota": cgroup_cpu_quota(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
    }


# ----------------------------------------------------------------------
# Set-up time


def measure_setup(workload: str) -> tuple[float, float]:
    """Median over fresh interpreters of import-to-first-call-ready time.

    Returns the median normalized to the nominal host speed and the median
    as measured.
    """
    from hostspeed import Bracketed

    timer = Bracketed()
    measured, normalized = [], []
    for _ in range(SETUP_PROBES):
        out = timer.time(
            subprocess.run,
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            check=True, capture_output=True, text=True, timeout=120,
        )
        measured.append(float(out.stdout.strip().splitlines()[-1]))
        normalized.append(measured[-1] * timer.last_scale())
    return statistics.median(normalized), statistics.median(measured)


def peak_rss_mb(include_children: bool) -> float:
    """Peak resident memory in MiB (Linux reports ``ru_maxrss`` in KiB).

    With children, the largest reaped child's peak is added to the parent's.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0


# ----------------------------------------------------------------------
# Workloads


def memory_workload(name: str):
    from memory_bench import MemoryWorkload

    if name == "memory-lowp":
        return MemoryWorkload(distance=13, error_rate=1e-3, call_trials=16_384)
    return MemoryWorkload(distance=11, error_rate=1e-2, call_trials=2_048)


def run_memory(args, recorder) -> tuple[dict, list[dict], int, int]:
    import memory_bench

    workload = memory_workload(args.workload)
    if args.trace:
        traced = memory_bench.run_traced(workload, args.seed, args.seconds, recorder)
        print_share_table(workload.regime, traced["metrics"])
        return traced["metrics"], traced["checks"], traced["attempted"], traced["failed"]
    timed = memory_bench.run_timed(workload, args.seed, args.seconds)
    walls = timed["normalized_walls"]
    metrics = {
        "trials_per_s": statistics.median(workload.call_trials / w for w in walls),
        "sweep_s": statistics.median(walls),
        "peak_rss_mb": peak_rss_mb(include_children=False),
    }
    print(f"engine calls: {len(walls)}; as measured: "
          f"{statistics.median(workload.call_trials / w for w in timed['walls']):.6g} trials/s, "
          f"{statistics.median(timed['walls']):.6g} s per call")
    checks = timed["checks"] + timed["totals"]
    failed = timed["failed"] + sum(not c["ok"] for c in timed["totals"])
    return metrics, checks, timed["attempted"], failed


def run_paper_sweep(args, recorder) -> tuple[dict, list[dict], int, int]:
    import sweep_bench

    workers = usable_cpus()
    work_dir = ROOT / ".perfbench" / f"work-{os.getpid()}"
    try:
        if args.trace:
            traced = sweep_bench.run_traced(
                work_dir, args.seed, args.seconds, workers, recorder
            )
            return traced["metrics"], traced["checks"], traced["attempted"], traced["failed"]
        timed = sweep_bench.run_timed(work_dir, args.seed, args.seconds, workers)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    colds = [cold["normalized_wall"] for cold in timed["colds"]]
    metrics = {
        "trials_per_s": statistics.median(sweep_bench.SWEEP_SAMPLES / w for w in colds),
        "sweep_s": statistics.median(colds),
        "peak_rss_mb": peak_rss_mb(include_children=True),
    }
    measured = statistics.median(cold["wall"] for cold in timed["colds"])
    print(f"workers: {workers}; cold sweeps: {len(colds)}; as measured: "
          f"{sweep_bench.SWEEP_SAMPLES / measured:.6g} trials/s, {measured:.6g} s per sweep; "
          f"warm re-runs: {[round(w['wall'], 4) for w in timed['warms']]}")
    return metrics, timed["checks"], timed["attempted"], timed["failed"]


def print_share_table(regime: str, layers: dict) -> None:
    """One row of the regime table (sampling / triage / off-chip shares)."""
    print("| regime | sampling | triage | off-chip |")
    print("|---|---|---|---|")
    print(
        f"| {regime} | {100 * layers['noise.sample_share']:.1f}% "
        f"| {100 * layers['clique.triage_share']:.1f}% "
        f"| {100 * layers['decoders.offchip_share']:.1f}% |"
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from spans import SpanRecorder

    stamp = env_stamp()
    print(json.dumps({"env": stamp}))
    run_id = f"{args.workload}-{args.seed}-trace{args.trace}-{os.getpid()}"
    recorder = SpanRecorder(run_id)
    runner = run_paper_sweep if args.workload == "paper-sweep" else run_memory
    measured, checks, attempted, failed = runner(args, recorder)

    if args.trace:
        units = PER_LAYER_UNITS
        measured["failed_op_frac"] = failed / attempted
        if measured.get("trace.stale"):
            print("per-layer numbers are STALE: the traced composition no longer "
                  "reproduces the engine's counts at this seed")
    else:
        units = END_TO_END_UNITS
        measured["setup_s"], setup_measured = measure_setup(args.workload)
        print(f"setup as measured: {setup_measured:.6g} s")
    metrics = {
        name: {"value": float(measured.get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }
    for name, entry in metrics.items():
        print(f"{name:28s} {entry['value']:.6g} {entry['unit']}")
    bad = [c for c in checks if not c["ok"]]
    print(f"oracle: {len(checks) - len(bad)}/{len(checks)} checks in band "
          f"(per-check false-alarm rate {oracle.ALPHA:g})")
    for check in bad:
        print(f"oracle FAILED: {json.dumps(check)}")

    if args.trace:
        trace_path = ROOT / ".perfbench" / f"trace-{args.workload}.jsonl"
        recorder.write_jsonl(trace_path, {"env": stamp})
        print(f"spans: {len(recorder.spans)} written to {trace_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0 and not bad,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
