"""The benchmark's correctness oracle bites, its traced run stays fresh and
its host-speed normalization rescales by the probes.

Collected by the default test run; every test here takes well under a
second or two.
"""

from __future__ import annotations

import hostspeed
import memory_bench
import sweep_bench
from spans import SpanRecorder

# One engine chunk per call at the memory-lowp operating point.
SMALL_LOWP = memory_bench.MemoryWorkload(distance=13, error_rate=1e-3, call_trials=2048)


def test_real_decoder_passes_the_oracle():
    timed = memory_bench.run_timed(SMALL_LOWP, seed=5, seconds=0)
    assert timed["attempted"] == 1
    assert timed["failed"] == 0
    assert all(check["ok"] for check in timed["checks"] + timed["totals"])


def test_zero_correction_decoder_trips_the_oracle():
    timed = memory_bench.run_timed(
        SMALL_LOWP, seed=5, seconds=0, factory=memory_bench.broken_factory
    )
    assert timed["failed"] == timed["attempted"] == 1
    verdicts = {check["check"]: check["ok"] for check in timed["totals"]}
    assert verdicts == {"logical_failures": False, "onchip_trials": True}


def test_traced_composition_reproduces_the_engine():
    traced = memory_bench.run_traced(SMALL_LOWP, seed=5, seconds=0, recorder=SpanRecorder("t"))
    assert traced["metrics"]["trace.stale"] == 0
    assert traced["failed"] == 0
    assert traced["metrics"]["noise.uniforms_drawn"] > traced["metrics"]["noise.set_bits"] > 0


def test_out_of_band_coverage_fails_the_sweep_oracle():
    reference = {"fig11 d=5 p=0.01": {"k": 9_000, "n": 10_000}}
    row = {"code_distance": 5, "physical_error_rate": 1e-2, "cycles": 8_000}
    good = sweep_bench._coverage_checks(reference, [{**row, "coverage_pct": 90.0}])
    bad = sweep_bench._coverage_checks(reference, [{**row, "coverage_pct": 50.0}])
    assert good[0]["ok"] and not bad[0]["ok"]


def test_span_self_time_subtracts_children():
    recorder = SpanRecorder("t")
    with recorder.span("outer") as outer:
        with recorder.span("inner") as inner:
            pass
    outer_s = outer["end"] - outer["start"]
    inner_s = inner["end"] - inner["start"]
    assert abs(recorder.self_time("outer") - (outer_s - inner_s)) < 1e-12


def test_bracketed_time_scales_by_the_probes():
    timer = hostspeed.Bracketed()
    assert timer.time(sum, [1, 2]) == 3
    timer.probes = [0.5 * hostspeed.NOMINAL_PROBE_S, 1.5 * hostspeed.NOMINAL_PROBE_S]
    timer.walls = [2.0]
    assert timer.normalized_walls() == [2.0]
    timer.probes[1] = 0.5 * hostspeed.NOMINAL_PROBE_S
    assert timer.normalized_walls() == [4.0]
    assert timer.last_scale() == 2.0
