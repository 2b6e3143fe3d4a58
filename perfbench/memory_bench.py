"""The memory workloads: one memory experiment at a fixed (d, p), rounds = d.

The untraced run drives ``run_memory_experiment`` on its default engine,
call after call, with a two-tier ``DecoderCascade(tiers=("clique", "mwpm"))``.

The traced run composes the engine's public steps the way the packed batch
engine does (sample, XOR-accumulate, syndromes, Clique triage with the
off-chip tier, failure popcount), with a span around each step.  The
off-chip tier is handed to the cascade as a timing ``Decoder`` around
``MWPMDecoder``.  The composition is then checked against the engine itself
on the same seed: if the failure and tier counts differ, the engine changed
underneath the composition and the per-layer numbers are flagged stale.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

import oracle
from hostspeed import Bracketed
from spans import SpanRecorder

from repro import bitplane
from repro.clique.cascade import DecoderCascade
from repro.codes.rotated_surface import RotatedSurfaceCode
from repro.decoders.base import Decoder
from repro.decoders.mwpm import MWPMDecoder
from repro.noise.models import PhenomenologicalNoise
from repro.noise.rng import make_rng, point_seed
from repro.simulation.batch import logical_support_bitmap
from repro.simulation.memory import run_memory_experiment
from repro.types import StabilizerType

TIERS = ("clique", "mwpm")
STYPE = StabilizerType.X

#: Trials per engine chunk.  The traced composition must slice the RNG stream
#: exactly as the engine does; if the engine's chunking changes, the staleness
#: check below reports it.
ENGINE_CHUNK_TRIALS = 2048

#: Largest event count the MWPM tier hands to its subset-DP solver; larger
#: sets go to blossom.  Only used to bucket the off-chip calls.
SMALL_EVENTS = 8

# Seed-stream tags, so timed calls, warm-up and the traced run never share
# a stream.
_TIMED, _WARMUP, _TRACED = 0, 1, 2


@dataclass(frozen=True)
class MemoryWorkload:
    distance: int
    error_rate: float
    call_trials: int

    @property
    def regime(self) -> str:
        return f"p={self.error_rate:g}, d={self.distance}"


def cascade_factory(code, stype):
    return DecoderCascade(code, stype, tiers=TIERS)


def broken_factory(code, stype):
    """A deliberately wrong decoder (zero correction), to prove the oracle bites."""
    return ZeroCorrection(code, stype)


class ZeroCorrection(DecoderCascade):
    """The real cascade's triage and tier counts, with every correction dropped."""

    def __init__(self, code, stype):
        super().__init__(code, stype, tiers=TIERS)

    def decode_batch_packed(self, detections, trials):
        result = super().decode_batch_packed(detections, trials)
        result.corrections[...] = 0
        return result


class TimedMatcher(Decoder):
    """Final cascade tier that times each call into ``MWPMDecoder``."""

    def __init__(self, code, stype, recorder: SpanRecorder) -> None:
        super().__init__(code, stype)
        self._inner = MWPMDecoder(code, stype)
        self._recorder = recorder
        self.event_counts: list[int] = []

    @property
    def name(self) -> str:
        return self._inner.name

    def decode(self, detections):
        return self._inner.decode(detections)

    def decode_events_bitmap(self, rounds, ancillas):
        self.event_counts.append(int(np.size(rounds)))
        with self._recorder.span("decoders.offchip"):
            return self._inner.decode_events_bitmap(rounds, ancillas)


def code_and_noise(workload: MemoryWorkload):
    return RotatedSurfaceCode(workload.distance), PhenomenologicalNoise(workload.error_rate)


def run_timed(workload: MemoryWorkload, seed: int, seconds: float, factory=cascade_factory):
    """Untraced run: repeated engine calls for ``seconds``.

    Returns per-call wall times (as measured and normalized to the nominal
    host speed, see ``hostspeed``), results and oracle verdicts.  A call that
    raises or whose counts fall outside the oracle bands counts as failed.
    """
    code, noise = code_and_noise(workload)
    reference = oracle.load_reference()[workload_key(workload)]
    run_memory_experiment(
        code, noise, factory, trials=256, rounds=workload.distance,
        rng=point_seed(seed, _WARMUP),
    )
    timer = Bracketed()
    checks = []
    failures = onchip = trials = attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or attempted == 0:
        attempted += 1
        try:
            result = timer.time(
                run_memory_experiment, code, noise, factory, trials=workload.call_trials,
                rounds=workload.distance, rng=point_seed(seed, _TIMED, attempted),
            )
        except Exception as error:
            # A failed operation is counted against the run, not fatal to it.
            print(f"memory call {attempted} failed: {error!r}")
            failed += 1
            continue
        call_checks = _call_checks(reference, result)
        checks.extend(call_checks)
        if not all(c["ok"] for c in call_checks):
            failed += 1
        failures += result.logical_failures
        onchip += result.tier_trials[0]
        trials += result.trials
    totals = [
        oracle.check("logical_failures", reference["logical_failures"], failures, trials),
        oracle.check("onchip_trials", reference["onchip_trials"], onchip, trials),
    ] if trials else []
    return {
        "walls": timer.walls,
        "normalized_walls": timer.normalized_walls(),
        "attempted": attempted,
        "failed": failed,
        "trials": trials,
        "checks": checks,
        "totals": totals,
    }


def _call_checks(reference, result):
    return [
        oracle.check("logical_failures", reference["logical_failures"],
                     result.logical_failures, result.trials),
        oracle.check("onchip_trials", reference["onchip_trials"],
                     result.tier_trials[0], result.trials),
    ]


def workload_key(workload: MemoryWorkload) -> str:
    return f"memory d={workload.distance} p={workload.error_rate:g}"


def run_traced(workload: MemoryWorkload, seed: int, seconds: float, recorder: SpanRecorder):
    """Traced run: the engine's steps composed by hand, then the engine itself.

    The first half of the budget runs the traced composition over whole
    engine chunks; the engine then runs the same trials on the same seed,
    untraced, for the staleness check and the tracing overhead.
    """
    code, noise = code_and_noise(workload)
    matcher = TimedMatcher(code, STYPE, recorder)
    decoder = DecoderCascade(code, STYPE, tiers=(TIERS[0], matcher))
    parity_check = code.parity_check(STYPE).astype(np.int64)
    packed_check = bitplane.PackedParityCheck(parity_check)
    logical_planes = np.flatnonzero(logical_support_bitmap(code, STYPE))
    rounds = workload.distance
    cells_per_trial = rounds * (code.num_data_qubits + code.num_ancillas_of_type(STYPE))
    trace_seed = point_seed(seed, _TRACED)
    generator = make_rng(trace_seed)

    counts = {
        "failures": 0, "onchip_rounds": 0, "total_rounds": 0, "chunks": 0,
        "tier_trials": np.zeros(len(TIERS), dtype=np.int64),
        "tier_rounds": np.zeros(len(TIERS), dtype=np.int64),
        "uniforms": 0, "set_bits": 0, "trials": 0,
    }
    deadline = time.perf_counter() + seconds / 2
    traced_start = time.perf_counter()
    while time.perf_counter() < deadline or counts["trials"] == 0:
        chunk = ENGINE_CHUNK_TRIALS
        with recorder.span("memory.chunk"):
            with recorder.span("noise.sample"):
                data_planes, flip_planes = noise.sample_history_packed(
                    code, STYPE, chunk, rounds, generator
                )
            with recorder.span("bitplane.syndrome"):
                accumulated = np.bitwise_xor.accumulate(data_planes, axis=0)
                true_syndromes = packed_check.syndromes(accumulated)
                observed = np.concatenate(
                    [true_syndromes ^ flip_planes, true_syndromes[-1:]], axis=0
                )
                detections = observed.copy()
                detections[1:] ^= observed[:-1]
            with recorder.span("clique.triage"):
                result = decoder.decode_batch_packed(detections, chunk)
            with recorder.span("bitplane.popcount"):
                residual = accumulated[-1] ^ result.corrections
                failure_words = np.bitwise_xor.reduce(residual[logical_planes], axis=0)
                failures = bitplane.popcount(
                    failure_words & bitplane.trial_mask_words(chunk)
                )
        counts["failures"] += failures
        counts["onchip_rounds"] += int(result.onchip_rounds.sum())
        counts["total_rounds"] += int(result.total_rounds.sum())
        counts["tier_trials"] += result.tier_trials
        counts["tier_rounds"] += result.tier_rounds
        counts["uniforms"] += chunk * cells_per_trial
        counts["set_bits"] += bitplane.popcount(data_planes) + bitplane.popcount(flip_planes)
        counts["trials"] += chunk
        counts["chunks"] += 1
    traced_wall = time.perf_counter() - traced_start

    engine_start = time.perf_counter()
    engine = run_memory_experiment(
        code, noise, cascade_factory, trials=counts["trials"], rounds=rounds,
        rng=make_rng(trace_seed),
    )
    engine_wall = time.perf_counter() - engine_start
    stale = (
        engine.logical_failures != counts["failures"]
        or tuple(engine.tier_trials) != tuple(int(n) for n in counts["tier_trials"])
        or tuple(engine.tier_rounds) != tuple(int(n) for n in counts["tier_rounds"])
        or engine.onchip_rounds != counts["onchip_rounds"]
    )
    reference = oracle.load_reference()[workload_key(workload)]
    checks = [
        oracle.check("traced logical_failures", reference["logical_failures"],
                     counts["failures"], counts["trials"]),
        oracle.check("traced onchip_trials", reference["onchip_trials"],
                     int(counts["tier_trials"][0]), counts["trials"]),
        *_call_checks(reference, engine),
    ]
    return {
        "metrics": _layer_metrics(recorder, matcher, counts, traced_wall, engine_wall, stale),
        "checks": checks,
        "attempted": counts["chunks"] + 1,
        "failed": sum(not c["ok"] for c in checks),
    }


def _layer_metrics(recorder, matcher, counts, traced_wall, engine_wall, stale):
    sample_s = recorder.total("noise.sample")
    syndrome_s = recorder.total("bitplane.syndrome")
    triage_s = recorder.self_time("clique.triage")
    offchip_s = recorder.total("decoders.offchip")
    durations = [
        s["end"] - s["start"] for s in recorder.spans if s["name"] == "decoders.offchip"
    ]
    events = np.asarray(matcher.event_counts, dtype=np.int64)
    small = events <= SMALL_EVENTS
    durations = np.asarray(durations, dtype=np.float64)
    trials = counts["trials"]
    return {
        "noise.sample_s": sample_s,
        "noise.sample_share": sample_s / traced_wall,
        "noise.uniforms_drawn": counts["uniforms"],
        "noise.set_bits": counts["set_bits"],
        "noise.set_bit_frac": counts["set_bits"] / counts["uniforms"],
        "bitplane.syndrome_s": syndrome_s,
        "bitplane.syndrome_share": syndrome_s / traced_wall,
        "clique.triage_s": triage_s,
        "clique.triage_share": triage_s / traced_wall,
        "clique.onchip_trial_frac": int(counts["tier_trials"][0]) / trials,
        "clique.onchip_round_frac": counts["onchip_rounds"] / counts["total_rounds"],
        "decoders.offchip_s": offchip_s,
        "decoders.offchip_share": offchip_s / traced_wall,
        "decoders.calls": int(events.size),
        "decoders.events": int(events.sum()),
        "decoders.events_p50": float(np.median(events)) if events.size else 0.0,
        "decoders.events_max": int(events.max()) if events.size else 0,
        "decoders.small_calls": int(small.sum()),
        "decoders.small_s": float(durations[small].sum()),
        "decoders.large_calls": int((~small).sum()),
        "decoders.large_s": float(durations[~small].sum()),
        "trace.overhead_frac": traced_wall / engine_wall - 1.0,
        "trace.stale": int(stale),
    }
