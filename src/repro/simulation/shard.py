"""Generic sharded Monte-Carlo runner: any batch kernel scaled across processes.

Once a vectorised kernel (the batch memory engine of
:mod:`repro.simulation.batch`, the coverage counter of
:mod:`repro.simulation.coverage`, ...) saturates a core, the remaining orders
of magnitude come from parallel scaling.  This module owns the shard plan: it
splits a trial budget into fixed-size shards (:func:`plan_shards`), sizes
them (:func:`resolve_auto_chunk`), and defines the memory-experiment kernel
and the associative merges that combine per-shard partial results.
Dispatch itself has one home, :class:`repro.simulation.scheduler.SweepScheduler`:
:func:`run_sharded` and :func:`run_sharded_adaptive` are one-point scheduler
runs.

A *kernel* is any picklable callable ``(n_trials, rng) -> partial_result``
(configuration — code, noise model, decoder choice — is carried on the kernel
object itself, e.g. a frozen dataclass), and ``merge`` is an associative,
commutative combiner of two partials.  The default merge sums numeric count
tuples, which covers every counting experiment in the repo.

Seeding contract
----------------
Shard ``i`` draws from :func:`repro.noise.rng.shard_rng`, whose stream
depends only on ``(seed, shard_index)`` — it is derived via
``SeedSequence(seed, spawn_key=(i,))``, i.e. exactly what
``SeedSequence(seed).spawn(n)[i]`` would produce for any ``n``.  The shard
plan itself depends only on ``(trials, chunk_trials)``.  Together these make
the runner **deterministic for a fixed** ``(seed, chunk_trials)``
**independent of** ``workers`` — the same merged counts fall out whether the
shards run in one process, in eight, or in a different assignment order.

A sharded run is *not* bit-identical to one single-stream kernel call over
the whole budget (each shard owns an independent child stream rather than a
slice of the root stream), but it is exactly equal to calling the kernel once
per shard with ``rng=shard_rng(seed, i)`` and merging — which is what the
equivalence tests in ``tests/simulation/test_shard_engine.py`` pin.

``workers=1`` (or an unavailable ``ProcessPoolExecutor``, e.g. a sandbox
without POSIX semaphores) runs the same shard plan sequentially in-process,
so restricted CI environments still exercise every code path with identical
results.  A pool that cannot be constructed degrades with a
:class:`~repro.faults.DegradedExecutionWarning` and flags ``engine_degraded``
on the run's :class:`~repro.faults.FaultReport` — never silently.

Fault tolerance
---------------
The scheduler dispatches through :class:`repro.faults.ShardExecutor`:
because each shard's partial result is a pure function of ``(seed,
shard_index)``, a failed, timed-out, or killed shard is simply re-dispatched
and the retried attempt is **bit-identical** to the one that died.  ``faults=`` takes a
:class:`~repro.faults.FaultPolicy` (default: up to 2 retries per shard,
deterministic jittered backoff, no timeout); ``fault_report=`` exposes what
recovery actually happened; ``fault_injector=`` (or the ambient
``REPRO_FAULT_PLAN`` environment variable) injects deterministic chaos for
testing.  Shards dropped under ``on_exhausted="skip"`` are excluded from the
merge and recorded on the report — the merged counts then cover fewer trials
than requested, and callers must propagate that provenance.

Adaptive allocation
-------------------
:func:`run_sharded_adaptive` spawns shard *waves* by index until a
:class:`~repro.simulation.monte_carlo.WilsonStoppingRule` reports the tracked
proportion's confidence interval tight enough.  The wave schedule
(:meth:`~repro.simulation.monte_carlo.WilsonStoppingRule.next_wave`: cover
``min_trials``, then double the consumed trials each round, clamped to
``max_trials``) is a pure function of the observed counts, so adaptive runs
inherit the same worker-independent determinism.  ``checkpoint=`` saves the
merged counts and shard cursor after every wave, so a killed run resumes
mid-point with identical final counts (see :mod:`repro.simulation.scheduler`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.codes.rotated_surface import RotatedSurfaceCode
from repro.decoders.base import Decoder
from repro.exceptions import ConfigurationError
from repro.faults import FaultInjector, FaultPolicy, FaultReport
from repro.noise.models import NoiseModel
from repro.simulation.monte_carlo import WilsonStoppingRule
from repro.types import StabilizerType

#: Trials per shard.  Small enough that a paper-scale budget yields plenty of
#: shards to spread over a many-core pool, large enough that each shard's
#: batch-engine vectorisation and per-process decoder construction amortise.
DEFAULT_SHARD_TRIALS = 500

#: A picklable ``(n_trials, rng) -> partial_result`` shard workload.
ShardKernel = Callable[[int, np.random.Generator], Any]


def plan_shards(trials: int, chunk_trials: int) -> list[int]:
    """Split ``trials`` into the per-shard trial counts.

    The plan depends only on ``(trials, chunk_trials)`` — never on the worker
    count — which is half of the runner's determinism guarantee (the other
    half is :func:`repro.noise.rng.shard_rng`).
    """
    if trials <= 0:
        raise ConfigurationError(f"trials must be positive, got {trials}")
    if chunk_trials <= 0:
        raise ConfigurationError(f"chunk_trials must be positive, got {chunk_trials}")
    full, remainder = divmod(trials, chunk_trials)
    return [chunk_trials] * full + ([remainder] if remainder else [])


def merge_counts(left: tuple, right: tuple) -> tuple:
    """Default associative merge: elementwise sum of numeric count tuples."""
    return tuple(a + b for a, b in zip(left, right))


#: Sentinel accepted by the ``chunk_trials`` / ``chunk_cycles`` knobs of the
#: sharded runners: resolve the shard size from the budget, the worker count,
#: and the code distance (see :func:`resolve_auto_chunk`).
AUTO_CHUNK = "auto"

#: Smallest shard :func:`resolve_auto_chunk` will pick: below this the
#: per-shard fixed costs (process dispatch, decoder construction, batch
#: engine setup) stop amortising.
_AUTO_CHUNK_FLOOR = 50


def resolve_auto_chunk(
    trials: int,
    workers: int | None,
    distance: int | None = None,
    default: int = DEFAULT_SHARD_TRIALS,
    floor: int = _AUTO_CHUNK_FLOOR,
) -> int:
    """Pick a shard size from the budget, worker count, and code distance.

    Two pressures, both about keeping a shared pool busy: shards must be
    numerous enough that a point yields at least ``2 * workers`` of them (so
    the sweep scheduler always has work to interleave behind another point's
    tail), and — since per-trial cost grows steeply with distance — large
    distances get proportionally smaller shards so one slow shard cannot
    stall the merge.  The result is clamped to ``[1, default]`` and respects
    ``floor`` where the budget allows; it depends only on
    ``(trials, workers, distance)``, so the resolved value is recorded in the
    store key (the spelling ``"auto"`` itself never is — it is
    machine-dependent via ``workers``).
    """
    if trials <= 0:
        raise ConfigurationError(f"trials must be positive, got {trials}")
    workers = resolve_workers(workers)
    cap = default
    if distance is not None and distance > 0:
        cap = max(floor, min(default, (4 * default) // distance))
    # ceil(trials / (2 * workers)) without floats: >= 2*workers shards.
    target = -(-trials // (2 * workers))
    return max(1, min(cap, target))


def resolve_workers(workers: int | None) -> int:
    """The worker count a sharded run uses: ``None`` means every CPU."""
    if workers is None:
        workers = os.cpu_count() or 1
    if workers <= 0:
        raise ConfigurationError(f"workers must be positive, got {workers}")
    return workers


def run_sharded(
    kernel: ShardKernel,
    trials: int,
    seed: int | None = None,
    chunk_trials: int = DEFAULT_SHARD_TRIALS,
    workers: int | None = None,
    merge: Callable[[Any, Any], Any] = merge_counts,
    faults: FaultPolicy | None = None,
    fault_report: FaultReport | None = None,
    fault_injector: FaultInjector | None = None,
) -> Any:
    """Run ``kernel`` over a deterministic shard plan and merge the partials.

    A one-point :class:`~repro.simulation.scheduler.SweepScheduler` run: the
    pool is capped at the shard count, so a single-shard run builds none.

    Args:
        kernel: picklable ``(n_trials, rng) -> partial_result`` callable
            (module-level function or picklable instance — lambdas and
            locally defined functions fail to pickle into workers; lint rule
            ``PKL001`` rejects them statically).
        trials: total trial budget, split by :func:`plan_shards`.
        seed: integer seed (or ``None`` for fresh entropy, drawn once and
            shared by all shards).  A ready-made generator is *not* accepted:
            its state cannot be split deterministically across processes.
        chunk_trials: trials per shard; with the seed it fully determines the
            result (see the module docstring).
        workers: process count; defaults to ``os.cpu_count()``.  ``1`` runs
            the shards sequentially in-process.  The value never affects the
            merged result, only wall-clock time (which is why ``workers`` sits
            in :data:`repro.store.keys.KEY_EXCLUDED` rather than in any
            store key).
        merge: associative, commutative combiner of two partial results.
        faults: the :class:`~repro.faults.FaultPolicy` governing retries,
            timeouts, and pool recovery (default: retry each failed shard up
            to twice with deterministic backoff).  Recovery never changes the
            merged result — retried shards replay their streams bit-identically
            — so the policy is execution provenance, not part of the result's
            identity.  ``FaultPolicy(max_retries=0)`` fails fast: the first
            kernel error raises :class:`~repro.exceptions.ShardRetriesExhaustedError`
            chained from it.
        fault_report: optional :class:`~repro.faults.FaultReport` to
            accumulate recovery counters (retries, timeouts, pool respawns,
            degradations, skipped shards) into.
        fault_injector: optional :class:`~repro.faults.FaultInjector` with a
            deterministic chaos plan; defaults to the ambient
            ``REPRO_FAULT_PLAN`` environment plan, if set.

    Raises:
        ShardRetriesExhaustedError: a shard kept failing past its retry
            budget and ``faults.on_exhausted`` is ``"raise"``.
        FaultToleranceError: ``on_exhausted="skip"`` dropped *every* shard,
            leaving nothing to merge.
    """
    # Imported lazily: the scheduler builds on this module's shard plan.
    from repro.simulation.scheduler import SweepPoint, SweepScheduler

    point = SweepPoint(
        "run", kernel, trials, seed=seed, chunk_trials=chunk_trials, merge=merge
    )
    scheduler = SweepScheduler(
        workers=workers,
        faults=faults,
        fault_report=fault_report,
        fault_injector=fault_injector,
    )
    return scheduler.run([point])["run"].value


@dataclass(frozen=True)
class AdaptiveShardRun:
    """Outcome of :func:`run_sharded_adaptive`.

    Attributes:
        value: the merged kernel partials.
        trials: trials actually consumed (``min_trials`` .. ``max_trials``).
        successes: tracked-proportion successes in the merged partials.
        interval: final Wilson interval of the tracked proportion.
        shards: number of shards (RNG stream indices) consumed.
    """

    value: Any
    trials: int
    successes: int
    interval: tuple[float, float]
    shards: int

    @property
    def width(self) -> float:
        return self.interval[1] - self.interval[0]

    @property
    def proportion(self) -> float:
        return self.successes / self.trials if self.trials else 0.0


def run_sharded_adaptive(
    kernel: ShardKernel,
    stop: WilsonStoppingRule,
    successes_of: Callable[[Any], int],
    seed: int | None = None,
    chunk_trials: int = DEFAULT_SHARD_TRIALS,
    workers: int | None = None,
    merge: Callable[[Any, Any], Any] = merge_counts,
    checkpoint: Any | None = None,
    faults: FaultPolicy | None = None,
    fault_report: FaultReport | None = None,
    fault_injector: FaultInjector | None = None,
) -> AdaptiveShardRun:
    """Spawn shard waves by index until ``stop`` is satisfied.

    A one-point adaptive :class:`~repro.simulation.scheduler.SweepScheduler`
    run.  Waves follow :meth:`WilsonStoppingRule.next_wave` (cover
    ``stop.min_trials``, then double the consumed trial count, clamped to
    ``stop.max_trials``).  Shards are consumed strictly by index under the
    module's seeding contract and the wave schedule is a pure function of the
    observed counts, so the run is deterministic for a fixed
    ``(seed, chunk_trials)`` independent of ``workers`` and across reruns.

    Args:
        stop: the Wilson-convergence rule (see
            :func:`repro.simulation.monte_carlo.until_wilson`).
        successes_of: extracts the tracked proportion's success count from a
            merged partial result (called in the parent process only).
        checkpoint: optional ``load()``/``save(state)``/``clear()`` slot
            (e.g. :class:`repro.store.AdaptiveCheckpoint`).  State is saved
            after every wave, so a killed run resumes mid-point with its
            observed counts intact — and, the wave schedule being a pure
            function of those counts, finishes bit-identical to an
            uninterrupted run.  The final state is deliberately *not*
            cleared here: the owner clears it once the returned result is
            durably persisted (``SweepCache.finish`` does), otherwise a kill
            between completion and persistence would discard the whole run.
            Until then the leftover state is harmless — a re-run loads it,
            finds the stopping rule already satisfied, and returns the same
            result without spawning a single shard.  Only JSON-compatible
            merged partials (numbers/strings in flat tuples) are
            checkpointable.
        faults: per-shard :class:`~repro.faults.FaultPolicy` (see
            :func:`run_sharded`); one executor — and hence one pool and one
            set of recovery budgets per incident — spans all waves.  Under
            ``on_exhausted="skip"`` a skipped shard's trials do not count
            toward ``trials_done``, so the stopping rule only ever sees
            trials that actually ran.
        fault_report: optional :class:`~repro.faults.FaultReport`
            accumulating recovery counters across all waves.
        fault_injector: optional :class:`~repro.faults.FaultInjector`;
            defaults to the ambient ``REPRO_FAULT_PLAN`` plan, if set.

    Returns:
        An :class:`AdaptiveShardRun` with the merged value, the trials
        actually consumed, and the final Wilson interval.
    """
    from repro.simulation.scheduler import SweepPoint, SweepScheduler

    point = SweepPoint(
        "run",
        kernel,
        stop.max_trials,
        seed=seed,
        chunk_trials=chunk_trials,
        merge=merge,
        stop=stop,
        successes_of=successes_of,
        checkpoint=checkpoint,
    )
    scheduler = SweepScheduler(
        workers=workers,
        faults=faults,
        fault_report=fault_report,
        fault_injector=fault_injector,
    )
    outcome = scheduler.run([point])["run"]
    return AdaptiveShardRun(
        value=outcome.value,
        trials=outcome.trials,
        successes=outcome.successes,
        interval=outcome.interval,
        shards=outcome.shards,
    )


# ----------------------------------------------------------------------
# Memory-experiment kernel (the original consumer of the shard layer)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MemoryKernel:
    """Picklable memory-experiment shard kernel (rides the batch engine).

    Partial results are ``(logical_failures, onchip_rounds, total_rounds,
    decoder_name, tier_names, tier_trials, tier_rounds)`` tuples — the tier
    entries are per-cascade-tier count tuples, empty for flat decoders —
    merged with :func:`merge_memory_counts`.

    Each shard runs the batch engine's uint64 bitplane pipeline on its own
    ``shard_rng(seed, index)`` stream, so a shard's partial tuple equals the
    loop engine's counts on that stream.
    """

    code: RotatedSurfaceCode
    noise: NoiseModel
    decoder_factory: Callable[[RotatedSurfaceCode, StabilizerType], Decoder]
    rounds: int
    stype: StabilizerType

    def __call__(
        self, shard_trials: int, rng: np.random.Generator
    ) -> tuple[int, int, int, str, tuple, tuple, tuple]:
        from repro.simulation.batch import run_memory_experiment_batch

        result = run_memory_experiment_batch(
            self.code,
            self.noise,
            self.decoder_factory,
            trials=shard_trials,
            rounds=self.rounds,
            stype=self.stype,
            rng=rng,
        )
        return (
            result.logical_failures,
            result.onchip_rounds,
            result.total_rounds,
            result.decoder_name,
            result.tier_names,
            result.tier_trials,
            result.tier_rounds,
        )


def merge_memory_counts(
    left: tuple[int, int, int, str, tuple, tuple, tuple],
    right: tuple[int, int, int, str, tuple, tuple, tuple],
) -> tuple[int, int, int, str, tuple, tuple, tuple]:
    """Associative merge for :class:`MemoryKernel` partials."""
    return (
        left[0] + right[0],
        left[1] + right[1],
        left[2] + right[2],
        left[3],
        tuple(left[4]),
        tuple(a + b for a, b in zip(left[5], right[5])),
        tuple(a + b for a, b in zip(left[6], right[6])),
    )


__all__ = [
    "AUTO_CHUNK",
    "DEFAULT_SHARD_TRIALS",
    "AdaptiveShardRun",
    "MemoryKernel",
    "merge_counts",
    "merge_memory_counts",
    "plan_shards",
    "resolve_auto_chunk",
    "resolve_workers",
    "run_sharded",
    "run_sharded_adaptive",
]
