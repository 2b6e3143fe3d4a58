"""Sharded sweeps reproduce pinned golden store bytes at any worker count.

fig11 and fig14 sweeps run sharded into a result store — fixed-budget and
Wilson-adaptive, at workers 1 and 4 — and after ``store compact`` the SHA-256
of ``results.jsonl`` must equal a pinned golden digest.  The digests were
recorded from the one-pool-per-point dispatch path that preceded the sweep
scheduler, so that path's output remains the oracle: a change to shard
streams, merge order, result fields, or store keys breaks the pin.  The fig14
digests were re-recorded once, when memory histories moved to the skip
sampler (a new noise stream and a ``"sampler"`` key entry); the fig11
digests predate it, because coverage sampling did not change.  The chaos
case SIGKILLs a worker mid-sweep on one specific point (the ``point <p>``
plan qualifier) and still demands fault-free bytes.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.codes.rotated_surface import get_code
from repro.experiments.fig11 import run as fig11_run
from repro.experiments.fig14 import _CascadeFactory, _mwpm_factory
from repro.experiments.fig14 import run as fig14_run
from repro.faults import FAULT_PLAN_ENV
from repro.noise.models import PhenomenologicalNoise
from repro.noise.rng import point_seed, shard_rng
from repro.simulation.shard import MemoryKernel, merge_memory_counts, plan_shards
from repro.store import ResultStore
from repro.types import StabilizerType

#: SHA-256 of the compacted ``results.jsonl`` for each (figure, mode) below.
GOLDEN_DIGESTS = {
    ("fig14", "fixed"): "3b7d7c8415c80f628424ed1dc6b9b27c0bce57c45cb53e948c5abe45e548923f",
    ("fig14", "adaptive"): "4dd709b5e9ad58ad1de0c734a38bc16470f2783af05e29dec6bc62a189f42959",
    ("fig11", "fixed"): "b3d961f8343f4440de8fbac05ad8531b538baa702838c5d84b7724f8d46d4d13",
    ("fig11", "adaptive"): "18d94259e33c2e67c57a55e1cc8fadb75fea4ddfdcfc5a3bc433754a850d33c9",
}


def compacted_bytes(root):
    ResultStore(root).compact()
    return (root / "results.jsonl").read_bytes()


def compacted_digest(root):
    return hashlib.sha256(compacted_bytes(root)).hexdigest()


def run_fig14(store, workers, adaptive=False, **overrides):
    params = dict(
        trials=60,
        seed=17,
        distances=(3, 5),
        error_rates=(1e-2,),
        engine="sharded",
        workers=workers,
        chunk_trials=10,
        store=store,
    )
    if adaptive:
        params.update(target_ci_width=0.2, min_trials=20)
    params.update(overrides)
    return fig14_run(**params)


def run_fig11(store, workers, adaptive=False):
    params = dict(
        cycles=3_000,
        seed=23,
        distances=(3, 5),
        error_rates=(1e-3, 1e-2),
        workers=workers,
        chunk_cycles=500,
        store=store,
    )
    if adaptive:
        params.update(target_ci_width=0.05)
    return fig11_run(**params)


class TestFig14GoldenStore:
    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("mode", ["fixed", "adaptive"])
    def test_store_bytes_match_golden_digest(self, tmp_path, workers, mode):
        run_fig14(tmp_path / "store", workers, adaptive=mode == "adaptive")
        assert compacted_digest(tmp_path / "store") == GOLDEN_DIGESTS["fig14", mode]

    def test_sweep_points_are_the_seeding_contract_merge(self, tmp_path):
        # Every fixed-budget point equals the merge of
        # MemoryKernel(n_i, shard_rng(point_seed, i)) over its shard plan.
        result = run_fig14(tmp_path / "store", 2)
        noise = PhenomenologicalNoise(1e-2)
        for distance_index, row in enumerate(result.rows):
            code = get_code(row["code_distance"])
            seed = point_seed(17, distance_index, 0)
            merged = {}
            for label, factory in (
                ("baseline", _mwpm_factory),
                ("clique", _CascadeFactory(("clique", "mwpm"))),
            ):
                kernel = MemoryKernel(
                    code, noise, factory, code.distance, StabilizerType.X
                )
                counts = None
                for index, shard_trials in enumerate(plan_shards(60, 10)):
                    partial = kernel(shard_trials, shard_rng(seed, index))
                    counts = (
                        partial
                        if counts is None
                        else merge_memory_counts(counts, partial)
                    )
                merged[label] = counts
            assert row["baseline_logical_error_rate"] == merged["baseline"][0] / 60
            assert row["clique_logical_error_rate"] == merged["clique"][0] / 60
            assert row["onchip_round_fraction"] == (
                merged["clique"][1] / merged["clique"][2]
            )

    def test_scheduled_sweep_resumes_from_partial_store(self, tmp_path):
        # A store holding only the d=3 points (from a narrower earlier run)
        # must hit for those and schedule only the d=5 points.
        store = tmp_path / "store"
        run_fig14(store, 2, distances=(3,))
        full = run_fig14(store, 2)
        fresh = run_fig14(tmp_path / "fresh", 2)
        assert full.rows == fresh.rows
        assert compacted_bytes(store) == compacted_bytes(tmp_path / "fresh")

    def test_auto_chunk_identity_across_workers(self, tmp_path):
        # chunk="auto" resolves per (budget, workers, distance) — the worker
        # count enters the *chunk*, so stores only match at equal workers;
        # pin that the resolved-auto run equals its explicit-chunk twin.
        auto = run_fig14(tmp_path / "auto", 2, chunk_trials="auto")
        # trials=60, workers=2 -> ceil(60/4) = 15 for both distances.
        explicit = run_fig14(tmp_path / "explicit", 2, chunk_trials=15)
        assert auto.rows == explicit.rows
        assert compacted_bytes(tmp_path / "auto") == compacted_bytes(
            tmp_path / "explicit"
        )


class TestFig11GoldenStore:
    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("mode", ["fixed", "adaptive"])
    def test_store_bytes_match_golden_digest(self, tmp_path, workers, mode):
        run_fig11(tmp_path / "store", workers, adaptive=mode == "adaptive")
        assert compacted_digest(tmp_path / "store") == GOLDEN_DIGESTS["fig11", mode]


class TestScheduledChaos:
    def test_cross_point_kill_mid_sweep_is_byte_identical(
        self, tmp_path, monkeypatch
    ):
        # SIGKILL the worker running shard 2 of the *second* scheduled point
        # (d=3 hierarchy run) while shards of other points share the pool:
        # the broken pool is respawned, the shard replays its stream, and the
        # store converges to fault-free bytes.
        monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
        clean = run_fig14(tmp_path / "clean", 4)
        monkeypatch.setenv(FAULT_PLAN_ENV, "point 1 shard 2 attempt 0 kill")
        faulted = run_fig14(
            tmp_path / "faulted", 4, max_retries=3, shard_timeout=5.0
        )
        monkeypatch.delenv(FAULT_PLAN_ENV)
        assert faulted.rows == clean.rows
        assert compacted_bytes(tmp_path / "faulted") == compacted_bytes(
            tmp_path / "clean"
        )
        assert compacted_digest(tmp_path / "faulted") == GOLDEN_DIGESTS["fig14", "fixed"]
