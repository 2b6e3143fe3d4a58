"""Tests for the N-tier decoder cascade (Clique -> ... -> final matcher).

Covers the tier contract (escalation masks, construction validation), the
bit-identity of the packed batch cascade path against the per-trial
reference, and — the refactor's load-bearing guarantee — the two-tier
cascade's bit-identity with the *pre-refactor* two-tier hierarchy under fixed
seeds on all three Monte-Carlo engines, pinned against frozen seeded outputs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.clique.cascade import DecoderCascade
from repro.clique.decoder import CliqueDecoder
from repro.codes.rotated_surface import get_code
from repro.decoders.base import Decoder
from repro.decoders.mwpm import MWPMDecoder
from repro.decoders.registry import resolve_tier_spec, tier_decoder_names
from repro.decoders.union_find import ClusteringDecoder
from repro.exceptions import ConfigurationError
from repro.noise.models import PhenomenologicalNoise
from repro.simulation.memory import run_memory_experiment
from repro.types import StabilizerType

from batch_oracle import assert_same_decode, decode_packed, decode_per_trial

THREE_TIER = ("clique", "union_find", "mwpm")


def _width(code):
    return code.num_ancillas_of_type(StabilizerType.X)


class _CascadeFactory:
    """Picklable factory for sharded-engine tests."""

    def __init__(self, tiers):
        self.tiers = tuple(tiers)

    def __call__(self, code, stype):
        return DecoderCascade(code, stype, tiers=self.tiers)


class TestTierSpecResolution:
    def test_comma_string_and_tuple_agree(self):
        assert resolve_tier_spec("clique,union_find,mwpm") == THREE_TIER
        assert resolve_tier_spec(THREE_TIER) == THREE_TIER

    def test_whitespace_is_tolerated(self):
        assert resolve_tier_spec("clique, union_find , mwpm") == THREE_TIER

    def test_unknown_tier_lists_valid_names(self):
        with pytest.raises(ConfigurationError) as excinfo:
            resolve_tier_spec("clique,blossom")
        message = str(excinfo.value)
        for name in tier_decoder_names():
            assert name in message

    def test_must_start_with_clique(self):
        with pytest.raises(ConfigurationError, match="clique"):
            resolve_tier_spec("union_find,mwpm")

    def test_non_escalating_mid_tier_rejected_eagerly(self):
        # The eager-validation guarantee: a decoder with no escalation path
        # in an intermediate slot fails at spec time, before any sweep work.
        with pytest.raises(ConfigurationError, match="mid-cascade"):
            resolve_tier_spec("clique,mwpm,union_find")
        assert resolve_tier_spec("clique,union_find,mwpm") == THREE_TIER

    def test_needs_an_offchip_tier(self):
        with pytest.raises(ConfigurationError):
            resolve_tier_spec("clique")


class TestConstruction:
    def test_string_spec_builds_three_tiers(self, code_d5):
        cascade = DecoderCascade(code_d5, StabilizerType.X, tiers="clique,union_find,mwpm")
        assert cascade.tier_names == THREE_TIER
        assert cascade.num_tiers == 3
        assert isinstance(cascade.offchip_tiers[0], ClusteringDecoder)
        assert isinstance(cascade.offchip_tiers[1], MWPMDecoder)

    def test_intermediate_union_find_gets_escalation_policy(self, code_d5):
        cascade = DecoderCascade(code_d5, StabilizerType.X, tiers=THREE_TIER)
        assert cascade.offchip_tiers[0].escalation_cluster_size is not None
        # A *final* union-find tier must resolve everything it receives.
        two_tier = DecoderCascade(code_d5, StabilizerType.X, tiers=("clique", "union_find"))
        assert two_tier.offchip_tiers[0].escalation_cluster_size is None

    def test_named_tiers_share_matching_graph(self, code_d5):
        cascade = DecoderCascade(code_d5, StabilizerType.X, tiers=THREE_TIER)
        assert cascade.offchip_tiers[0]._graph is cascade.offchip_tiers[1]._graph

    @pytest.mark.parametrize(
        "tiers, limit",
        [(THREE_TIER, 3), (("clique", "mwpm"), 2)],
        ids=["three-tier", "two-tier"],
    )
    def test_boundary_clique_cache_limit_threads_through(self, code_d5, tiers, limit):
        cascade = DecoderCascade(
            code_d5, StabilizerType.X, tiers=tiers, boundary_clique_cache_limit=limit
        )
        mwpm = cascade.offchip_tiers[-1]
        for num in range(2, 12):
            mwpm._boundary_clique_edges(num)
        assert len(mwpm._boundary_clique_cache) == limit

    def test_non_escalating_mid_tier_is_rejected(self, code_d5):
        # MWPM has no escalation path, so it can only sit last.
        with pytest.raises(ConfigurationError, match="escalate"):
            DecoderCascade(code_d5, StabilizerType.X, tiers=("clique", "mwpm", "union_find"))

    def test_instance_tiers_are_accepted(self, code_d5):
        mid = ClusteringDecoder(code_d5, StabilizerType.X, escalation_cluster_size=1)
        final = MWPMDecoder(code_d5, StabilizerType.X)
        cascade = DecoderCascade(code_d5, StabilizerType.X, tiers=("clique", mid, final))
        assert cascade.offchip_tiers == (mid, final)
        assert cascade.tier_names[0] == "clique"

    def test_clique_instance_front_tier(self, code_d5):
        front = CliqueDecoder(code_d5, StabilizerType.X)
        cascade = DecoderCascade(code_d5, StabilizerType.X, tiers=(front, "mwpm"))
        assert cascade.clique is front

    def test_bad_front_tier_is_rejected(self, code_d5):
        with pytest.raises(ConfigurationError, match="first cascade tier"):
            DecoderCascade(code_d5, StabilizerType.X, tiers=("mwpm", "union_find"))


class TestEscalationMask:
    def test_small_clusters_resolve_large_escalate(self, code_d5):
        decoder = ClusteringDecoder(
            code_d5, StabilizerType.X, escalation_cluster_size=2
        )
        # One isolated event: a single boundary-matched cluster, resolved here.
        bitmap, escalated = decoder.decode_events_tiered(
            np.array([0]), np.array([0])
        )
        assert escalated.size == 0
        assert bitmap is not None
        # A tight same-ancilla triple grows into one 3-event cluster whose
        # size exceeds the threshold: all three members escalate, by index.
        bitmap, escalated = decoder.decode_events_tiered(
            np.array([0, 1, 2]), np.array([0, 0, 0])
        )
        assert escalated.tolist() == [0, 1, 2]
        assert not bitmap.any()

    def test_partial_resolution_escalates_only_oversized_cluster(self, code_d5):
        decoder = ClusteringDecoder(
            code_d5, StabilizerType.X, escalation_cluster_size=2
        )
        # A far-away isolated event plus a tight same-ancilla triple: the
        # singleton cluster resolves in place while only the triple's three
        # member positions escalate.
        width = code_d5.num_ancillas_of_type(StabilizerType.X)
        rounds = np.array([0, 0, 1, 2])
        ancillas = np.array([width - 1, 0, 0, 0])
        bitmap, escalated = decoder.decode_events_tiered(rounds, ancillas)
        assert escalated.tolist() == [1, 2, 3]
        assert escalated.dtype == np.int64
        # The resolved singleton contributed a non-trivial partial correction.
        lone, lone_escalated = decoder.decode_events_tiered(
            np.array([0]), np.array([width - 1])
        )
        assert lone_escalated.size == 0
        assert np.array_equal(bitmap, lone)

    def test_empty_event_list_never_escalates(self, code_d5):
        decoder = ClusteringDecoder(
            code_d5, StabilizerType.X, escalation_cluster_size=1
        )
        bitmap, escalated = decoder.decode_events_tiered(np.array([]), np.array([]))
        assert escalated.size == 0
        assert not bitmap.any()

    def test_disabled_policy_resolves_everything(self, code_d5):
        decoder = ClusteringDecoder(code_d5, StabilizerType.X)
        bitmap, escalated = decoder.decode_events_tiered(
            np.array([0, 1, 2, 3]), np.array([0, 0, 0, 0])
        )
        assert escalated.size == 0
        assert np.array_equal(
            bitmap,
            decoder.decode_events_bitmap(np.array([0, 1, 2, 3]), np.array([0, 0, 0, 0])),
        )

    def test_invalid_threshold_is_rejected(self, code_d5):
        with pytest.raises(ConfigurationError):
            ClusteringDecoder(code_d5, StabilizerType.X, escalation_cluster_size=0)


def _lone_bulk_flip(code):
    """A 3-round history whose first round is complex, so it goes off-chip."""
    bulk = next(a.index for a in code.ancillas(StabilizerType.X) if not a.boundary_qubits)
    detections = np.zeros((3, _width(code)), dtype=np.uint8)
    detections[0, bulk] = 1
    return detections


class _StubEscalatingTier(Decoder):
    """Intermediate tier that resolves nothing and returns a fixed escalation."""

    def __init__(self, code, stype, escalated):
        super().__init__(code, stype)
        self._escalated = escalated

    def decode(self, detections):  # pragma: no cover - never the final tier
        raise AssertionError("an intermediate tier is never decoded directly")

    def decode_events_tiered(self, rounds, ancillas):
        return np.zeros(self.code.num_data_qubits, dtype=np.uint8), self._escalated


class TestMalformedEscalation:
    """A tier's ``escalated`` must be a 1-D index array; anything else (a
    bool, a 2-D array) is rejected by tier name rather than silently
    indexing the wrong event subset."""

    @pytest.mark.parametrize(
        "escalated",
        [True, np.array([[0], [1]], dtype=np.int64)],
        ids=["bool", "2d-array"],
    )
    def test_malformed_escalation_raises_naming_the_tier(self, code_d5, escalated):
        stub = _StubEscalatingTier(code_d5, StabilizerType.X, escalated)
        cascade = DecoderCascade(code_d5, StabilizerType.X, tiers=("clique", stub, "mwpm"))
        with pytest.raises(ConfigurationError, match="_StubEscalatingTier"):
            cascade.decode_history(_lone_bulk_flip(code_d5))

    def test_well_formed_escalation_reaches_the_final_tier(self, code_d5):
        stub = _StubEscalatingTier(code_d5, StabilizerType.X, np.array([0], dtype=np.int64))
        cascade = DecoderCascade(code_d5, StabilizerType.X, tiers=("clique", stub, "mwpm"))
        result = cascade.decode_history(_lone_bulk_flip(code_d5))
        assert result.handled_tier == 2
        assert result.tier_shipped_rounds == (1, 1)


class TestBatchedCascadeBitIdentity:
    """The packed batch cascade path must stay bit-identical to the per-trial
    decode_history reference — including which tier resolves each trial."""

    @pytest.mark.parametrize("distance", [5, 7])
    def test_three_tier_packed_decode_matches_decode_history(self, distance):
        code = get_code(distance)
        cascade = DecoderCascade(code, StabilizerType.X, tiers=THREE_TIER)
        width = _width(code)
        rng = np.random.default_rng(37)
        # Densities straddle the triage point so plenty of trials exercise
        # every tier boundary.
        for density in (0.05, 0.18):
            batch = (rng.random((40, distance + 1, width)) < density).astype(np.uint8)
            result = decode_packed(cascade, batch)
            assert_same_decode(result, decode_per_trial(cascade, batch))
            assert int(result.tier_trials.sum()) == batch.shape[0]

    def test_tier_rounds_accounting(self, code_d5):
        cascade = DecoderCascade(code_d5, StabilizerType.X, tiers=THREE_TIER)
        rng = np.random.default_rng(43)
        batch = (rng.random((40, 6, _width(code_d5))) < 0.15).astype(np.uint8)
        result = decode_packed(cascade, batch)
        assert_same_decode(result, decode_per_trial(cascade, batch))
        total_rounds = int(result.total_rounds.sum())
        onchip_rounds = int(result.onchip_rounds.sum())
        assert result.tier_rounds[0] == onchip_rounds
        assert result.tier_rounds[1] == total_rounds - onchip_rounds
        # Bandwidth can only shrink down the cascade.
        assert result.tier_rounds[2] <= result.tier_rounds[1]


#: Frozen seeded outputs captured from the pre-refactor two-tier
#: hierarchy implementation (commit 645e6b2) — trials=300,
#: p=2e-2, seed=1234, rounds=distance; sharded at workers=1 with the default
#: chunk.  The cascade refactor must reproduce every number bit for bit.
#: They were recorded on the dense per-vector noise stream, which base noise
#: models no longer use; :class:`DenseStreamNoise` selects it.
PRE_REFACTOR_SEEDED = {
    # (fallback, distance, engine): (logical_failures, onchip_rounds, total_rounds)
    ("mwpm", 3, "loop"): (13, 1199, 1200),
    ("mwpm", 3, "batch"): (13, 1199, 1200),
    ("mwpm", 3, "sharded"): (12, 1199, 1200),
    ("mwpm", 5, "loop"): (10, 1668, 1800),
    ("mwpm", 5, "batch"): (10, 1668, 1800),
    ("mwpm", 5, "sharded"): (22, 1649, 1800),
    ("union_find", 3, "loop"): (13, 1199, 1200),
    ("union_find", 3, "batch"): (13, 1199, 1200),
    ("union_find", 3, "sharded"): (12, 1199, 1200),
    ("union_find", 5, "loop"): (15, 1668, 1800),
    ("union_find", 5, "batch"): (15, 1668, 1800),
    ("union_find", 5, "sharded"): (23, 1649, 1800),
}


class DenseStreamNoise(PhenomenologicalNoise):
    """Phenomenological noise on the dense per-vector stream.

    Overriding a per-vector hook (with ``super()``, so the physics is
    unchanged) routes every engine through the per-vector sampling path —
    the stream the frozen outputs above were recorded on.
    """

    def sample_data_vector(self, code, rng):
        return super().sample_data_vector(code, rng)


class TestPreRefactorEquivalence:
    """``DecoderCascade(("clique", f))`` must be bit-identical to the
    pre-refactor hierarchy under fixed seeds on the loop, batch, and sharded
    engines — every ``PRE_REFACTOR_SEEDED`` entry is asserted."""

    @pytest.mark.parametrize("distance", [3, 5])
    @pytest.mark.parametrize("fallback", ["mwpm", "union_find"])
    @pytest.mark.parametrize("engine", ["loop", "batch", "sharded"])
    def test_two_tier_cascade_reproduces_frozen_outputs(
        self, fallback, engine, distance
    ):
        expected = PRE_REFACTOR_SEEDED[(fallback, distance, engine)]
        result = run_memory_experiment(
            get_code(distance),
            DenseStreamNoise(2e-2),
            _CascadeFactory(("clique", fallback)),
            trials=300,
            rng=1234,
            engine=engine,
            workers=1 if engine == "sharded" else None,
        )
        assert (
            result.logical_failures,
            result.onchip_rounds,
            result.total_rounds,
        ) == expected


class TestCascadeAcrossEngines:
    """Three-tier cascades ride every engine with consistent tier stats."""

    def test_loop_and_batch_agree_including_tier_stats(self, code_d5):
        kwargs = dict(trials=200, rng=7)
        loop = run_memory_experiment(
            code_d5,
            PhenomenologicalNoise(2e-2),
            _CascadeFactory(THREE_TIER),
            engine="loop",
            **kwargs,
        )
        batch = run_memory_experiment(
            code_d5,
            PhenomenologicalNoise(2e-2),
            _CascadeFactory(THREE_TIER),
            engine="batch",
            **kwargs,
        )
        assert loop == batch
        assert loop.tier_names == THREE_TIER
        assert sum(loop.tier_trials) == loop.trials
        assert loop.tier_rounds[0] == loop.onchip_rounds

    def test_sharded_worker_count_never_changes_tier_stats(self, code_d5):
        kwargs = dict(trials=400, rng=11, engine="sharded")
        one = run_memory_experiment(
            code_d5, PhenomenologicalNoise(2e-2), _CascadeFactory(THREE_TIER),
            workers=1, **kwargs,
        )
        four = run_memory_experiment(
            code_d5, PhenomenologicalNoise(2e-2), _CascadeFactory(THREE_TIER),
            workers=4, **kwargs,
        )
        assert one == four
        assert sum(one.tier_trials) == one.trials

    def test_escalation_rates_decrease_down_the_cascade(self, code_d5):
        result = run_memory_experiment(
            code_d5,
            PhenomenologicalNoise(2e-2),
            _CascadeFactory(THREE_TIER),
            trials=300,
            rng=13,
        )
        rates = result.escalation_rates
        assert len(rates) == 2
        assert 0.0 <= rates[1] <= rates[0] <= 1.0
        assert result.tier_rounds_per_trial(2) <= result.tier_rounds_per_trial(1)


class TestCascadeResultStoreRoundTrip:
    def test_tier_fields_survive_serialization(self, code_d5):
        from repro.store.serialization import from_dict, to_dict

        result = run_memory_experiment(
            code_d5,
            PhenomenologicalNoise(2e-2),
            _CascadeFactory(THREE_TIER),
            trials=100,
            rng=3,
        )
        assert result.tier_names == THREE_TIER
        restored = from_dict(to_dict(result))
        assert restored == result
        assert restored.tier_trials == result.tier_trials
        assert isinstance(restored.tier_trials, tuple)
