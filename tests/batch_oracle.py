"""Per-trial oracle for the packed batch decoders (shared test helper).

Every batched decode path must reproduce per-trial decoding bit for bit.
These helpers put both sides in one comparable shape — a
:class:`~repro.decoders.base.BatchDecodeResult` with uint8 corrections — so a
test can run a ``(trials, rounds, ancillas)`` uint8 batch through
``decode_batch_packed`` and through per-trial ``decode_history`` and compare
corrections, round counts and tier counts in one assertion.
"""

from __future__ import annotations

import numpy as np

from repro import bitplane
from repro.decoders.base import BatchDecodeResult


def decode_packed(decoder, batch: np.ndarray) -> BatchDecodeResult:
    """``decoder.decode_batch_packed`` on a uint8 batch, corrections unpacked."""
    trials = batch.shape[0]
    result = decoder.decode_batch_packed(bitplane.pack_trials(batch), trials)
    assert result.num_trials == trials
    return BatchDecodeResult(
        corrections=bitplane.unpack_trials(result.corrections, trials),
        onchip_rounds=result.onchip_rounds,
        total_rounds=result.total_rounds,
        tier_trials=result.tier_trials,
        tier_rounds=result.tier_rounds,
    )


def decode_per_trial(cascade, batch: np.ndarray) -> BatchDecodeResult:
    """The per-trial ``decode_history`` reference for a cascade decoder.

    Tier accounting follows the loop engine: a trial counts toward the
    deepest tier it reached, tier 0's rounds are the on-chip rounds, and
    tier ``k >= 1``'s rounds are the distinct rounds shipped into it.
    """
    code = cascade.code
    data_index = code.data_index
    trials = batch.shape[0]
    corrections = np.zeros((trials, code.num_data_qubits), dtype=np.uint8)
    onchip_rounds = np.zeros(trials, dtype=np.int64)
    total_rounds = np.zeros(trials, dtype=np.int64)
    tier_trials = np.zeros(cascade.num_tiers, dtype=np.int64)
    tier_rounds = np.zeros(cascade.num_tiers, dtype=np.int64)
    for trial in range(trials):
        reference = cascade.decode_history(batch[trial])
        for qubit in reference.correction:
            corrections[trial, data_index[qubit]] ^= 1
        onchip_rounds[trial] = reference.num_rounds - reference.num_offchip_rounds
        total_rounds[trial] = reference.num_rounds
        tier_trials[reference.handled_tier] += 1
        tier_rounds[0] += onchip_rounds[trial]
        for tier, count in enumerate(reference.tier_shipped_rounds, start=1):
            tier_rounds[tier] += count
    return BatchDecodeResult(
        corrections=corrections,
        onchip_rounds=onchip_rounds,
        total_rounds=total_rounds,
        tier_trials=tier_trials,
        tier_rounds=tier_rounds,
    )


def assert_same_decode(actual: BatchDecodeResult, expected: BatchDecodeResult) -> None:
    """Corrections, per-trial round counts and tier counts all agree."""
    assert np.array_equal(actual.corrections, expected.corrections)
    assert np.array_equal(actual.onchip_rounds, expected.onchip_rounds)
    assert np.array_equal(actual.total_rounds, expected.total_rounds)
    if expected.tier_trials is None:
        assert actual.tier_trials is None and actual.tier_rounds is None
    else:
        assert np.array_equal(actual.tier_trials, expected.tier_trials)
        assert np.array_equal(actual.tier_rounds, expected.tier_rounds)
