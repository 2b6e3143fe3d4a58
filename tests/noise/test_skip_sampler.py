"""Distribution-level contract for the skip sampler of ``sample_history_packed``.

The sampler draws ``Geometric(p)`` gaps between set cells instead of one
uniform per cell, so it is *not* bit-identical to the per-vector samplers —
it promises cells that are i.i.d. ``Bernoulli(p)``.  Bit-identity against a
frozen output cannot check that promise; these tests check it directly:

* every statistical check compares a count against the two-sided binomial
  band at level ``ALPHA`` around the count's exact distribution under the
  contract (the band logic of ``perfbench/oracle.py``, with the exact rate
  in place of a Wilson-widened reference rate);
* a correct sampler therefore fails any single check with probability at
  most ``ALPHA`` = 1e-6 (the per-check false-alarm rate); this module makes
  about 500 such checks, so a correct sampler trips it on a fresh seed
  about once in 2 000 runs — and the seeds below are fixed, so tier-1
  never flakes;
* ``TestOracleBites`` proves the bands are tight enough to reject a sampler
  whose rate is 10% off or whose cells are pairwise correlated.

The exact, non-statistical parts of the contract — ``p = 0`` draws nothing,
``p = 1`` sets every cell, the ragged tail stays zero, tile-aligned chunking
never changes the stream, and base models take the O(set bits) fast path —
are asserted exactly.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.stats import binom

from repro import bitplane
from repro.codes.rotated_surface import get_code
from repro.noise.models import (
    PACKED_SAMPLE_TILE,
    CodeCapacityNoise,
    PhenomenologicalNoise,
)
from repro.types import StabilizerType

#: Two-sided per-check false-alarm rate of every binomial band below.
ALPHA = 1e-6

STYPE = StabilizerType.X


def band(trials: int, rate: float, alpha: float = ALPHA) -> tuple[int, int]:
    """Accepted ``[low, high]`` range for a ``Binomial(trials, rate)`` count."""
    low = int(binom.ppf(alpha / 2, trials, rate)) if rate > 0 else 0
    high = int(binom.isf(alpha / 2, trials, rate)) if rate < 1 else trials
    return low, high


def in_band(count: int, trials: int, rate: float) -> bool:
    low, high = band(trials, rate)
    return low <= count <= high


def sample_unpacked(noise, code, trials, rounds, seed):
    """Packed draw, unpacked to ``(trials, rounds, qubits)`` 0/1 tensors."""
    data_planes, flip_planes = noise.sample_history_packed(
        code, STYPE, trials, rounds, np.random.default_rng(seed)
    )
    return (
        bitplane.unpack_trials(data_planes, trials),
        bitplane.unpack_trials(flip_planes, trials),
    )


def marginal_violations(bits: np.ndarray, rate: float) -> list[tuple]:
    """(round, qubit) cells whose set count leaves its Binomial band."""
    trials = bits.shape[0]
    counts = bits.sum(axis=0, dtype=np.int64)
    return [
        (index, int(count))
        for index, count in np.ndenumerate(counts)
        if not in_band(int(count), trials, rate)
    ]


def pair_count(bits: np.ndarray, offset: int) -> tuple[int, int]:
    """Both-set count over disjoint adjacent pairs of the trial-major cell walk.

    Pairs are cells ``(2i + offset, 2i + 1 + offset)`` of the field
    flattened in ``(trial, round, qubit)`` order — the order the gap walk
    visits them, so some pairs straddle round, trial and tile boundaries.
    Disjoint pairs make the count exactly ``Binomial(pairs, p**2)`` under
    independence.
    """
    walk = bits.reshape(-1).astype(np.int64)
    walk = walk[offset:]
    usable = walk.size - walk.size % 2
    pairs = walk[:usable].reshape(-1, 2)
    return int((pairs[:, 0] & pairs[:, 1]).sum()), pairs.shape[0]


class CountingGenerator:
    """A ``numpy.random.Generator`` stand-in that counts the variates drawn."""

    def __init__(self, seed: int) -> None:
        self._rng = np.random.default_rng(seed)
        self.variates = 0

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            out = method(*args, **kwargs)
            self.variates += int(np.size(out))
            return out

        return counted


class DenseStreamNoise(PhenomenologicalNoise):
    """Overrides a per-vector hook (with ``super()``), forcing the dense path."""

    def sample_data_vector(self, code, rng):
        return super().sample_data_vector(code, rng)


class TestMarginals:
    @pytest.mark.parametrize("distance,rate", [(3, 0.05), (5, 2e-2)])
    def test_per_round_qubit_marginals_are_binomial(self, distance, rate):
        code = get_code(distance)
        data, flips = sample_unpacked(
            PhenomenologicalNoise(rate), code, 20_000, distance, seed=101
        )
        assert marginal_violations(data, rate) == []
        assert marginal_violations(flips, rate) == []

    @pytest.mark.parametrize("rate", [1e-3, 2e-2])
    def test_per_trial_set_bit_counts_are_binomial(self, rate):
        # Each trial's total set bits must be Binomial(cells, p): every count
        # value with a non-negligible expected population is checked as a
        # Binomial(trials, pmf(k)) count, plus the two tails it leaves out.
        code = get_code(5)
        trials, rounds = 20_000, 5
        data, flips = sample_unpacked(
            PhenomenologicalNoise(rate), code, trials, rounds, seed=202
        )
        cells = rounds * (data.shape[2] + flips.shape[2])
        per_trial = data.sum(axis=(1, 2)) + flips.sum(axis=(1, 2))
        histogram = np.bincount(per_trial, minlength=cells + 1)
        pmf = binom.pmf(np.arange(cells + 1), cells, rate)
        checked = np.flatnonzero(pmf * trials >= 5)
        assert checked.size >= 2
        for k in checked:
            assert in_band(int(histogram[k]), trials, float(pmf[k])), k
        below = int(histogram[: checked[0]].sum())
        above = int(histogram[checked[-1] + 1 :].sum())
        assert in_band(below, trials, float(pmf[: checked[0]].sum()))
        assert in_band(above, trials, float(pmf[checked[-1] + 1 :].sum()))

    @pytest.mark.parametrize("offset", [0, 1])
    def test_adjacent_cells_are_independent(self, offset):
        # A large rate gives the pair count real power; both pair offsets
        # together cover every adjacency of the walk, including the ones
        # that straddle round, trial and tile boundaries.
        rate = 0.2
        code = get_code(3)
        data, flips = sample_unpacked(
            PhenomenologicalNoise(rate), code, 3 * PACKED_SAMPLE_TILE + 40, 3, seed=303
        )
        for bits in (data, flips):
            both, pairs = pair_count(bits, offset)
            assert in_band(both, pairs, rate * rate)

    def test_tile_boundary_pairs_are_independent(self):
        # The gap walk restarts at each tile: the last cell of a tile and the
        # first cell of the next must still be independent Bernoulli(p).
        rate = 0.3
        code = get_code(3)
        tiles = 400
        data, _flips = sample_unpacked(
            PhenomenologicalNoise(rate), code, tiles * PACKED_SAMPLE_TILE, 3, seed=304
        )
        walk = data.reshape(tiles, -1)
        last, first = walk[:-1, -1].astype(np.int64), walk[1:, 0].astype(np.int64)
        assert in_band(int(last.sum()), tiles - 1, rate)
        assert in_band(int(first.sum()), tiles - 1, rate)
        assert in_band(int((last & first).sum()), tiles - 1, rate * rate)


class TestRates:
    def test_data_and_measurement_rates_are_independent(self):
        code = get_code(5)
        trials, rounds = 4_000, 5
        data, flips = sample_unpacked(
            PhenomenologicalNoise(0.05, 0.01), code, trials, rounds, seed=404
        )
        assert in_band(int(data.sum()), data.size, 0.05)
        assert in_band(int(flips.sum()), flips.size, 0.01)
        assert marginal_violations(data, 0.05) == []
        assert marginal_violations(flips, 0.01) == []

    def test_code_capacity_draws_no_flips(self):
        code = get_code(5)
        generator = CountingGenerator(505)
        data_planes, flip_planes = CodeCapacityNoise(0.05).sample_history_packed(
            code, STYPE, 1_000, 5, generator
        )
        assert not flip_planes.any()
        data = bitplane.unpack_trials(data_planes, 1_000)
        assert in_band(int(data.sum()), data.size, 0.05)
        # Only the data field was walked: about one gap per set data cell.
        assert generator.variates < 2 * int(data.sum())

    def test_zero_rate_draws_nothing(self):
        generator = CountingGenerator(606)
        data_planes, flip_planes = PhenomenologicalNoise(0.0).sample_history_packed(
            get_code(5), STYPE, 700, 5, generator
        )
        assert generator.variates == 0
        assert not data_planes.any() and not flip_planes.any()

    def test_unit_rate_sets_every_cell(self):
        code = get_code(3)
        trials = 130
        data_planes, flip_planes = PhenomenologicalNoise(1.0).sample_history_packed(
            code, STYPE, trials, 3, np.random.default_rng(707)
        )
        mask = bitplane.trial_mask_words(trials)
        assert np.array_equal(data_planes, np.broadcast_to(mask, data_planes.shape))
        assert np.array_equal(flip_planes, np.broadcast_to(mask, flip_planes.shape))


class TestLayout:
    @pytest.mark.parametrize("trials", [1, 63, 65, PACKED_SAMPLE_TILE + 7])
    @pytest.mark.parametrize("rate", [0.5, 1.0])
    def test_ragged_tail_stays_zero(self, trials, rate):
        data_planes, flip_planes = PhenomenologicalNoise(rate).sample_history_packed(
            get_code(3), STYPE, trials, 3, np.random.default_rng(808)
        )
        padding = ~bitplane.trial_mask_words(trials)
        assert data_planes.shape[-1] == bitplane.num_words(trials)
        assert not (data_planes & padding).any()
        assert not (flip_planes & padding).any()

    def test_tile_aligned_chunkings_draw_the_same_stream(self):
        code = get_code(5)
        noise = PhenomenologicalNoise(2e-2)
        trials = 4 * PACKED_SAMPLE_TILE + 37

        def draw(sizes):
            rng = np.random.default_rng(909)
            parts = [noise.sample_history_packed(code, STYPE, n, 5, rng) for n in sizes]
            return tuple(np.concatenate(field, axis=-1) for field in zip(*parts))

        tile = PACKED_SAMPLE_TILE
        whole = draw([trials])
        for sizes in ([tile] * 4 + [37], [2 * tile, tile, tile + 37], [3 * tile, tile + 37]):
            chunked = draw(sizes)
            assert all(np.array_equal(a, b) for a, b in zip(whole, chunked)), sizes

    def test_short_gap_batches_are_topped_up(self):
        # Gap batches are sized for the rate, so a run of short gaps needs
        # more batches: the walk must continue from its last set cell.  A
        # generator whose every gap is 1 sets every cell whatever the rate.
        class AllGapsOne:
            def geometric(self, p, size):
                return np.ones(size, dtype=np.int64)

        trials = PACKED_SAMPLE_TILE + 9
        data_planes, flip_planes = PhenomenologicalNoise(0.01).sample_history_packed(
            get_code(3), STYPE, trials, 3, AllGapsOne()
        )
        mask = bitplane.trial_mask_words(trials)
        assert np.array_equal(data_planes, np.broadcast_to(mask, data_planes.shape))
        assert np.array_equal(flip_planes, np.broadcast_to(mask, flip_planes.shape))


class TestFastPath:
    def test_base_model_draws_order_set_bits_not_cells(self):
        # One engine chunk at the memory-lowp shape (d=13, p=1e-3): the
        # per-cell sampler drew ~6.7M uniforms; skip sampling draws about one
        # gap per set cell plus a bounded per-tile overdraw.
        code = get_code(13)
        trials, rounds = 2048, 13
        cells = trials * rounds * (code.num_data_qubits + code.num_ancillas_of_type(STYPE))
        generator = CountingGenerator(1001)
        data_planes, flip_planes = PhenomenologicalNoise(1e-3).sample_history_packed(
            code, STYPE, trials, rounds, generator
        )
        set_bits = bitplane.popcount(data_planes) + bitplane.popcount(flip_planes)
        assert in_band(set_bits, cells, 1e-3)
        assert generator.variates < 2 * set_bits
        assert generator.variates < cells // 100

    def test_vector_hook_override_keeps_the_dense_stream(self):
        code = get_code(3)
        trials, rounds = 70, 3
        cells = trials * rounds * (code.num_data_qubits + code.num_ancillas_of_type(STYPE))
        generator = CountingGenerator(1002)
        DenseStreamNoise(1e-3).sample_history_packed(code, STYPE, trials, rounds, generator)
        assert generator.variates == cells


class TestOracleBites:
    """The bands above must reject plausible sampler bugs, not just pass."""

    def test_a_ten_percent_rate_error_leaves_the_marginal_band(self):
        code = get_code(3)
        trials, rounds = 20_000, 3
        data, _flips = sample_unpacked(
            PhenomenologicalNoise(0.055), code, trials, rounds, seed=1101
        )
        assert not in_band(int(data.sum()), data.size, 0.05)

    def test_duplicated_neighbours_leave_the_pair_band(self):
        # A walk that sets cells in adjacent pairs keeps every marginal but
        # must fail the pair-independence check.
        rate = 0.2
        rng = np.random.default_rng(1102)
        halves = (rng.random((2_000, 3, 5)) < rate).astype(np.uint8)
        bits = np.repeat(halves, 2, axis=2)
        both, pairs = pair_count(bits, 0)
        assert not in_band(both, pairs, rate * rate)
