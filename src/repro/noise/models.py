"""Noise models used for benchmarking the decoders.

The paper's evaluation (Section 6.1) uses the *phenomenological* model: each
cycle injects independent errors on every data qubit with probability ``p``
and flips every syndrome measurement with the same probability ``p``.  A
*code-capacity* variant (no measurement errors) is provided for unit tests
and for the lookup-table cross-validation decoder.

Memory-experiment histories are sampled by *skip sampling* (as in Stim,
Gidney arXiv 2103.02202): at realistic rates almost every (trial, round,
qubit) cell is clear, so instead of one uniform per cell the sampler draws
the i.i.d. ``Geometric(p)`` gaps between consecutive set cells and scatters
each set cell straight into the packed bitplanes — O(set bits) variates
rather than O(cells).  The output is *distribution-identical* to
independent ``Bernoulli(p)`` cells, not bit-identical to the per-vector
samplers; ``tests/noise/test_skip_sampler.py`` holds that contract.
Subclasses that customise a per-vector hook keep the dense per-vector
stream (see :meth:`NoiseModel.sample_history`).
"""

from __future__ import annotations

import abc
import math

import numpy as np

from repro import bitplane
from repro.codes.rotated_surface import RotatedSurfaceCode
from repro.exceptions import InvalidProbabilityError
from repro.noise.events import CycleErrors, vector_to_errors
from repro.noise.rng import make_rng
from repro.types import StabilizerType

#: Trials per skip-sampling tile in :meth:`NoiseModel.sample_history_packed`.
#: The gap walk restarts at every tile boundary, so a draw of ``n`` trials is
#: exactly the concatenation of its tiles' draws: splitting a run into chunks
#: whose boundaries fall on tile boundaries never changes the stream.  The
#: batch engine aligns its chunks to this tile and the loop engine samples
#: tile by tile, which is what keeps the two bit-identical.  Four words: each
#: tile pays a few fixed numpy calls, and at d=13, p=1e-3 a 2048-trial draw
#: took 1.1-1.5 ms with one-word tiles against 0.54-0.56 ms with four-word
#: tiles (2-CPU x86 host), while larger tiles gained nothing more.
PACKED_SAMPLE_TILE = 4 * bitplane.WORD_BITS

#: Identifies the history sampler's stream in result-store keys: stored
#: memory-experiment counts are only reusable under the same sampler.
SAMPLER_STREAM = f"skip-geometric/tile-{PACKED_SAMPLE_TILE}"

def _skip_sample(rng: np.random.Generator, cells: int, p: float) -> np.ndarray:
    """Sorted indices of the set cells among ``cells`` i.i.d. ``Bernoulli(p)`` cells.

    The gaps between consecutive set cells are i.i.d. ``Geometric(p)``, so
    the walk draws gaps in batches sized to cover the row with overwhelming
    probability (about ``cells * p`` plus four standard deviations) and
    draws another batch in the rare case the row is not yet covered; gaps
    past the end of the row are discarded.  ``p == 0`` draws nothing.
    """
    if p == 0.0 or cells == 0:
        return np.zeros(0, dtype=np.int64)
    mean = cells * p
    batch = int(mean + 4.0 * math.sqrt(mean) + 8)
    positions = np.cumsum(rng.geometric(p, batch)) - 1
    while positions[-1] < cells:
        more = positions[-1] + np.cumsum(rng.geometric(p, batch))
        positions = np.concatenate([positions, more])
    return positions[: np.searchsorted(positions, cells)]


def _scatter_set_cells(
    planes: np.ndarray, trial_ids: np.ndarray, plane_ids: np.ndarray
) -> None:
    """Set bit ``trial_ids[i]`` of flattened plane ``plane_ids[i]``, in place.

    ``planes`` is a C-contiguous ``(*rest, words)`` uint64 array; the byte
    view keeps the scatter endian-independent (see :mod:`repro.bitplane`).
    """
    row_bytes = planes.shape[-1] * 8
    as_bytes = planes.reshape(-1).view(np.uint8)
    np.bitwise_or.at(
        as_bytes,
        plane_ids * row_bytes + (trial_ids >> 3),
        np.left_shift(1, trial_ids & 7).astype(np.uint8),
    )


def _validate_probability(name: str, value: float) -> float:
    if not isinstance(value, (int, float)) or not 0.0 <= float(value) <= 1.0:
        raise InvalidProbabilityError(name, value)
    return float(value)


class NoiseModel(abc.ABC):
    """Interface for per-cycle error sampling against a surface code."""

    @property
    @abc.abstractmethod
    def data_error_rate(self) -> float:
        """Per-cycle, per-data-qubit error probability."""

    @property
    @abc.abstractmethod
    def measurement_error_rate(self) -> float:
        """Per-cycle, per-ancilla measurement flip probability."""

    def sample_data_vector(
        self,
        code: RotatedSurfaceCode,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Binary vector of new data errors for one cycle (``code.data_qubits`` order)."""
        return (
            rng.random(code.num_data_qubits) < self.data_error_rate
        ).astype(np.uint8)

    def sample_measurement_vector(
        self,
        code: RotatedSurfaceCode,
        stype: StabilizerType,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Binary vector of measurement flips for the ancillas of one type."""
        return (
            rng.random(code.num_ancillas_of_type(stype)) < self.measurement_error_rate
        ).astype(np.uint8)

    # ------------------------------------------------------------------
    # Batched sampling (the Monte-Carlo engines' hot path)
    # ------------------------------------------------------------------
    def sample_data_matrix(
        self,
        code: RotatedSurfaceCode,
        num_samples: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Binary matrix of fresh data errors, shape ``(num_samples, num_data_qubits)``.

        Row ``i`` is distributed identically to :meth:`sample_data_vector`;
        the whole matrix costs a single RNG call.
        """
        return (
            rng.random((num_samples, code.num_data_qubits)) < self.data_error_rate
        ).astype(np.uint8)

    def sample_measurement_matrix(
        self,
        code: RotatedSurfaceCode,
        stype: StabilizerType,
        num_samples: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Binary matrix of measurement flips, shape ``(num_samples, num_ancillas)``."""
        return (
            rng.random((num_samples, code.num_ancillas_of_type(stype)))
            < self.measurement_error_rate
        ).astype(np.uint8)

    def _overrides_vector_hooks(self) -> bool:
        return (
            type(self).sample_data_vector is not NoiseModel.sample_data_vector
            or type(self).sample_measurement_vector
            is not NoiseModel.sample_measurement_vector
        )

    def sample_history(
        self,
        code: RotatedSurfaceCode,
        stype: StabilizerType,
        trials: int,
        rounds: int,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sample full error histories for a batch of memory-experiment trials.

        Returns ``(data_errors, measurement_flips)`` with shapes
        ``(trials, rounds, num_data_qubits)`` and
        ``(trials, rounds, num_ancillas)``.

        For models that keep the base per-vector hooks this is
        ``bitplane.unpack_trials`` of :meth:`sample_history_packed` on the
        same generator — one sampler, two layouts — which is how the loop
        engine (sampling tile by tile through this method) consumes exactly
        the stream of the batch engine.

        A subclass that customises :meth:`sample_data_vector` or
        :meth:`sample_measurement_vector` (correlated noise, biased channels,
        ...) instead gets the dense per-vector path: ``trials * rounds``
        sequential data/measurement call pairs, in trial-major order, so its
        physics and its exact RNG stream are honoured on every engine.
        """
        if not self._overrides_vector_hooks():
            data_planes, flip_planes = self.sample_history_packed(
                code, stype, trials, rounds, rng
            )
            return (
                bitplane.unpack_trials(data_planes, trials),
                bitplane.unpack_trials(flip_planes, trials),
            )
        num_data = code.num_data_qubits
        num_ancillas = code.num_ancillas_of_type(stype)
        data_errors = np.empty((trials, rounds, num_data), dtype=np.uint8)
        measurement_flips = np.empty((trials, rounds, num_ancillas), dtype=np.uint8)
        for trial in range(trials):
            for round_index in range(rounds):
                data_errors[trial, round_index] = self.sample_data_vector(code, rng)
                measurement_flips[trial, round_index] = (
                    self.sample_measurement_vector(code, stype, rng)
                )
        return data_errors, measurement_flips

    def sample_history_packed(
        self,
        code: RotatedSurfaceCode,
        stype: StabilizerType,
        trials: int,
        rounds: int,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sample error histories directly into uint64 bitplanes.

        Returns ``(data_planes, flip_planes)`` with shapes
        ``(rounds, num_data_qubits, words)`` and ``(rounds, num_ancillas,
        words)`` where ``words = ceil(trials / 64)``; the ragged tail of the
        last word stays zero.

        The fast path skip-samples each tile of :data:`PACKED_SAMPLE_TILE`
        trials: it walks the tile's data cells (at :attr:`data_error_rate`),
        then its measurement cells (at :attr:`measurement_error_rate`), each
        in trial-major ``(trial, round, qubit)`` order, drawing the
        ``Geometric(p)`` gaps between set cells and OR-ing every set cell
        into its plane.  Cells are therefore i.i.d. ``Bernoulli(p)``
        (distribution-identical to the per-vector samplers), a rate of 0
        draws nothing, and a draw of ``n`` trials is the concatenation of
        its tiles' draws.

        Subclasses that override any sampling hook fall back to
        :meth:`sample_history` + pack, so custom physics keeps its exact
        stream on the packed engine too.
        """
        if (
            type(self).sample_history is not NoiseModel.sample_history
            or self._overrides_vector_hooks()
        ):
            data_errors, measurement_flips = self.sample_history(
                code, stype, trials, rounds, rng
            )
            return (
                bitplane.pack_trials(data_errors),
                bitplane.pack_trials(measurement_flips),
            )
        words = bitplane.num_words(trials)
        fields = (
            (code.num_data_qubits, self.data_error_rate),
            (code.num_ancillas_of_type(stype), self.measurement_error_rate),
        )
        # Set cells as indices into the whole draw's trial-major cell order:
        # a tile's walk starts at its first trial's first cell.
        hits: tuple[list, list] = ([], [])
        for start in range(0, trials, PACKED_SAMPLE_TILE):
            tile = min(PACKED_SAMPLE_TILE, trials - start)
            for found, (width, rate) in zip(hits, fields):
                cells = _skip_sample(rng, tile * rounds * width, rate)
                found.append(start * rounds * width + cells)
        planes = []
        for found, (width, _rate) in zip(hits, fields):
            trial_ids, plane_ids = np.divmod(np.concatenate(found), rounds * width)
            field = np.zeros((rounds, width, words), dtype=np.uint64)
            _scatter_set_cells(field, trial_ids, plane_ids)
            planes.append(field)
        return planes[0], planes[1]

    def sample_cycle(
        self,
        code: RotatedSurfaceCode,
        stype: StabilizerType,
        rng: np.random.Generator | int | None = None,
    ) -> CycleErrors:
        """Sample one cycle of errors and return them in coordinate form."""
        generator = make_rng(rng)
        data_vector = self.sample_data_vector(code, generator)
        meas_vector = self.sample_measurement_vector(code, stype, generator)
        ancilla_coords = tuple(a.coord for a in code.ancillas(stype))
        return CycleErrors(
            data_errors=vector_to_errors(data_vector, code.data_qubits),
            measurement_errors=vector_to_errors(meas_vector, ancilla_coords),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(data={self.data_error_rate}, "
            f"measurement={self.measurement_error_rate})"
        )


class PhenomenologicalNoise(NoiseModel):
    """Data and measurement errors, each with (by default the same) probability ``p``.

    Args:
        data_error_rate: per-cycle, per-data-qubit error probability ``p``.
        measurement_error_rate: per-cycle, per-measurement flip probability;
            defaults to ``data_error_rate`` exactly as in the paper.
    """

    def __init__(
        self,
        data_error_rate: float,
        measurement_error_rate: float | None = None,
    ) -> None:
        self._data = _validate_probability("data_error_rate", data_error_rate)
        if measurement_error_rate is None:
            measurement_error_rate = data_error_rate
        self._measurement = _validate_probability(
            "measurement_error_rate", measurement_error_rate
        )

    @property
    def data_error_rate(self) -> float:
        return self._data

    @property
    def measurement_error_rate(self) -> float:
        return self._measurement


class CodeCapacityNoise(NoiseModel):
    """Data errors only; syndrome measurements are perfect.

    Useful for unit tests and for validating decoders against the small-code
    lookup table, where the absence of measurement errors makes exhaustive
    enumeration tractable.
    """

    def __init__(self, data_error_rate: float) -> None:
        self._data = _validate_probability("data_error_rate", data_error_rate)

    @property
    def data_error_rate(self) -> float:
        return self._data

    @property
    def measurement_error_rate(self) -> float:
        return 0.0


__all__ = [
    "PACKED_SAMPLE_TILE",
    "SAMPLER_STREAM",
    "NoiseModel",
    "PhenomenologicalNoise",
    "CodeCapacityNoise",
]
