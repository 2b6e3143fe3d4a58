"""Physics oracle: below threshold, the logical error rate falls with distance.

Engine-equivalence pins prove that two paths agree, not that either is
right.  This test checks a property of the physics itself.  At p=1e-2
(below the phenomenological threshold of about 3%) and a fixed number of
noisy rounds, a larger code must fail less often.  The check covers the
default two-tier cascade, the three-tier cascade and flat MWPM.  An
identically wrong pipeline (a broken decoder, or a sampler that ignores the
distance) breaks it even when every equivalence pin still passes.

Measured at 20k trials (batch engine): ``clique,mwpm`` and
``clique,union_find,mwpm`` 0.030 / 0.0164 / 0.0060 at d = 3 / 5 / 7, flat
MWPM 0.0286 / 0.0072 / 0.0017.

The threshold itself is the second oracle.  For flat MWPM with ``rounds =
d`` the published phenomenological threshold is about 2.9-3% (Wang,
Harrington and Preskill 2003), so the d=3 and d=7 curves must cross
between a rate below it and a rate above it: d=7 fails less often than d=3
at p=2% and more often at p=4.5%.  Measured (failures d=3 / d=7, seeds
1 / 2 / 3): 149/101, 151/90, 152/97 of 4 000 trials at p=2%; 90/158,
94/188, 86/185 of 600 trials at p=4.5%.
"""

from __future__ import annotations

import pytest

from repro.clique.cascade import DecoderCascade
from repro.codes.rotated_surface import get_code
from repro.decoders.mwpm import MWPMDecoder
from repro.noise.models import PhenomenologicalNoise
from repro.simulation.memory import run_memory_experiment

ERROR_RATE = 1e-2
ROUNDS = 7
DISTANCES = (3, 5, 7)
SEED = 2


def _mwpm(code, stype):
    return MWPMDecoder(code, stype)


def _cascade(tiers):
    return lambda code, stype: DecoderCascade(code, stype, tiers=tiers)


@pytest.mark.parametrize(
    "factory, trials",
    [
        (_cascade(("clique", "mwpm")), 5_000),
        (_cascade(("clique", "union_find", "mwpm")), 5_000),
        (_mwpm, 4_000),
    ],
    ids=["clique,mwpm", "clique,union_find,mwpm", "mwpm"],
)
def test_logical_error_rate_falls_strictly_with_distance(factory, trials):
    rates = [
        run_memory_experiment(
            get_code(distance),
            PhenomenologicalNoise(ERROR_RATE),
            factory,
            trials=trials,
            rounds=ROUNDS,
            rng=SEED,
            engine="batch",
        ).logical_error_rate
        for distance in DISTANCES
    ]
    assert rates[0] > rates[1] > rates[2] > 0.0, rates


#: Rates bracketing the phenomenological MWPM threshold, with trial budgets
#: that resolve the d=3 / d=7 gap by about three standard deviations or more.
BELOW_THRESHOLD = (2e-2, 4_000)
ABOVE_THRESHOLD = (4.5e-2, 600)


def _mwpm_failures(distance, error_rate, trials):
    return run_memory_experiment(
        get_code(distance),
        PhenomenologicalNoise(error_rate),
        _mwpm,
        trials=trials,
        rounds=distance,
        rng=SEED,
        engine="batch",
    ).logical_failures


def test_mwpm_distance_ordering_flips_across_the_threshold():
    below_rate, below_trials = BELOW_THRESHOLD
    above_rate, above_trials = ABOVE_THRESHOLD
    below = [_mwpm_failures(d, below_rate, below_trials) for d in (3, 7)]
    above = [_mwpm_failures(d, above_rate, above_trials) for d in (3, 7)]
    assert below[0] > below[1], below
    assert above[0] < above[1], above
