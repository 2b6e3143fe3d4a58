"""Distribution-level correctness oracle.

Bit-identity against a frozen output would fail on any change of the RNG
stream, even a correct one.  This oracle instead checks counts against
binomial bands around reference rates recorded in ``reference.json`` (made by
``calibrate.py`` on seeds the benchmark never uses):

* the reference rate is widened to its Wilson interval at the two-sided
  level ``ALPHA`` (``k_ref`` successes out of ``n_ref``);
* an observed count ``k`` out of ``n`` passes when it lies between the
  ``ALPHA / 2`` quantile of ``Binomial(n, low)`` and the ``1 - ALPHA / 2``
  quantile of ``Binomial(n, high)``.

If the reference interval covers the true rate, a correct program fails a
check with probability at most ``ALPHA`` (the per-check false-alarm rate).
A run makes at most a few hundred checks, so a correct program trips the
oracle in fewer than one run in ten thousand.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

#: Two-sided per-check false-alarm rate.
ALPHA = 1e-7

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def load_reference() -> dict:
    with REFERENCE_PATH.open(encoding="utf-8") as handle:
        return json.load(handle)


def _z(alpha: float) -> float:
    from scipy.stats import norm

    return float(norm.isf(alpha / 2))


def wilson(successes: int, trials: int, alpha: float = ALPHA) -> tuple[float, float]:
    """Wilson score interval at two-sided level ``alpha``."""
    z = _z(alpha)
    rate = successes / trials
    denominator = 1 + z * z / trials
    centre = (rate + z * z / (2 * trials)) / denominator
    half = z * math.sqrt(rate * (1 - rate) / trials + z * z / (4 * trials * trials))
    half /= denominator
    return max(0.0, centre - half), min(1.0, centre + half)


def band(reference: dict, trials: int, alpha: float = ALPHA) -> tuple[int, int]:
    """Accepted ``[low, high]`` count range for ``trials`` draws."""
    from scipy.stats import binom

    low_rate, high_rate = wilson(reference["k"], reference["n"], alpha)
    low = int(binom.ppf(alpha / 2, trials, low_rate)) if low_rate > 0 else 0
    high = int(binom.isf(alpha / 2, trials, high_rate)) if high_rate < 1 else trials
    return low, high


def check(name: str, reference: dict, count: int, trials: int) -> dict:
    """One oracle verdict as a printable record."""
    low, high = band(reference, trials)
    return {
        "check": name,
        "count": count,
        "trials": trials,
        "band": [low, high],
        "ok": low <= count <= high,
    }
