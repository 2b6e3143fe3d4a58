"""Shared test kernels for the generic sharded runner.

Lives in its own importable module (not a ``test_*`` file) so the frozen
dataclass pickles by reference into pooled worker processes from every test
module that uses it.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class BernoulliKernel:
    """Minimal picklable kernel: count successes of a biased coin.

    Partial results are ``(successes, trials)`` tuples, merged by the
    runner's default elementwise sum.
    """

    rate: float

    def __call__(self, n_trials, rng):
        return (int((rng.random(n_trials) < self.rate).sum()), n_trials)


def bernoulli_successes(counts):
    """``successes_of`` extractor for :class:`BernoulliKernel` partials."""
    return counts[0]


class KernelFailure(RuntimeError):
    """The error :class:`FailingKernel` raises (module-level so it pickles)."""


@dataclass(frozen=True)
class FailingKernel:
    """Kernel whose every call raises :class:`KernelFailure`."""

    def __call__(self, n_trials, rng):
        raise KernelFailure(f"kernel failed on {n_trials} trials")
