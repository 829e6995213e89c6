"""Reproducible random-stream management.

Every stochastic routine in this package takes a ``numpy.random.Generator``.
This module is the bookkeeping layer on top: a seed plus integer stream
coordinates deterministically derive an independent generator, so
concurrent workers (grid cells, Monte Carlo reps, cascade replicas) can
own private streams without coordinating.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def make_generator(seed: int, *stream: int) -> np.random.Generator:
    """Derive an independent generator from a seed plus stream coordinates.

    The same (seed, *stream) tuple always yields the same draw sequence;
    distinct tuples yield statistically independent streams. Bit-exact
    output across numpy versions is not promised, only within one
    environment.
    """
    entropy = tuple(int(s) & _MASK64 for s in (seed, *stream))
    return np.random.default_rng(np.random.SeedSequence(entropy))
