"""Percentiles that refuse to report what the sample cannot support."""

from __future__ import annotations

import math

#: A percentile is reported only when at least this many samples lie
#: beyond it; otherwise the tail it claims to describe is a guess.
MIN_BEYOND = 10


class InsufficientSamples(ValueError):
    """Raised for a percentile with fewer than MIN_BEYOND samples beyond it."""


def min_samples(q: float) -> int:
    """Smallest sample count for which the ``q``-th percentile is reported."""
    n = 1
    while samples_beyond(n, q) < MIN_BEYOND:
        n += 1
    return n


def samples_beyond(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank ``q``-th percentile of ``n``."""
    rank = max(1, math.ceil(q / 100.0 * n))
    return n - rank


def percentile(samples, q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``samples``.

    Raises :class:`InsufficientSamples` when fewer than
    :data:`MIN_BEYOND` samples lie beyond the requested rank.
    """
    values = sorted(samples)
    n = len(values)
    beyond = samples_beyond(n, q) if n else 0
    if beyond < MIN_BEYOND:
        raise InsufficientSamples(
            f"p{q:g} needs {MIN_BEYOND} samples beyond it; "
            f"{n} samples leave {beyond}"
        )
    return float(values[max(1, math.ceil(q / 100.0 * n)) - 1])
