"""Independent reference implementations used to cross-check the library.

Everything here is written directly from the paper's definitions with
straightforward loops — deliberately sharing no code with
``src/repro`` — so agreement between the two is meaningful evidence of
correctness.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def round_half_up(value: float) -> float:
    """Scalar half-up rounding, matching the library's convention."""
    return math.floor(value + 0.5)


def range_sum(data, low: int, high: int) -> float:
    """``sum(data[low..high])`` inclusive."""
    return float(np.sum(np.asarray(data, dtype=np.float64)[low : high + 1]))


def brute_sse(estimator, data, ranges=None) -> float:
    """SSE by looping over ranges and calling the scalar ``estimate``."""
    data = np.asarray(data, dtype=np.float64)
    n = data.size
    if ranges is None:
        ranges = [(a, b) for a in range(n) for b in range(a, n)]
    total = 0.0
    for a, b in ranges:
        total += (estimator.estimate(a, b) - range_sum(data, a, b)) ** 2
    return total


def enumerate_lefts(n: int, n_buckets: int):
    """All bucket-start vectors with exactly ``n_buckets`` non-empty buckets."""
    for interior in itertools.combinations(range(1, n), n_buckets - 1):
        yield [0, *interior]


def enumerate_lefts_at_most(n: int, max_buckets: int):
    """All bucketings with between 1 and ``max_buckets`` buckets."""
    for k in range(1, max_buckets + 1):
        yield from enumerate_lefts(n, k)


class ReferenceAverageHistogram:
    """Equation (1) answering, implemented with plain loops."""

    def __init__(self, data, lefts, rounding: str = "per_piece", values=None) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.n = self.data.size
        self.lefts = list(lefts)
        self.rights = [*[left - 1 for left in self.lefts[1:]], self.n - 1]
        if values is None:
            values = [
                self.data[a : b + 1].mean() for a, b in zip(self.lefts, self.rights)
            ]
        self.values = list(values)
        self.rounding = rounding

    def bucket_of(self, index: int) -> int:
        for bucket, left in enumerate(self.lefts):
            if index < left:
                return bucket - 1
        return len(self.lefts) - 1

    def estimate(self, low: int, high: int) -> float:
        bl = self.bucket_of(low)
        br = self.bucket_of(high)
        if bl == br:
            whole = (high - low + 1) * self.values[bl]
            return round_half_up(whole) if self.rounding != "none" else whole
        suffix = (self.rights[bl] - low + 1) * self.values[bl]
        prefix = (high - self.lefts[br] + 1) * self.values[br]
        middle = sum(
            (self.rights[i] - self.lefts[i] + 1) * self.values[i]
            for i in range(bl + 1, br)
        )
        if self.rounding == "per_piece":
            return round_half_up(suffix) + middle + round_half_up(prefix)
        if self.rounding == "total":
            return round_half_up(suffix + middle + prefix)
        return suffix + middle + prefix


class ReferenceSapHistogram:
    """SAP0/SAP1 answering with the optimal summaries, via plain loops."""

    def __init__(self, data, lefts, order: int) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.n = self.data.size
        self.lefts = list(lefts)
        self.rights = [*[left - 1 for left in self.lefts[1:]], self.n - 1]
        self.order = order
        self.averages = []
        self.suffix_fits = []
        self.prefix_fits = []
        for a, b in zip(self.lefts, self.rights):
            bucket = self.data[a : b + 1]
            self.averages.append(bucket.mean())
            suffix_sums = [range_sum(self.data, l, b) for l in range(a, b + 1)]
            suffix_lens = [b - l + 1 for l in range(a, b + 1)]
            prefix_sums = [range_sum(self.data, a, r) for r in range(a, b + 1)]
            prefix_lens = [r - a + 1 for r in range(a, b + 1)]
            self.suffix_fits.append(self._fit(suffix_lens, suffix_sums))
            self.prefix_fits.append(self._fit(prefix_lens, prefix_sums))

    def _fit(self, xs, ys):
        if self.order == 0:
            return 0.0, float(np.mean(ys))
        if len(xs) == 1:
            return 0.0, float(ys[0])
        slope, intercept = np.polyfit(np.asarray(xs, float), np.asarray(ys, float), 1)
        return float(slope), float(intercept)

    def bucket_of(self, index: int) -> int:
        for bucket, left in enumerate(self.lefts):
            if index < left:
                return bucket - 1
        return len(self.lefts) - 1

    def estimate(self, low: int, high: int) -> float:
        bl = self.bucket_of(low)
        br = self.bucket_of(high)
        if bl == br:
            return (high - low + 1) * self.averages[bl]
        s_slope, s_int = self.suffix_fits[bl]
        p_slope, p_int = self.prefix_fits[br]
        suffix = s_slope * (self.rights[bl] - low + 1) + s_int
        prefix = p_slope * (high - self.lefts[br] + 1) + p_int
        middle = sum(
            (self.rights[i] - self.lefts[i] + 1) * self.averages[i]
            for i in range(bl + 1, br)
        )
        return suffix + middle + prefix


def best_histogram_by_enumeration(data, max_buckets, make, evaluate):
    """Global optimum over all bucketings, by exhaustive enumeration.

    ``make(lefts)`` builds an estimator; ``evaluate(est)`` scores it.
    Returns ``(best_score, best_lefts)``.
    """
    n = int(np.asarray(data).size)
    best_score, best_lefts = np.inf, None
    for lefts in enumerate_lefts_at_most(n, max_buckets):
        score = evaluate(make(lefts))
        if score < best_score:
            best_score, best_lefts = score, lefts
    return best_score, best_lefts


#: Hostile ``append_rows`` payloads for a one-column table, keyed by
#: kind; each maps the column name to the rows dict.  Every kind but
#: ``"empty"`` must be rejected with ``InvalidDataError``; an empty
#: append is a no-op.  Either way no engine state may change.
HOSTILE_APPENDS = {
    "nan": lambda column: {column: [1.0, float("nan")]},
    "inf": lambda column: {column: [float("inf")]},
    "neg-inf": lambda column: {column: [2.0, float("-inf")]},
    "empty": lambda column: {column: []},
    "ragged": lambda column: {column: [[1, 2], [3]]},
    "two-dimensional": lambda column: {column: [[1, 2], [3, 4]]},
    "unknown-column": lambda column: {column: [1], "no_such_column": [1]},
    "missing-column": lambda column: {"no_such_column": [1]},
    "huge": lambda column: {column: [1e300]},
    "huge-negative": lambda column: {column: [3.0, -1e18]},
}
