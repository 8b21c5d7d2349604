"""Correctness references computed by the benchmark itself.

Two references, both built before timing and outside ``setup_s``:

* exact answers from the raw column, per data version (the base table
  plus the first ``k`` seeded appends), via prefix sums of the per-value
  counts;
* expected estimates from a *twin* synopsis built with the public
  :func:`repro.engine.sharding.build_sharded` and answered here by a
  plain per-shard loop over its ``estimators``, ``totals`` and
  ``starts``.  Version ``k`` of the twin rebuilds the shards that the
  ``k``-th append touched with :func:`repro.core.builders.build_by_name`
  at their original budgets, as an incremental refresh must.

Twin and program sum boundary partials in different orders, so
estimates are compared to :data:`REL_TOL` relative (plus
:data:`ABS_TOL` absolute) tolerance.  Shard-aligned ranges must equal
the exact answer to the same tolerance.
"""

from __future__ import annotations

import threading

import numpy as np

from perfbench.inputs import aligned_ranges
from repro.core.builders import build_by_name
from repro.engine.sharding import build_sharded

REL_TOL = 1e-9
ABS_TOL = 1e-6

AGGREGATES = ("count", "sum", "avg")
COUNT, SUM, AVG = range(3)


def close(actual, expected) -> np.ndarray:
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    return np.abs(actual - expected) <= ABS_TOL + REL_TOL * np.abs(expected)


class References:
    """Exact answers and twin estimates for every data version."""

    def __init__(self, base_values, appends, domain, method, half_budget, shards):
        self.domain = int(domain)
        self.method = method
        self.axis = np.arange(self.domain, dtype=np.float64)
        counts = np.bincount(np.asarray(base_values), minlength=self.domain)
        if counts.size != self.domain or counts[0] == 0 or counts[-1] == 0:
            raise ValueError("reference column must span the whole domain")
        self._counts = [counts.astype(np.float64)]
        for rows in appends:
            self._counts.append(self._counts[-1] + np.bincount(rows, minlength=self.domain))
        self._appends = [np.asarray(rows) for rows in appends]
        count_twin = build_sharded(method, self._counts[0], half_budget, shards)
        sum_twin = build_sharded(method, self._counts[0] * self.axis, half_budget, shards)
        self.starts = count_twin.starts
        self.budgets = {"count": count_twin.budgets, "sum": sum_twin.budgets}
        self.storage_words = {
            "count": count_twin.storage_words(),
            "sum": sum_twin.storage_words(),
        }
        self.estimator_type = type(count_twin.estimators[0])
        self._twins = [
            {
                "count": (list(count_twin.estimators), count_twin.totals.copy()),
                "sum": (list(sum_twin.estimators), sum_twin.totals.copy()),
            }
        ]

    @property
    def versions(self) -> int:
        return len(self._counts)

    def counts(self, version: int) -> np.ndarray:
        return self._counts[version]

    def shards_of(self, values) -> np.ndarray:
        return np.searchsorted(self.starts, np.asarray(values), side="right") - 1

    def aligned(self, lows, highs) -> np.ndarray:
        """Ranges whose both ends sit on shard boundaries."""
        return aligned_ranges(self.starts, lows, highs)

    # -- exact ----------------------------------------------------------
    def exact(self, version, aggs, lows, highs) -> np.ndarray:
        counts = self._counts[version]
        count_prefix = np.concatenate(([0.0], np.cumsum(counts)))
        sum_prefix = np.concatenate(([0.0], np.cumsum(counts * self.axis)))
        lows = np.asarray(lows, dtype=np.int64)
        highs = np.asarray(highs, dtype=np.int64)
        n = count_prefix[highs + 1] - count_prefix[lows]
        s = sum_prefix[highs + 1] - sum_prefix[lows]
        avg = np.divide(s, n, out=np.zeros_like(s), where=n > 0)
        return np.choose(np.asarray(aggs), (n, s, avg))

    # -- twin -----------------------------------------------------------
    def _twin(self, version: int) -> dict:
        while len(self._twins) <= version:
            k = len(self._twins)
            counts = self._counts[k]
            dirty = np.unique(self.shards_of(self._appends[k - 1]))
            twin = {}
            for kind, data in (("count", counts), ("sum", counts * self.axis)):
                estimators, totals = self._twins[-1][kind]
                estimators, totals = list(estimators), totals.copy()
                for shard in dirty:
                    piece = data[self.starts[shard] : self.starts[shard + 1]]
                    estimators[shard] = build_by_name(
                        self.method, piece, int(self.budgets[kind][shard])
                    )
                    totals[shard] = float(piece.sum())
                twin[kind] = (estimators, totals)
            self._twins.append(twin)
        return self._twins[version]

    def _twin_sum(self, version, kind, lows, highs) -> np.ndarray:
        """Plain per-shard loop: exact interior totals plus boundary partials."""
        estimators, totals = self._twin(version)[kind]
        starts = self.starts
        shard_lo, shard_hi = starts[:-1], starts[1:] - 1
        left = self.shards_of(lows)
        right = self.shards_of(highs)
        left_full = (lows == shard_lo[left]) & (highs >= shard_hi[left])
        right_full = (highs == shard_hi[right]) & (lows <= shard_lo[right])
        prefix = np.concatenate(([0.0], np.cumsum(totals)))
        first = np.where(left_full, left, left + 1)
        last = np.where(right_full, right, right - 1)
        out = np.where(first <= last, prefix[last + 1] - prefix[first], 0.0)
        left_part = ~left_full
        right_part = ~right_full & (right != left)
        shard = np.concatenate((left[left_part], right[right_part]))
        local_lo = np.concatenate(
            (lows[left_part] - shard_lo[left[left_part]], np.zeros(int(right_part.sum()), np.int64))
        )
        local_hi = np.concatenate(
            (
                np.minimum(highs[left_part], shard_hi[left[left_part]]) - shard_lo[left[left_part]],
                highs[right_part] - shard_lo[right[right_part]],
            )
        )
        position = np.concatenate((np.nonzero(left_part)[0], np.nonzero(right_part)[0]))
        order = np.argsort(shard, kind="stable")
        bounds = np.searchsorted(shard[order], np.arange(len(estimators) + 1))
        for index in range(len(estimators)):
            chosen = order[bounds[index] : bounds[index + 1]]
            if chosen.size:
                out[position[chosen]] += np.asarray(
                    estimators[index].estimate_many(local_lo[chosen], local_hi[chosen]),
                    dtype=np.float64,
                )
        return out

    def expected(self, version, aggs, lows, highs) -> np.ndarray:
        """The twin's estimates for ``aggs`` over inclusive value ranges."""
        aggs = np.asarray(aggs)
        lows = np.asarray(lows, dtype=np.int64)
        highs = np.asarray(highs, dtype=np.int64)
        n = self._twin_sum(version, "count", lows, highs)
        out = n.copy()
        wants_sum = aggs != COUNT
        if wants_sum.any():
            s = self._twin_sum(version, "sum", lows[wants_sum], highs[wants_sum])
            n_sub = n[wants_sum]
            avg = np.divide(s, n_sub, out=np.zeros_like(s), where=n_sub > 0)
            out[wants_sum] = np.where(aggs[wants_sum] == SUM, s, avg)
        return out


class Ledger:
    """Operations attempted and failed, with the first few failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.examples: list[str] = []
        self._lock = threading.Lock()

    def record(self, attempted: int, failed: int, what: str = "") -> None:
        with self._lock:
            self.attempted += int(attempted)
            self.failed += int(failed)
            if failed and len(self.examples) < 8:
                self.examples.append(f"{failed} x {what}")

    def check(self, ok, what: str) -> None:
        ok = np.asarray(ok, dtype=bool)
        self.record(ok.size, int(ok.size - ok.sum()), what)


def check_read_only(ledger, refs, version, aggs, lows, highs, estimates, fresh) -> None:
    """Answers of a read-only phase: tagged fresh, twin-equal, aligned exact."""
    aggs = np.asarray(aggs)
    lows = np.asarray(lows, dtype=np.int64)
    highs = np.asarray(highs, dtype=np.int64)
    estimates = np.asarray(estimates, dtype=np.float64)
    ok = np.asarray(fresh, dtype=bool) & close(estimates, refs.expected(version, aggs, lows, highs))
    aligned = refs.aligned(lows, highs)
    if aligned.any():
        exact = refs.exact(version, aggs[aligned], lows[aligned], highs[aligned])
        ok[aligned] &= close(estimates[aligned], exact)
    ledger.check(ok, "read-only answer not fresh or not equal to the twin/exact reference")
