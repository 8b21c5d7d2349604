"""The engine's answering path: grouped, vectorised range aggregates.

Every 1-D range aggregate the engine answers goes through
:meth:`BatchExecutionMixin._answer_groups`, as in the paper, where every
range ``s[a, b]`` is answered by one procedure over one synopsis.
:meth:`BatchExecutionMixin.execute_batch` hands it a whole batch;
:meth:`~repro.engine.engine.ApproximateQueryEngine.execute` hands it a
batch of one.  Queries are grouped by ``(table, column, aggregate)``;
each group resolves the serving ladder once, is clipped to the synopsis
domain with one vectorised call, and is answered with one
:meth:`~repro.queries.estimators.RangeSumEstimator.estimate_many` call.
Exact answers (when requested) come from one sort plus vectorised
binary search per group.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.errors import InvalidQueryError


def _as_bounds(values, fill: float) -> np.ndarray:
    """Bound array with open endpoints (``None``/NaN) replaced by ``fill``."""
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise InvalidQueryError("batch bounds must be 1-D arrays")
    if arr.dtype.kind not in "fiu":
        arr = np.array(
            [fill if value is None else float(value) for value in arr.tolist()],
            dtype=np.float64,
        )
    else:
        arr = arr.astype(np.float64)
        arr = np.where(np.isnan(arr), fill, arr)
    return arr


@dataclass(frozen=True)
class BatchQuery:
    """A homogeneous batch of range aggregates over one column.

    ``lows``/``highs`` are parallel arrays of inclusive raw-value
    bounds; ``None``/NaN entries (normalised to ``-inf``/``+inf``) mean
    unbounded on that side.  ``aggregate`` is one of ``count``, ``sum``,
    ``avg`` and applies to every query in the batch.
    """

    table: str
    column: str
    aggregate: str
    lows: np.ndarray
    highs: np.ndarray

    def __post_init__(self) -> None:
        from repro.engine.engine import SUPPORTED_AGGREGATES

        if self.aggregate not in SUPPORTED_AGGREGATES:
            raise InvalidQueryError(
                f"aggregate must be one of {SUPPORTED_AGGREGATES}, got {self.aggregate!r}"
            )
        lows = _as_bounds(self.lows, -np.inf)
        highs = _as_bounds(self.highs, np.inf)
        if lows.shape != highs.shape:
            raise InvalidQueryError("lows and highs must be parallel arrays")
        inverted = np.nonzero(lows > highs)[0]
        if inverted.size:
            first = int(inverted[0])
            raise InvalidQueryError(
                f"BETWEEN bounds are inverted at position {first}: "
                f"[{lows[first]}, {highs[first]}]"
            )
        object.__setattr__(self, "lows", lows)
        object.__setattr__(self, "highs", highs)

    def __len__(self) -> int:
        return int(self.lows.size)

    def queries(self) -> list:
        """The batch as individual :class:`AggregateQuery` objects."""
        from repro.engine.engine import AggregateQuery

        return [
            AggregateQuery(
                table=self.table,
                column=self.column,
                aggregate=self.aggregate,
                low=None if low == -np.inf else low,
                high=None if high == np.inf else high,
            )
            for low, high in zip(self.lows.tolist(), self.highs.tolist())
        ]


def _estimate_group(
    entry, aggregate: str, low_idx: np.ndarray, high_idx: np.ndarray, valid: np.ndarray
) -> np.ndarray:
    """Synopsis estimates for one homogeneous group, fully vectorised.

    ``low_idx``/``high_idx`` are the clipped indices of the ``valid``
    queries; queries that select no domain value estimate 0.
    """
    estimates = np.zeros(valid.shape, dtype=np.float64)
    if not low_idx.size:
        return estimates
    if aggregate == "count":
        estimates[valid] = entry.count_estimator.estimate_many(low_idx, high_idx)
    elif aggregate == "sum":
        estimates[valid] = entry.sum_estimator.estimate_many(low_idx, high_idx)
    else:  # avg
        counts = np.asarray(
            entry.count_estimator.estimate_many(low_idx, high_idx), dtype=np.float64
        )
        totals = np.asarray(
            entry.sum_estimator.estimate_many(low_idx, high_idx), dtype=np.float64
        )
        estimates[valid] = np.divide(
            totals, counts, out=np.zeros_like(totals), where=counts > 0
        )
    return estimates


def _bound_group(
    entry, aggregate: str, low_idx: np.ndarray, high_idx: np.ndarray, valid: np.ndarray
) -> list:
    """Guaranteed error bounds for one group (``None`` where unavailable)."""
    bounds = [None] * int(valid.size)
    if aggregate == "avg" or not low_idx.size:
        return bounds
    envelope, estimator = entry.envelope_for(aggregate)
    if envelope is None:
        return bounds
    values = envelope.bound(estimator, low_idx, high_idx).tolist()
    for offset, value in zip(np.nonzero(valid)[0].tolist(), values):
        bounds[offset] = value
    return bounds


class BatchExecutionMixin:
    """The engine's answering path; mixed into the engine.

    Relies on the host class providing ``self.table(name)``, option
    validation (``self._answer_options``), the 1-D synopsis catalog
    with ``self._resolve_with_policy``, the audit and shard-accounting
    helpers, and the ``self._stats`` counters initialised in
    ``__init__``.
    """

    def execute_batch(
        self,
        queries,
        *,
        with_exact: bool = False,
        on_stale: str = "serve",
        audit_rate: float = 0.0,
        degradation=None,
    ) -> list:
        """Answer many aggregates at once; results parallel the input.

        ``queries`` is either a :class:`BatchQuery` or any iterable of
        :class:`~repro.engine.engine.AggregateQuery`.  Queries are
        grouped by (table, column, aggregate) and each group is answered
        with one vectorised synopsis call; ``with_exact`` computes every
        group's ground truth from a single sorted scan of the column.
        ``on_stale`` and ``audit_rate`` have
        :meth:`~repro.engine.engine.ApproximateQueryEngine.execute`
        semantics; auditing samples each group vectorised and never
        changes the returned results.

        ``degradation`` (a policy or preset name, as in ``execute``)
        resolves each *group* down the serving ladder instead of
        applying ``on_stale``: fresh synopsis -> stale synopsis ->
        fallback estimator -> exact scan.  Every result is tagged with
        its group's serving level.
        """
        from repro.engine.engine import AggregateQuery

        policy, audit_rate = self._answer_options(on_stale, audit_rate, degradation)
        if isinstance(queries, BatchQuery):
            query_list = queries.queries()
        else:
            query_list = list(queries)
            for query in query_list:
                if not isinstance(query, AggregateQuery):
                    raise InvalidQueryError(
                        "execute_batch takes AggregateQuery items or a BatchQuery, "
                        f"got {type(query).__name__}"
                    )
        start = time.perf_counter()
        groups: dict[tuple[str, str, str], list[int]] = {}
        for position, query in enumerate(query_list):
            groups.setdefault(
                (query.table, query.column, query.aggregate), []
            ).append(position)
        with self.tracer.span(
            "batch", queries=len(query_list), groups=len(groups)
        ):
            results = self._answer_groups(
                query_list,
                groups,
                policy,
                on_stale=on_stale,
                with_exact=with_exact,
                with_bound=False,
                audit_rate=audit_rate,
            )
        elapsed = time.perf_counter() - start
        with self._stats_lock:
            self._stats["batches"] += 1
            self._stats["batch_queries"] += len(query_list)
            self._stats["last_batch_seconds"] = elapsed
            self._stats["last_batch_qps"] = (
                len(query_list) / elapsed if elapsed > 0 else 0.0
            )
            self._stats["total_batch_seconds"] += elapsed
        self.metrics.counter("batch_queries_total").inc(len(query_list))
        self.metrics.histogram("batch_seconds").observe(elapsed)
        return results

    def _answer_groups(
        self,
        query_list: list,
        groups: dict,
        policy,
        *,
        on_stale: str,
        with_exact: bool,
        with_bound: bool,
        audit_rate: float,
    ) -> list:
        """Answer ``query_list`` group by group; the one answering path.

        ``groups`` maps each ``(table, column, aggregate)`` to the
        positions of its queries.  Each group resolves the serving
        ladder once and clips its ranges once; the clipped indices feed
        the estimators, the boundary-shard accounting, the error bounds
        and the audit.  Exact answers (``with_exact`` or the exact rung)
        come from one sorted scan per group and count once per query in
        ``exact_scans``.
        """
        from repro.engine.engine import QueryResult
        from repro.engine.sharding import ShardedSynopsis

        results: list = [None] * len(query_list)
        for (table_name, column_name, aggregate), positions in groups.items():
            entry, level = self._resolve_with_policy(
                table_name, column_name, policy, on_stale=on_stale
            )
            size = len(positions)
            group_queries = [query_list[i] for i in positions]
            lows = np.array(
                [-np.inf if q.low is None else q.low for q in group_queries],
                dtype=np.float64,
            )
            highs = np.array(
                [np.inf if q.high is None else q.high for q in group_queries],
                dtype=np.float64,
            )
            self._record_degraded_serve(level, size)
            self._bump_hits(f"{table_name}.{column_name}", size)
            exact_array = None
            if with_exact or level == "exact":
                exact_array = self._exact_batch(
                    table_name, column_name, aggregate, lows, highs
                )
                self._bump("exact_scans", size)
            exacts = exact_array.tolist() if with_exact else [None] * size
            if level == "progressive":
                # Interval answers are scalar by nature (each query gets
                # its own refinement chain), so the group loops stage-0
                # sessions instead of the vectorised path.  Late import:
                # serving depends on engine, not vice versa.
                from repro.serving.progressive import initial_answer

                for position, query, exact in zip(positions, group_queries, exacts):
                    results[position] = initial_answer(self, query).as_result(
                        exact=exact
                    )
                continue
            bounds = [None] * size
            if entry is None:
                if level == "exact":
                    estimate_array = exact_array
                    synopsis_name, synopsis_words = "exact-scan", 0
                else:  # fallback
                    estimate_array = self._fallback_estimate_many(
                        table_name, column_name, aggregate, lows, highs
                    )
                    synopsis_name, synopsis_words = "fallback-uniform", 4
            else:
                low_idx, high_idx, valid = entry.statistics.clip_range_many(
                    lows, highs
                )
                clipped = (low_idx[valid], high_idx[valid], valid)
                estimate_array = _estimate_group(entry, aggregate, *clipped)
                if clipped[0].size and isinstance(
                    entry.count_estimator, ShardedSynopsis
                ):
                    self._record_sharded_queries(entry, clipped[0], clipped[1])
                if with_bound:
                    bounds = _bound_group(entry, aggregate, *clipped)
                if audit_rate > 0.0:
                    self._audit_batch_group(
                        (table_name, column_name, aggregate),
                        entry,
                        estimate_array,
                        exact_array,
                        lows,
                        highs,
                        clipped,
                        audit_rate,
                    )
                synopsis_name = entry.count_estimator.name
                synopsis_words = (
                    entry.count_estimator.storage_words()
                    + entry.sum_estimator.storage_words()
                )
            for position, query, estimate, exact, bound in zip(
                positions, group_queries, estimate_array.tolist(), exacts, bounds
            ):
                results[position] = QueryResult(
                    query=query,
                    estimate=estimate,
                    exact=exact,
                    synopsis_name=synopsis_name,
                    synopsis_words=synopsis_words,
                    guaranteed_bound=bound,
                    degradation=level,
                )
        return results

    def _exact_batch(
        self,
        table_name: str,
        column_name: str,
        aggregate: str,
        lows: np.ndarray,
        highs: np.ndarray,
    ) -> np.ndarray:
        """Ground truth for one group from a single sorted column scan."""
        values = np.asarray(self.table(table_name).column(column_name), dtype=np.float64)
        ordered = np.sort(values)
        lo_pos = np.searchsorted(ordered, lows, side="left")
        hi_pos = np.searchsorted(ordered, highs, side="right")
        counts = (hi_pos - lo_pos).astype(np.float64)
        if aggregate == "count":
            return counts
        prefix = np.concatenate(([0.0], np.cumsum(ordered)))
        sums = prefix[hi_pos] - prefix[lo_pos]
        if aggregate == "sum":
            return sums
        return np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)
