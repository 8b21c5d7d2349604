"""Per-query reference answers for the engine's answering path.

The engine answers every 1-D range aggregate through one grouped,
vectorised path: ``execute_batch`` hands it a batch and ``execute`` a
batch of one.  This module is the per-query answerer that path
replaced, kept as a differential oracle.  Each query is clipped with the
scalar :meth:`~repro.engine.column.ColumnStatistics.clip_range`,
answered with the estimators' scalar ``estimate``, AVG divides the two
answers, and the exact answer is the masked base-table scan of
:meth:`~repro.engine.engine.ApproximateQueryEngine.execute_exact`.
"""

from __future__ import annotations


def reference_estimate(engine, query) -> float:
    """The synopsis answer to one query, computed query by query."""
    entry = engine._synopses[(query.table, query.column)]
    clipped = entry.statistics.clip_range(query.low, query.high)
    if clipped is None:
        return 0.0
    low, high = clipped
    if query.aggregate == "count":
        return entry.count_estimator.estimate(low, high)
    if query.aggregate == "sum":
        return entry.sum_estimator.estimate(low, high)
    count = entry.count_estimator.estimate(low, high)
    total = entry.sum_estimator.estimate(low, high)
    return total / count if count > 0 else 0.0


def reference_exact(engine, query) -> float:
    """Ground truth for one query from a masked scan of the base table."""
    return engine.execute_exact(query)


def assert_matches_reference(engine, queries, results, *, with_exact=False):
    """Each result is bit-identical to the per-query reference answer."""
    assert len(results) == len(queries)
    for query, result in zip(queries, results):
        entry = engine._synopses[(query.table, query.column)]
        assert result.query == query
        assert result.estimate == reference_estimate(engine, query), query
        assert result.synopsis_name == entry.count_estimator.name
        assert result.synopsis_words == (
            entry.count_estimator.storage_words()
            + entry.sum_estimator.storage_words()
        )
        if with_exact:
            assert result.exact == reference_exact(engine, query), query
        else:
            assert result.exact is None
