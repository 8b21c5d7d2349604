"""Differential test: domain clipping vs a per-query reference.

The engine clips every group's ranges to the synopsis domain with one
vectorised ``clip_range_many`` call, for ``execute_batch`` and for
``execute`` (a batch of one) alike.  The reference in
:mod:`tests.engine.reference` clips each query with the scalar
``clip_range`` instead.  The serve plane caches answers, so any
divergence — however small — would poison the cache.  These tests sweep
the clipping edge cases (fully out of domain on either side, straddling
one edge, inverted after clipping, fractional bounds between attribute
values, open bounds, degenerate single-point ranges) and require
bit-identical estimates *and* exact answers from both entry points.
"""

import numpy as np
import pytest

from repro.engine import ApproximateQueryEngine, Table
from repro.engine.engine import AggregateQuery
from tests.engine.reference import reference_estimate, reference_exact

DOMAIN_LOW = 10
DOMAIN_HIGH = 90  # values lie in [10, 90]


@pytest.fixture(params=[1, 8], ids=["monolithic", "sharded"])
def engine(request):
    rng = np.random.default_rng(23)
    engine = ApproximateQueryEngine()
    engine.register_table(
        Table(
            "t",
            {
                "v": rng.integers(DOMAIN_LOW, DOMAIN_HIGH + 1, 6000),
                "w": rng.integers(DOMAIN_LOW, DOMAIN_HIGH + 1, 6000),
            },
        )
    )
    engine.build_synopsis("t", "v", method="sap1", budget_words=128, shards=request.param)
    engine.build_synopsis("t", "w", method="a0", budget_words=128, shards=request.param)
    return engine


# (low, high) range shapes exercising every clipping branch.
CLIP_EDGE_RANGES = [
    # entirely below the domain → empty after clip
    (-100.0, -50.0),
    (-5.0, 9.0),
    (-5.0, 9.999),
    # entirely above the domain → empty after clip
    (91.0, 500.0),
    (90.001, 91.0),
    (1e6, 1e7),
    # inverted after clipping: both bounds inside the same gap between
    # attribute values (fractional, no row qualifies)
    (10.2, 10.8),
    (89.1, 89.9),
    (50.5, 50.6),
    # straddling the lower edge
    (-100.0, DOMAIN_LOW + 0.0),
    (-100.0, 37.5),
    # straddling the upper edge
    (55.0, 1e9),
    (89.5, 200.0),
    # covering the whole domain and beyond
    (-1e9, 1e9),
    # degenerate single points, on and off attribute values
    (42.0, 42.0),
    (42.5, 42.5),
    (DOMAIN_LOW, DOMAIN_LOW),
    (DOMAIN_HIGH, DOMAIN_HIGH),
    # open bounds
    (None, 30.0),
    (60.0, None),
    (None, None),
    (None, -10.0),
    (95.0, None),
]


def _edge_queries():
    queries = []
    for column in ("v", "w"):
        for aggregate in ("count", "sum", "avg"):
            for low, high in CLIP_EDGE_RANGES:
                queries.append(AggregateQuery("t", column, aggregate, low, high))
    return queries


def _both_paths(engine, queries, **kwargs):
    """``execute_batch`` and per-query ``execute`` results for ``queries``."""
    return {
        "execute_batch": engine.execute_batch(queries, **kwargs),
        "execute": [engine.execute(query, **kwargs) for query in queries],
    }


def test_clip_edges_bit_identical_estimates(engine):
    queries = _edge_queries()
    for path, results in _both_paths(engine, queries).items():
        for query, result in zip(queries, results):
            expected = reference_estimate(engine, query)
            assert result.estimate == expected, (
                f"{path} {query.aggregate}({query.column}) on "
                f"[{query.low}, {query.high}]: reference {expected} != "
                f"{result.estimate}"
            )


def test_clip_edges_bit_identical_exact_answers(engine):
    queries = _edge_queries()
    for path, results in _both_paths(engine, queries, with_exact=True).items():
        for query, result in zip(queries, results):
            expected = reference_exact(engine, query)
            assert result.exact == expected, (
                f"{path} {query.aggregate}({query.column}) on "
                f"[{query.low}, {query.high}]: reference exact {expected} != "
                f"{result.exact}"
            )


def test_clip_edges_randomised_sweep(engine):
    rng = np.random.default_rng(5)
    queries = []
    for _ in range(400):
        low, high = sorted(rng.uniform(-40, 140, 2).tolist())
        aggregate = ("count", "sum", "avg")[int(rng.integers(0, 3))]
        if rng.random() < 0.1:
            low = None
        if rng.random() < 0.1:
            high = None
        queries.append(AggregateQuery("t", "v", aggregate, low, high))
    expected = [reference_estimate(engine, query) for query in queries]
    for results in _both_paths(engine, queries).values():
        assert [r.estimate for r in results] == expected


def test_empty_after_clip_answers_are_zero(engine):
    for aggregate in ("count", "sum", "avg"):
        query = AggregateQuery("t", "v", aggregate, -100.0, -50.0)
        assert reference_estimate(engine, query) == 0.0
        for (result,) in _both_paths(engine, [query], with_exact=True).values():
            assert result.estimate == 0.0
            assert result.exact == 0.0
