"""Auditing is a pure side channel: answers never change.

Differential checks between audited and un-audited execution on random
workloads, and of the errors the audit observes against the per-query
reference of :mod:`tests.engine.reference`.
"""

import numpy as np
import pytest

from repro.engine.engine import AggregateQuery, ApproximateQueryEngine
from repro.engine.table import Table
from tests.engine.reference import reference_estimate, reference_exact

AGGREGATES = ("count", "sum", "avg")


def build_engine(**kwargs) -> ApproximateQueryEngine:
    rng = np.random.default_rng(23)
    engine = ApproximateQueryEngine(**kwargs)
    engine.register_table(
        Table(
            "sales",
            {
                "price": rng.integers(1, 80, 3000),
                "qty": rng.integers(1, 15, 3000),
            },
        )
    )
    engine.build_all_synopses(method="sap1", total_budget_words=200)
    return engine


def random_queries(count: int, seed: int) -> list:
    rng = np.random.default_rng(seed)
    queries = []
    for _ in range(count):
        column, span = (
            ("price", 80.0) if rng.random() < 0.5 else ("qty", 15.0)
        )
        low, high = np.sort(rng.uniform(0.0, span, 2))
        queries.append(
            AggregateQuery(
                "sales",
                column,
                AGGREGATES[int(rng.integers(0, len(AGGREGATES)))],
                float(low),
                float(high),
            )
        )
    return queries


def assert_identical(left, right):
    """Bit-identical QueryResults (floats compared with ==, not approx)."""
    assert left.query == right.query
    assert left.estimate == right.estimate
    assert left.exact == right.exact
    assert left.synopsis_name == right.synopsis_name
    assert left.synopsis_words == right.synopsis_words
    assert left.guaranteed_bound == right.guaranteed_bound


class TestScalarDifferential:
    @pytest.mark.parametrize("with_exact", [False, True])
    def test_audited_execute_bit_identical(self, with_exact):
        plain = build_engine()
        audited = build_engine()
        for query in random_queries(300, seed=7):
            assert_identical(
                plain.execute(query, with_exact=with_exact),
                audited.execute(query, with_exact=with_exact, audit_rate=1.0),
            )
        assert audited.stats()["audited_queries"] == 300
        assert plain.stats()["audited_queries"] == 0

    def test_partial_rate_bit_identical(self):
        plain = build_engine()
        audited = build_engine(audit_seed=99)
        for query in random_queries(300, seed=8):
            assert_identical(
                plain.execute(query),
                audited.execute(query, audit_rate=0.3),
            )

    def test_audited_on_stale_serve_identical(self):
        plain = build_engine()
        audited = build_engine()
        for engine in (plain, audited):
            engine.append_rows("sales", {"price": [5, 6, 7], "qty": [1, 1, 1]})
        for query in random_queries(100, seed=9):
            assert_identical(
                plain.execute(query, on_stale="serve"),
                audited.execute(query, on_stale="serve", audit_rate=1.0),
            )


class TestBatchDifferential:
    @pytest.mark.parametrize("with_exact", [False, True])
    def test_audited_batch_matches_scalar_elementwise(self, with_exact):
        scalar_engine = build_engine()
        batch_engine = build_engine()
        queries = random_queries(400, seed=13)
        scalar = [
            scalar_engine.execute(query, with_exact=with_exact)
            for query in queries
        ]
        batch = batch_engine.execute_batch(
            queries, with_exact=with_exact, audit_rate=1.0
        )
        assert len(batch) == len(scalar)
        for left, right in zip(scalar, batch):
            assert_identical(left, right)
        assert batch_engine.stats()["audited_queries"] == 400

    def test_audited_batch_identical_to_unaudited_batch(self):
        plain = build_engine()
        audited = build_engine()
        queries = random_queries(400, seed=14)
        for left, right in zip(
            plain.execute_batch(queries),
            audited.execute_batch(queries, audit_rate=1.0),
        ):
            assert_identical(left, right)

    def test_partial_rate_batch_identical(self):
        plain = build_engine()
        audited = build_engine(audit_seed=5)
        queries = random_queries(400, seed=15)
        for left, right in zip(
            plain.execute_batch(queries),
            audited.execute_batch(queries, audit_rate=0.2),
        ):
            assert_identical(left, right)
        audited_count = audited.stats()["audited_queries"]
        assert 0 < audited_count < 400

    def test_scalar_and_batch_audits_observe_same_errors(self):
        """Full-rate auditing through ``execute`` and ``execute_batch``
        observes exactly the reference errors |estimate - exact|."""
        scalar_engine = build_engine()
        batch_engine = build_engine()
        queries = random_queries(200, seed=21)
        for query in queries:
            scalar_engine.execute(query, audit_rate=1.0)
        batch_engine.execute_batch(queries, audit_rate=1.0)
        errors: dict = {}
        for query in queries:
            key = (query.table, query.column, query.aggregate)
            errors.setdefault(key, []).append(
                reference_estimate(scalar_engine, query)
                - reference_exact(scalar_engine, query)
            )
        for engine in (scalar_engine, batch_engine):
            assert set(engine.auditor.keys()) == set(errors)
            for key, key_errors in errors.items():
                observed = engine.auditor.observed(key)
                expected = np.asarray(key_errors)
                assert observed.samples == expected.size
                assert observed.sse_per_query == pytest.approx(
                    float(np.mean(expected * expected)), rel=1e-9, abs=1e-9
                )
                assert observed.max_abs_error == pytest.approx(
                    float(np.abs(expected).max()), rel=1e-9, abs=1e-9
                )
