"""Tests for catalog persistence."""

import numpy as np
import pytest

from repro.engine import (
    AggregateQuery,
    ApproximateQueryEngine,
    Table,
    load_catalog,
    save_catalog,
)
from repro.errors import InvalidQueryError, SerializationError


@pytest.fixture
def engine():
    rng = np.random.default_rng(44)
    engine = ApproximateQueryEngine()
    engine.register_table(
        Table("sales", {"price": rng.integers(1, 120, 8000), "qty": rng.integers(1, 9, 8000)})
    )
    return engine


class TestRoundTrip:
    def test_estimates_survive_restart(self, engine, tmp_path):
        engine.build_synopsis("sales", "price", method="sap1", budget_words=90)
        engine.build_synopsis("sales", "qty", method="a0", budget_words=40)
        query = AggregateQuery("sales", "price", "count", 30, 90)
        before = engine.execute(query).estimate

        path = tmp_path / "catalog.npz"
        assert save_catalog(engine, path) == 2

        fresh = ApproximateQueryEngine()  # no tables registered at all
        assert load_catalog(fresh, path) == 2
        after = fresh.execute(query).estimate
        assert after == pytest.approx(before)

    def test_all_aggregates_after_reload(self, engine, tmp_path):
        engine.build_synopsis("sales", "price", method="sap1", budget_words=90)
        path = tmp_path / "catalog.npz"
        save_catalog(engine, path)
        fresh = ApproximateQueryEngine()
        load_catalog(fresh, path)
        for aggregate in ("count", "sum", "avg"):
            value = fresh.execute(
                AggregateQuery("sales", "price", aggregate, 10, 100)
            ).estimate
            assert np.isfinite(value)

    def test_quantiles_after_reload(self, engine, tmp_path):
        engine.build_synopsis("sales", "price", method="sap1", budget_words=90)
        path = tmp_path / "catalog.npz"
        save_catalog(engine, path)
        fresh = ApproximateQueryEngine()
        load_catalog(fresh, path)
        result = fresh.execute_quantile("sales", "price", 0.5)
        assert 1 <= result.estimate <= 120

    def test_rank_layout_round_trips(self, tmp_path):
        engine = ApproximateQueryEngine()
        engine.register_table(
            Table("t", {"v": np.asarray([5, 9_000_000, 9_000_000, 120, 5])})
        )
        engine.build_synopsis("t", "v", method="a0", budget_words=12)
        path = tmp_path / "catalog.npz"
        save_catalog(engine, path)
        fresh = ApproximateQueryEngine()
        load_catalog(fresh, path)
        entry = fresh._synopses[("t", "v")]
        assert entry.statistics.layout == "rank"
        assert fresh.execute(AggregateQuery("t", "v", "count", 0, 200)).estimate >= 0

    def test_stale_flag_not_persisted(self, engine, tmp_path):
        engine.build_synopsis("sales", "price", method="a0", budget_words=40)
        engine.append_rows(
            "sales", {"price": np.asarray([5]), "qty": np.asarray([1])}
        )
        assert engine.stale_synopses()
        path = tmp_path / "catalog.npz"
        save_catalog(engine, path)
        fresh = ApproximateQueryEngine()
        load_catalog(fresh, path)
        assert fresh.stale_synopses() == []

    def test_exact_requires_table(self, engine, tmp_path):
        engine.build_synopsis("sales", "price", method="a0", budget_words=40)
        path = tmp_path / "catalog.npz"
        save_catalog(engine, path)
        fresh = ApproximateQueryEngine()
        load_catalog(fresh, path)
        with pytest.raises(InvalidQueryError, match="unknown table"):
            fresh.execute(
                AggregateQuery("sales", "price", "count", 1, 5), with_exact=True
            )

    def test_empty_catalog(self, tmp_path):
        engine = ApproximateQueryEngine()
        path = tmp_path / "empty.npz"
        assert save_catalog(engine, path) == 0
        fresh = ApproximateQueryEngine()
        assert load_catalog(fresh, path) == 0

    def test_not_a_catalog_rejected(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, stuff=np.arange(3))
        with pytest.raises(SerializationError, match="not a repro catalog"):
            load_catalog(ApproximateQueryEngine(), path)

    def test_unknown_version_rejected(self, engine, tmp_path):
        import json

        engine.build_synopsis("sales", "price", method="a0", budget_words=40)
        path = tmp_path / "catalog.npz"
        save_catalog(engine, path)
        with np.load(path) as archive:
            arrays = {name: archive[name] for name in archive.files}
        manifest = json.loads(bytes(arrays["manifest"]).decode("utf-8"))
        manifest["version"] = 99
        arrays["manifest"] = np.frombuffer(
            json.dumps(manifest).encode("utf-8"), dtype=np.uint8
        )
        np.savez(path, **arrays)
        with pytest.raises(SerializationError, match="unsupported catalog version"):
            load_catalog(ApproximateQueryEngine(), path)


class TestShardedRoundTrip:
    @pytest.fixture
    def sharded_engine(self, engine):
        engine.build_synopsis(
            "sales", "price", method="sap1", budget_words=256, shards=8
        )
        engine.build_synopsis("sales", "qty", method="a0", budget_words=40)
        return engine

    def test_sharded_estimates_survive_restart(self, sharded_engine, tmp_path):
        queries = [
            AggregateQuery("sales", "price", aggregate, low, high)
            for aggregate in ("count", "sum")
            for low, high in ((30, 90), (1, 119), (55, 55))
        ]
        before = [sharded_engine.execute(q).estimate for q in queries]
        path = tmp_path / "catalog.npz"
        assert save_catalog(sharded_engine, path) == 2

        fresh = ApproximateQueryEngine()
        assert load_catalog(fresh, path) == 2
        after = [fresh.execute(q).estimate for q in queries]
        assert after == before

    def test_shard_structure_survives_restart(self, sharded_engine, tmp_path):
        original = sharded_engine._synopses[("sales", "price")]
        path = tmp_path / "catalog.npz"
        save_catalog(sharded_engine, path)
        fresh = ApproximateQueryEngine()
        load_catalog(fresh, path)
        entry = fresh._synopses[("sales", "price")]
        assert entry.shards == 8
        assert np.array_equal(entry.count_estimator.starts, original.count_estimator.starts)
        assert np.array_equal(entry.count_estimator.totals, original.count_estimator.totals)
        assert np.array_equal(
            entry.count_estimator.budgets, original.count_estimator.budgets
        )
        assert entry.count_estimator.name == original.count_estimator.name
        catalog = {row["column"]: row for row in fresh.synopsis_catalog()}
        assert catalog["price"]["shards"] == 8
        assert catalog["qty"]["shards"] == 1

    def test_frozen_predictions_survive_restart(self, sharded_engine, tmp_path):
        original = sharded_engine._synopses[("sales", "price")]
        assert original.count_estimator.shard_predictions is not None
        path = tmp_path / "catalog.npz"
        save_catalog(sharded_engine, path)
        fresh = ApproximateQueryEngine()
        load_catalog(fresh, path)
        entry = fresh._synopses[("sales", "price")]
        restored = entry.count_estimator.shard_predictions
        assert restored is not None
        for loaded, source in zip(restored, original.count_estimator.shard_predictions):
            assert loaded.sse_per_query == source.sse_per_query
            assert loaded.query_count == source.query_count
            assert loaded.exact == source.exact
        assert entry.predicted is not None
        assert entry.predicted["count"].sse_per_query == pytest.approx(
            original.predicted["count"].sse_per_query
        )

    def test_dirty_shard_subset_round_trips_as_stale(self, sharded_engine, tmp_path):
        sharded_engine.append_rows(
            "sales", {"price": np.asarray([60]), "qty": np.asarray([1])}
        )
        dirty_before = sharded_engine.dirty_shards()["sales.price"]
        assert dirty_before is not None and len(dirty_before) == 1
        path = tmp_path / "catalog.npz"
        save_catalog(sharded_engine, path)

        fresh = ApproximateQueryEngine()
        load_catalog(fresh, path)
        # The sharded entry's bytes predate the appended row, so it must
        # come back stale with the same dirty set; the monolithic qty
        # entry keeps the old (session-only) staleness behaviour.
        assert fresh.stale_synopses() == [("sales", "price")]
        assert fresh.dirty_shards()["sales.price"] == dirty_before

    def test_dirty_all_round_trips(self, sharded_engine, tmp_path):
        sharded_engine.append_rows(
            "sales", {"price": np.asarray([5000]), "qty": np.asarray([1])}
        )
        assert sharded_engine.dirty_shards()["sales.price"] is None
        path = tmp_path / "catalog.npz"
        save_catalog(sharded_engine, path)
        fresh = ApproximateQueryEngine()
        load_catalog(fresh, path)
        assert fresh.stale_synopses() == [("sales", "price")]
        assert fresh.dirty_shards()["sales.price"] is None

    def test_loaded_dirty_entry_refreshes_with_table(self, sharded_engine, tmp_path):
        sharded_engine.append_rows(
            "sales", {"price": np.asarray([60]), "qty": np.asarray([1])}
        )
        path = tmp_path / "catalog.npz"
        save_catalog(sharded_engine, path)

        fresh = ApproximateQueryEngine()
        fresh.register_table(
            Table(
                "sales",
                {
                    "price": sharded_engine.table("sales").column("price"),
                    "qty": sharded_engine.table("sales").column("qty"),
                },
            )
        )
        load_catalog(fresh, path)
        assert fresh.refresh_stale() == 1
        assert fresh.stale_synopses() == []
        result = fresh.execute(
            AggregateQuery("sales", "price", "count", None, None), with_exact=True
        )
        assert result.estimate == result.exact


class TestFloatValuedRoundTrip:
    """Answers over a 2-decimal price column survive a save/load bitwise."""

    @pytest.mark.parametrize("shards", [1, 8], ids=["monolithic", "sharded"])
    def test_price_answers_bitwise_equal_after_load(self, tmp_path, shards):
        rng = np.random.default_rng(61)
        prices = rng.integers(100, 400, 6000) / 100.0  # 1.00 .. 3.99
        engine = ApproximateQueryEngine()
        engine.register_table(Table("shop", {"price": prices}))
        engine.build_synopsis(
            "shop", "price", method="sap1", budget_words=192, shards=shards
        )
        bounds = np.sort(rng.integers(90, 410, (60, 2)) / 100.0, axis=1)
        queries = [
            AggregateQuery("shop", "price", aggregate, float(low), float(high))
            for aggregate in ("count", "sum", "avg")
            for low, high in bounds
        ] + [AggregateQuery("shop", "price", "sum", None, None)]
        before = engine.execute_batch(queries)
        path = tmp_path / "catalog.npz"
        assert save_catalog(engine, path) == 1

        fresh = ApproximateQueryEngine()
        assert load_catalog(fresh, path) == 1
        after = fresh.execute_batch(queries)
        assert [r.estimate for r in after] == [r.estimate for r in before]
        assert [r.synopsis_words for r in after] == [
            r.synopsis_words for r in before
        ]
        assert [fresh.execute(q).estimate for q in queries] == [
            r.estimate for r in before
        ]
