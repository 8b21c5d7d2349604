"""Regression: ``refresh_stale`` accounting must be transactional.

The counters used to be applied in bulk after the whole refresh loop, so
a builder exception mid-loop reported zero rebuilds even though some
synopses had already been rebuilt (and ``builds_total`` had advanced).
Now every successfully refreshed entry bumps ``rebuilds`` and
``rebuilds_total`` immediately; a failing entry stays stale, keeps
serving its frozen answers, and can be refreshed once the fault clears.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import builders
from repro.engine import AggregateQuery, ApproximateQueryEngine, Table


@pytest.fixture()
def engine():
    rng = np.random.default_rng(23)
    engine = ApproximateQueryEngine(predict_errors=False)
    engine.register_table(Table("alpha", {"v": rng.integers(0, 64, 4000)}))
    engine.register_table(Table("beta", {"v": rng.integers(0, 64, 4000)}))
    engine.build_synopsis("alpha", "v", method="a0", budget_words=40)
    engine.build_synopsis("beta", "v", method="sap1", budget_words=40)
    return engine


@pytest.fixture()
def broken_sap1(monkeypatch):
    """Make every sap1 build raise until the test clears the fault."""
    spec = builders.BUILDER_REGISTRY["sap1"]
    state = {"broken": True}

    def build(data, units, **kwargs):
        if state["broken"]:
            raise RuntimeError("injected builder fault")
        return spec.build(data, units, **kwargs)

    monkeypatch.setitem(
        builders.BUILDER_REGISTRY, "sap1", dataclasses.replace(spec, build=build)
    )
    return state


def test_counters_reflect_only_completed_refreshes(engine, broken_sap1):
    frozen = engine.execute(AggregateQuery("beta", "v", "count", 5.0, 40.0)).estimate
    engine.append_rows("alpha", {"v": np.array([1, 2, 3])})
    engine.append_rows("beta", {"v": np.array([4, 5, 6])})
    base_rebuilds = engine.stats()["rebuilds"]
    base_metric = engine.metrics.counter("rebuilds_total").value

    # Keys refresh in sorted order: alpha succeeds, then beta's sap1
    # builder blows up and the exception propagates.
    with pytest.raises(RuntimeError, match="injected builder fault"):
        engine.refresh_stale()

    assert engine.stats()["rebuilds"] == base_rebuilds + 1
    assert engine.metrics.counter("rebuilds_total").value == base_metric + 1
    assert engine.stale_synopses() == [("beta", "v")]

    # The failed entry still serves its frozen synopsis.
    served = engine.execute(AggregateQuery("beta", "v", "count", 5.0, 40.0))
    assert served.estimate == frozen

    # Once the fault clears, the remaining stale entry refreshes cleanly.
    broken_sap1["broken"] = False
    assert engine.refresh_stale() == 1
    assert engine.stale_synopses() == []
    assert engine.stats()["rebuilds"] == base_rebuilds + 2
    assert engine.metrics.counter("rebuilds_total").value == base_metric + 2


def test_sharded_dirty_refresh_failure_keeps_entry_stale(broken_sap1):
    rng = np.random.default_rng(31)
    values = rng.integers(0, 64, 4000)
    values[0], values[1] = 0, 63
    broken_sap1["broken"] = False
    engine = ApproximateQueryEngine(predict_errors=False)
    engine.register_table(Table("gamma", {"v": values}))
    engine.build_synopsis("gamma", "v", method="sap1", budget_words=256, shards=8)

    engine.append_rows("gamma", {"v": np.array([10, 11])})
    broken_sap1["broken"] = True
    base = engine.stats()["dirty_shards_rebuilt"]
    with pytest.raises(RuntimeError, match="injected builder fault"):
        engine.refresh_stale()

    # Nothing was committed: still stale, dirty set intact, counter flat.
    assert engine.stale_synopses() == [("gamma", "v")]
    assert engine.dirty_shards()["gamma.v"] is not None
    assert engine.stats()["dirty_shards_rebuilt"] == base

    broken_sap1["broken"] = False
    assert engine.refresh_stale() == 1
    assert engine.stale_synopses() == []
    result = engine.execute(
        AggregateQuery("gamma", "v", "count", None, None), with_exact=True
    )
    assert result.estimate == result.exact == 4002


def test_failing_first_entry_does_not_block_the_rest(broken_sap1):
    # "alpha" sorts first and its sap1 rebuild fails; "beta" must still
    # refresh, and the failure is re-raised once every entry was tried.
    rng = np.random.default_rng(29)
    engine = ApproximateQueryEngine(predict_errors=False)
    engine.register_table(Table("alpha", {"v": rng.integers(0, 64, 4000)}))
    engine.register_table(Table("beta", {"v": rng.integers(0, 64, 4000)}))
    broken_sap1["broken"] = False
    engine.build_synopsis("alpha", "v", method="sap1", budget_words=40)
    engine.build_synopsis("beta", "v", method="a0", budget_words=40)
    engine.append_rows("alpha", {"v": np.array([1, 2, 3])})
    engine.append_rows("beta", {"v": np.array([4, 5, 6])})
    broken_sap1["broken"] = True
    base_rebuilds = engine.stats()["rebuilds"]
    base_metric = engine.metrics.counter("rebuilds_total").value

    with pytest.raises(RuntimeError, match="injected builder fault"):
        engine.refresh_stale()

    assert engine.stale_synopses() == [("alpha", "v")]
    assert engine.stats()["rebuilds"] == base_rebuilds + 1
    assert engine.metrics.counter("rebuilds_total").value == base_metric + 1
    result = engine.execute(
        AggregateQuery("beta", "v", "count", None, None), with_exact=True
    )
    assert result.degradation == "fresh"
    assert result.estimate == result.exact == 4003
