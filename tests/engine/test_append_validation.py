"""Hostile appends are rejected before any engine state changes.

A NaN that reached the table used to leave the column stuck stale: the
append was accepted, every shard went dirty, and each later
``refresh_stale`` raised out of the statistics rebuild.  An empty
append used to bump the table version and mark every synopsis stale.
Both must now leave ``table_version``, ``stale_synopses()`` and
``dirty_shards()`` exactly as they were.
"""

import numpy as np
import pytest

from repro.engine import AggregateQuery, ApproximateQueryEngine, Table
from repro.errors import InvalidDataError

KEY = ("t", "p")


def _engine() -> ApproximateQueryEngine:
    rng = np.random.default_rng(5)
    engine = ApproximateQueryEngine(predict_errors=False)
    engine.register_table(Table("t", {"p": rng.integers(0, 64, 400)}))
    engine.build_synopsis("t", "p", method="a0", budget_words=1024, shards=4)
    return engine


def _state(engine):
    return (
        engine.table_version("t"),
        engine.stale_synopses(),
        engine.dirty_shards(),
        len(engine.table("t")),
    )


@pytest.mark.parametrize(
    "values",
    [
        [np.nan],
        [3.0, np.inf],
        [-np.inf],
        ["7"],
        np.array([None], dtype=object),
        [[1, 2], [3]],
        [1e300],
    ],
    ids=["nan", "inf", "neg-inf", "string", "object", "ragged", "huge"],
)
def test_hostile_values_rejected_before_any_state_changes(values):
    engine = _engine()
    before = _state(engine)
    with pytest.raises(InvalidDataError):
        engine.append_rows("t", {"p": values})
    assert _state(engine) == before
    assert engine.refresh_stale() == 0


def test_rejected_append_does_not_block_later_refreshes():
    engine = _engine()
    engine.append_rows("t", {"p": [3]})
    stale = _state(engine)
    with pytest.raises(InvalidDataError):
        engine.append_rows("t", {"p": [np.nan]})
    assert _state(engine) == stale
    assert engine.refresh_stale() == 1
    assert engine.stale_synopses() == []
    query = AggregateQuery("t", "p", "count", 0.0, 63.0)
    assert engine.execute(query).estimate == engine.execute_exact(query) == 401.0


@pytest.mark.parametrize("values", [[], np.array([], dtype=np.float64)])
def test_zero_row_append_is_a_no_op(values):
    engine = _engine()
    before = _state(engine)
    engine.append_rows("t", {"p": values})
    assert _state(engine) == before
    assert engine.shard_heat()["t.p"] == [0, 0, 0, 0]
