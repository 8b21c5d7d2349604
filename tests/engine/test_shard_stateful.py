"""Stateful lifecycle test: the synopsis catalog vs an exact model.

A Hypothesis rule machine interleaves appends (in-domain,
domain-extending and hostile — rejected or, when empty, a no-op),
refreshes, shard compactions, scalar queries, and
batch queries against an engine whose synopsis budget is large enough
for ``a0`` to be exact.  That turns every discrepancy into a lifecycle
bug: the machine's model is the multiset of values frozen at the last
build/refresh, so a served answer must match that snapshot exactly —
whether the catalog is monolithic or sharded, and before or after a
compaction, which re-summarises the same snapshot and must change
nothing observable except shard geometry.  Staleness flags, dirty-shard
sets, the heat ledger, and the ``dirty_shards_rebuilt`` counter must
track the append history; every compaction bumps the entry's build id,
so answer-cache tokens recorded before the swap never validate after
it; and each sharded synopsis's per-shard totals (and the prefix array
that answers interiors) mirror the frozen snapshot exactly.
"""

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.engine import AggregateQuery, ApproximateQueryEngine, Table
from repro.engine.sharding import ShardedSynopsis
from repro.errors import InvalidDataError
from tests.helpers import HOSTILE_APPENDS

DOMAIN = 20
MAX_VALUE = 32  # domain-extending appends stay below this
# a0 needs 2 words per unit and builders cap their bucket count at the
# domain size, so oversupply is harmless.  The budget must be large
# enough that even the *smallest mass share* any shard can get from
# split_budget_by_mass (the SUM estimator's low-value shard) still
# exceeds 2x its width — then every shard is exact and the model below
# is a strict oracle.
BUDGET = 8192
KEY = ("t", "v")


class ShardLifecycleMachine(RuleBasedStateMachine):
    shards = 4

    def __init__(self):
        super().__init__()
        initial = np.tile(np.arange(DOMAIN), 3)
        self.frozen = list(initial.tolist())
        self.live = list(initial.tolist())
        self.engine = ApproximateQueryEngine(predict_errors=False)
        self.engine.register_table(Table("t", {"v": initial}))
        self.engine.build_synopsis(
            "t", "v", method="a0", budget_words=BUDGET, shards=self.shards
        )

    # -- model oracles -------------------------------------------------
    def _sharded(self):
        """Both aggregates' synopses, or ``()`` for a monolithic entry."""
        entry = self.engine._synopses[KEY]
        if not isinstance(entry.count_estimator, ShardedSynopsis):
            return ()
        return (entry.count_estimator, entry.sum_estimator)

    def _num_shards(self) -> int:
        synopses = self._sharded()
        return synopses[0].num_shards if synopses else 1

    def _frozen_count(self, low, high):
        return float(sum(1 for v in self.frozen if low <= v <= high))

    def _frozen_sum(self, low, high):
        return float(sum(v for v in self.frozen if low <= v <= high))

    # -- rules ---------------------------------------------------------
    @rule(values=st.lists(st.integers(0, DOMAIN - 1), min_size=1, max_size=6))
    def append_in_domain(self, values):
        self.engine.append_rows("t", {"v": np.array(values)})
        self.live.extend(values)
        assert self.engine.stale_synopses() == [("t", "v")]

    @rule(values=st.lists(st.integers(DOMAIN, MAX_VALUE - 1), min_size=1, max_size=3))
    def append_extending_domain(self, values):
        already_none = (
            self.shards > 1
            and self.engine.dirty_shards().get("t.v", set()) is None
        )
        beyond_axis = any(v > max(self.frozen) for v in values)
        self.engine.append_rows("t", {"v": np.array(values)})
        self.live.extend(values)
        if self.shards > 1 and (already_none or beyond_axis):
            # A value past the frozen axis changes the domain: all shards
            # dirty (values *inside* the frozen range may land on a dense
            # axis and dirty only their own shard, so no claim there).
            assert self.engine.dirty_shards()["t.v"] is None

    @rule(kind=st.sampled_from(sorted(HOSTILE_APPENDS)))
    def append_hostile(self, kind):
        before = (
            self.engine.table_version("t"),
            self.engine.stale_synopses(),
            self.engine.dirty_shards(),
        )
        rows = HOSTILE_APPENDS[kind]("v")
        if kind == "empty":
            self.engine.append_rows("t", rows)
        else:
            with pytest.raises(InvalidDataError):
                self.engine.append_rows("t", rows)
        after = (
            self.engine.table_version("t"),
            self.engine.stale_synopses(),
            self.engine.dirty_shards(),
        )
        assert after == before
        assert len(self.engine.table("t")) == len(self.live)

    @rule()
    def refresh(self):
        was_stale = bool(self.engine.stale_synopses())
        before = self.engine.stats()["dirty_shards_rebuilt"]
        refreshed = self.engine.refresh_stale()
        assert refreshed == (1 if was_stale else 0)
        assert self.engine.stale_synopses() == []
        assert self.engine.dirty_shards() == {}
        after = self.engine.stats()["dirty_shards_rebuilt"]
        assert before <= after <= before + self.shards
        self.frozen = list(self.live)

    @precondition(lambda self: self.shards > 1)
    @rule(data=st.data())
    def compact(self, data):
        shards = self._num_shards()
        if shards < 3:
            # Merging the last two shards would leave a single-shard
            # synopsis, which the next full rebuild (shards=1) would
            # legitimately replace with a monolithic estimator — out of
            # scope for this machine.
            return
        first = data.draw(st.integers(0, shards - 2), label="run first")
        last = data.draw(
            st.integers(first + 1, min(shards - 1, first + shards - 2)),
            label="run last",
        )
        was_stale = bool(self.engine.stale_synopses())
        build_id_before = self.engine._build_meta[KEY]["build_id"]
        report = self.engine.compact_shards("t", "v", runs=[(first, last)])
        assert report is not None
        assert report["shards_after"] == shards - (last - first)
        assert self._num_shards() == report["shards_after"]
        # The swap must bump the build id (answer-token invalidation)
        # while leaving staleness exactly as it was: compaction
        # re-summarises the frozen snapshot, it neither refreshes nor
        # invalidates the data the synopsis answers for.
        assert self.engine._build_meta[KEY]["build_id"] > build_id_before
        assert bool(self.engine.stale_synopses()) == was_stale

    @rule(
        bounds=st.tuples(
            st.integers(0, MAX_VALUE + 4), st.integers(0, MAX_VALUE + 4)
        ).map(sorted)
    )
    def query_serves_frozen_snapshot(self, bounds):
        low, high = float(bounds[0]), float(bounds[1])
        count = self.engine.execute(AggregateQuery("t", "v", "count", low, high))
        total = self.engine.execute(AggregateQuery("t", "v", "sum", low, high))
        assert count.estimate == self._frozen_count(low, high)
        assert total.estimate == self._frozen_sum(low, high)

    @rule(
        bounds=st.lists(
            st.tuples(
                st.integers(0, MAX_VALUE + 4), st.integers(0, MAX_VALUE + 4)
            ).map(sorted),
            min_size=1,
            max_size=5,
        )
    )
    def batch_matches_scalar(self, bounds):
        queries = [
            AggregateQuery("t", "v", aggregate, float(low), float(high))
            for aggregate in ("count", "sum")
            for low, high in bounds
        ]
        batched = self.engine.execute_batch(queries)
        for query, result in zip(queries, batched):
            assert result.estimate == self.engine.execute(query).estimate

    # -- invariants ----------------------------------------------------
    @invariant()
    def staleness_tracks_appends(self):
        stale = self.engine.stale_synopses()
        if self.live != self.frozen:
            assert stale == [("t", "v")]
        else:
            assert stale == []

    @invariant()
    def dirty_sets_well_formed(self):
        shards = self._num_shards()
        for dirty in self.engine.dirty_shards().values():
            if dirty is not None:
                assert all(0 <= shard < shards for shard in dirty)
                assert dirty == sorted(dirty)

    @invariant()
    def heat_ledger_fits_current_geometry(self):
        if not self._sharded():
            return
        shards = self._num_shards()
        heat = self.engine.shard_heat()["t.v"]
        assert len(heat) == shards
        assert all(count >= 0 for count in heat)
        ledger = self.engine._shard_heat.get(KEY, {})
        assert all(0 <= shard < shards for shard in ledger)

    @invariant()
    def totals_mirror_the_frozen_snapshot(self):
        axis = self.engine._synopses[KEY].statistics.values_axis
        frozen = np.asarray(self.frozen, dtype=np.float64)
        positions = np.searchsorted(axis, frozen)
        assert np.array_equal(axis[positions], frozen)
        for synopsis, weighted in zip(self._sharded(), (False, True)):
            expected = np.bincount(
                synopsis.shard_of(positions),
                weights=frozen if weighted else None,
                minlength=synopsis.num_shards,
            ).astype(np.float64)
            assert np.array_equal(synopsis.totals, expected)
            assert np.array_equal(
                synopsis._totals_prefix,
                np.concatenate(([0.0], np.cumsum(synopsis.totals))),
            )

    @invariant()
    def catalog_shape_is_stable(self):
        entry = self.engine._synopses[KEY]
        if self.shards > 1:
            assert isinstance(entry.count_estimator, ShardedSynopsis)
        else:
            assert not isinstance(entry.count_estimator, ShardedSynopsis)


class MonolithicLifecycleMachine(ShardLifecycleMachine):
    shards = 1


TestShardedLifecycle = ShardLifecycleMachine.TestCase
TestShardedLifecycle.settings = settings(
    max_examples=20, stateful_step_count=12, deadline=None
)

TestMonolithicLifecycle = MonolithicLifecycleMachine.TestCase
TestMonolithicLifecycle.settings = settings(
    max_examples=12, stateful_step_count=10, deadline=None
)
