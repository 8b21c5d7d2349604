"""Lifecycle machine: catalog mutations vs in-flight refinements.

A stateful Hypothesis machine interleaves the three catalog mutations
(``append_rows``, ``refresh_stale``, ``compact_all_shards``) with
stepping of in-flight :class:`RefinementSession` machines and
stage-aware :class:`AnswerCache` writes, proving the token discipline:

* any mutation that changes the answer token makes every in-flight
  session raise :class:`RefinementInvalidatedError` on its next step —
  and keep raising (a frozen session can never resume);
* every published :class:`IntervalAnswer` carries the token captured at
  session start, never a post-mutation one;
* a cached interval written under an old token is *never* served under
  the live token — a stale interval cannot survive a mutation.

Hostile appends (NaN/inf, ragged, wrong columns, huge magnitudes) are
interleaved too: each is rejected — an empty one is a no-op — without
moving the token, so no session is invalidated by bad input.

The machine also re-checks interval nesting on every successful step so
mutations interleaved *between* stages cannot corrupt a still-valid
chain.
"""

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.engine import ApproximateQueryEngine, Table
from repro.engine.engine import AggregateQuery
from repro.errors import InvalidDataError, RefinementInvalidatedError
from repro.serving.answer_cache import AnswerCache
from repro.serving.catalog import CatalogView
from repro.serving.progressive import RefinementSession
from tests.helpers import HOSTILE_APPENDS

AGGREGATES = ("count", "sum", "avg")


def _cache_key(query):
    return (query.table, query.column, query.aggregate, query.low, query.high)


class ProgressiveLifecycleMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        rng = np.random.default_rng(7)
        self.engine = ApproximateQueryEngine()
        self.engine.register_table(
            Table("t", {"x": rng.integers(0, 64, 4000)})
        )
        self.engine.build_synopsis(
            "t", "x", method="sap1", budget_words=80, shards=4
        )
        self.catalog = CatalogView(self.engine)
        self.cache = AnswerCache(capacity=32)
        self.sessions = []
        self.cache_tokens = {}
        self._append_calls = 0

    def _token(self):
        return self.catalog.answer_token("t", "x")

    @rule(
        low=st.integers(min_value=0, max_value=60),
        span=st.integers(min_value=0, max_value=30),
        aggregate=st.sampled_from(AGGREGATES),
    )
    def start_session(self, low, span, aggregate):
        query = AggregateQuery(
            "t", "x", aggregate, float(low), float(low + span)
        )
        session = RefinementSession(self.engine, query)
        assert session.token == self._token()
        self.sessions.append(session)

    @rule(data=st.data())
    def step_session(self, data):
        live = [s for s in self.sessions if not s.done]
        self.sessions = live
        if not live:
            return
        session = data.draw(
            st.sampled_from(live), label="in-flight session"
        )
        if session.token != self._token():
            # A mutation landed since this session started: it must
            # refuse to publish, now and forever.
            assert session.invalidated()
            with pytest.raises(RefinementInvalidatedError):
                session.step()
            with pytest.raises(RefinementInvalidatedError):
                session.step()
            self.sessions.remove(session)
            return
        previous = session.current()
        answer = session.step()
        assert answer is not None
        assert answer.token == session.token
        assert answer.lo <= answer.hi
        if previous is not None:
            assert previous.lo <= answer.lo
            assert answer.hi <= previous.hi
        key = _cache_key(session.query)
        self.cache.put(
            key, answer.token, answer.as_result(), stage_rank=answer.stage_rank
        )
        stored = self.cache.get(key, answer.token)
        if stored is not None:
            # Whatever the cache serves under this token is at least as
            # refined as some answer published under the same token —
            # never a regression to a wider stage.
            rank = self.cache.stage_rank(key)
            assert rank is None or rank >= 0
        self.cache_tokens[key] = answer.token

    @rule(rows=st.integers(min_value=1, max_value=50))
    def append(self, rows):
        self._append_calls += 1
        rng = np.random.default_rng(1000 + self._append_calls)
        before = self._token()
        self.engine.append_rows("t", {"x": rng.integers(0, 64, rows)})
        assert self._token() != before

    @rule(kind=st.sampled_from(sorted(HOSTILE_APPENDS)))
    def append_hostile(self, kind):
        # Rejected (or, when empty, a no-op) before any state changes:
        # the answer token must not move, so no session is invalidated.
        before = (
            self._token(),
            self.engine.table_version("t"),
            self.engine.stale_synopses(),
            self.engine.dirty_shards(),
        )
        rows = HOSTILE_APPENDS[kind]("x")
        if kind == "empty":
            self.engine.append_rows("t", rows)
        else:
            with pytest.raises(InvalidDataError):
                self.engine.append_rows("t", rows)
        after = (
            self._token(),
            self.engine.table_version("t"),
            self.engine.stale_synopses(),
            self.engine.dirty_shards(),
        )
        assert after == before

    @rule()
    def refresh(self):
        self.engine.refresh_stale()

    @rule()
    def compact(self):
        self.engine.compact_all_shards()

    @invariant()
    def stale_cached_intervals_never_serve_under_live_token(self):
        live = self._token()
        for key, written_under in self.cache_tokens.items():
            if written_under != live:
                assert self.cache.get(key, live) is None

    @invariant()
    def published_history_predates_any_mutation(self):
        for session in self.sessions:
            for answer in session.history():
                assert answer.token == session.token


ProgressiveLifecycleMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=25, deadline=None
)

TestProgressiveLifecycle = ProgressiveLifecycleMachine.TestCase


class TestDeterministicInterleavings:
    """Hand-picked orderings that must hold regardless of Hypothesis."""

    @pytest.fixture()
    def engine(self):
        rng = np.random.default_rng(11)
        engine = ApproximateQueryEngine()
        engine.register_table(Table("t", {"x": rng.integers(0, 64, 4000)}))
        engine.build_synopsis(
            "t", "x", method="sap1", budget_words=80, shards=4
        )
        return engine

    def test_append_between_stages_invalidates_and_freezes(self, engine):
        query = AggregateQuery("t", "x", "sum", 5.0, 40.0)
        session = RefinementSession(engine, query)
        first = session.step()
        engine.append_rows("t", {"x": np.asarray([3, 9])})
        with pytest.raises(RefinementInvalidatedError):
            session.step()
        with pytest.raises(RefinementInvalidatedError):
            session.step()
        # Pre-mutation publications are untouched and keep their token.
        assert session.history() == [first]
        assert first.token == session.token

    def test_refresh_after_append_invalidates_mid_append_sessions(self, engine):
        query = AggregateQuery("t", "x", "count", 5.0, 40.0)
        engine.append_rows("t", {"x": np.asarray([3, 9])})
        stale_session = RefinementSession(engine, query)
        stale_session.step()
        engine.refresh_stale()
        with pytest.raises(RefinementInvalidatedError):
            stale_session.step()
        # A fresh session under the post-refresh token completes fine.
        chain = RefinementSession(engine, query).run_to_exact()
        assert chain[-1].stage == "exact"
        assert chain[-1].estimate == engine.execute_exact(query)

    def test_cached_interval_dies_with_its_token(self, engine):
        catalog = CatalogView(engine)
        cache = AnswerCache(capacity=8)
        query = AggregateQuery("t", "x", "sum", 5.0, 40.0)
        session = RefinementSession(engine, query)
        answer = session.run_to_exact()[-1]
        key = _cache_key(query)
        cache.put(key, answer.token, answer.as_result(), stage_rank=3)
        assert cache.get(key, catalog.answer_token("t", "x")) is not None
        engine.append_rows("t", {"x": np.asarray([3, 9])})
        assert cache.get(key, catalog.answer_token("t", "x")) is None

    def test_compaction_that_rebuilds_invalidates_in_flight(self, engine):
        """If compact_all_shards actually changes the entry (token
        moves), in-flight sessions must die; if it is a no-op, they
        must keep working."""
        catalog = CatalogView(engine)
        query = AggregateQuery("t", "x", "avg", 5.0, 40.0)
        session = RefinementSession(engine, query)
        session.step()
        before = catalog.answer_token("t", "x")
        engine.compact_all_shards()
        if catalog.answer_token("t", "x") != before:
            with pytest.raises(RefinementInvalidatedError):
                session.step()
        else:
            chain = session.run_to_exact()
            assert chain[-1].estimate == engine.execute_exact(query)
