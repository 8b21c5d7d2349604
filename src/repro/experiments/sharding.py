"""Incremental-refresh study: dirty-shard rebuild vs. full rebuild.

The point of sharding the synopsis catalog is maintenance cost: a
steady append workload invalidates synopses continuously, and the
monolithic ``refresh_stale`` pays the full O(n^2 B) DP rebuild each
time.  This harness appends a batch of rows confined to one shard's
value range and times the sharded engine's dirty-shard refresh against
the monolithic engine's full rebuild of the same column — the workload
behind the ``bench-refresh`` CLI command and the sharded-refresh
benchmark gate.  :func:`run_compaction_demo` backs the ``compact`` CLI
command: it folds the cold head of a hot-tail workload into coarser
shards.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.engine.compaction import CompactionPolicy
from repro.engine.engine import AggregateQuery, ApproximateQueryEngine
from repro.engine.table import Table
from repro.errors import InvalidParameterError


@dataclass(frozen=True)
class RefreshBenchmarkResult:
    """Timings of one incremental-vs-full refresh comparison."""

    row_count: int
    domain: int
    shards: int
    append_count: int
    method: str
    budget_words: int
    monolithic_seconds: float
    incremental_seconds: float
    shards_rebuilt: int
    aligned_max_abs_error: float

    @property
    def speedup(self) -> float:
        return (
            self.monolithic_seconds / self.incremental_seconds
            if self.incremental_seconds
            else 0.0
        )

    def summary(self) -> str:
        return (
            f"{self.shards}-shard {self.method} over domain {self.domain} "
            f"({self.row_count} rows, {self.append_count} appended): "
            f"full rebuild {self.monolithic_seconds:.3f}s, incremental "
            f"refresh {self.incremental_seconds:.4f}s "
            f"({self.shards_rebuilt} shard(s) rebuilt), "
            f"speedup {self.speedup:.1f}x"
        )

    def to_dict(self) -> dict:
        return {
            "row_count": self.row_count,
            "domain": self.domain,
            "shards": self.shards,
            "append_count": self.append_count,
            "method": self.method,
            "budget_words": self.budget_words,
            "monolithic_seconds": self.monolithic_seconds,
            "incremental_seconds": self.incremental_seconds,
            "shards_rebuilt": self.shards_rebuilt,
            "aligned_max_abs_error": self.aligned_max_abs_error,
            "speedup": self.speedup,
        }


def run_refresh_benchmark(
    *,
    row_count: int = 200_000,
    domain: int = 2048,
    shards: int = 64,
    append_count: int = 2_000,
    method: str = "sap1",
    budget_words: int = 1024,
    seed: int = 17,
    fallback=None,
    deadline_ms: float | None = None,
) -> RefreshBenchmarkResult:
    """Time an incremental dirty-shard refresh against a full rebuild.

    Two engines summarise the same uniform integer column — one
    monolithic, one with ``shards`` shards — then both receive the same
    append batch whose values are confined to a single shard's value
    range, and both call ``refresh_stale()``.  The monolithic engine
    rebuilds the whole synopsis; the sharded engine rebuilds exactly the
    dirty shard.  ``aligned_max_abs_error`` checks the refreshed sharded
    synopsis still answers shard-aligned COUNT ranges exactly.
    """
    if row_count < 1 or domain < shards or shards < 2:
        raise InvalidParameterError(
            "need row_count >= 1, shards >= 2, and domain >= shards"
        )
    rng = np.random.default_rng(seed)
    values = rng.integers(0, domain, row_count)
    # Pin the extremes so appends cannot widen the domain.
    values[0], values[1] = 0, domain - 1

    monolithic = ApproximateQueryEngine(predict_errors=False)
    sharded = ApproximateQueryEngine(predict_errors=False)
    for engine, shard_count in ((monolithic, 1), (sharded, shards)):
        engine.register_table(Table("traffic", {"value": values.copy()}))
        engine.build_synopsis(
            "traffic",
            "value",
            method=method,
            budget_words=budget_words,
            shards=shard_count,
            fallback=fallback,
            deadline_ms=deadline_ms,
        )

    entry = sharded._synopses[("traffic", "value")]
    starts = entry.count_estimator.starts
    target_shard = int(shards // 2)
    axis = entry.statistics.values_axis
    shard_lo = float(axis[int(starts[target_shard])])
    shard_hi = float(axis[int(starts[target_shard + 1]) - 1])
    appended = rng.integers(int(shard_lo), int(shard_hi) + 1, append_count)

    monolithic.append_rows("traffic", {"value": appended})
    sharded.append_rows("traffic", {"value": appended})

    begin = time.perf_counter()
    monolithic.refresh_stale(fallback=fallback, deadline_ms=deadline_ms)
    monolithic_seconds = time.perf_counter() - begin

    begin = time.perf_counter()
    sharded.refresh_stale(fallback=fallback, deadline_ms=deadline_ms)
    incremental_seconds = time.perf_counter() - begin
    shards_rebuilt = int(sharded.stats()["dirty_shards_rebuilt"])

    # Shard-aligned ranges must stay exact after the refresh.
    refreshed = sharded._synopses[("traffic", "value")]
    aligned_max_abs_error = 0.0
    probe_starts = refreshed.count_estimator.starts
    for shard in range(0, refreshed.count_estimator.num_shards, max(shards // 8, 1)):
        low = float(axis[int(probe_starts[shard])])
        high = float(axis[int(probe_starts[-1]) - 1])
        result = sharded.execute(
            AggregateQuery("traffic", "value", "count", low, high), with_exact=True
        )
        aligned_max_abs_error = max(aligned_max_abs_error, result.absolute_error)

    return RefreshBenchmarkResult(
        row_count=row_count,
        domain=domain,
        shards=shards,
        append_count=append_count,
        method=method,
        budget_words=budget_words,
        monolithic_seconds=monolithic_seconds,
        incremental_seconds=incremental_seconds,
        shards_rebuilt=shards_rebuilt,
        aligned_max_abs_error=aligned_max_abs_error,
    )


@dataclass(frozen=True)
class CompactionDemoResult:
    """Outcome of one policy-driven compaction pass over a hot-tail workload."""

    shards_before: int
    shards_after: int
    shards_merged: int
    generation: int
    runs: list
    heat: list
    max_abs_drift: float

    def summary(self) -> str:
        return (
            f"compacted {self.shards_before} -> {self.shards_after} shards "
            f"({self.shards_merged} merged across {len(self.runs)} run(s), "
            f"generation {self.generation}); max |answer drift| "
            f"{self.max_abs_drift:.3g}"
        )

    def to_dict(self) -> dict:
        return {
            "shards_before": self.shards_before,
            "shards_after": self.shards_after,
            "shards_merged": self.shards_merged,
            "generation": self.generation,
            "runs": self.runs,
            "heat": self.heat,
            "max_abs_drift": self.max_abs_drift,
        }


def run_compaction_demo(
    *,
    row_count: int = 50_000,
    domain: int = 1024,
    shards: int = 32,
    append_count: int = 2_000,
    method: str = "a0",
    budget_words: int = 8192,
    hot_tail_shards: int = 4,
    max_run_length: int = 8,
    seed: int = 29,
) -> CompactionDemoResult:
    """Append into the domain tail, then compact the cold head.

    Builds one sharded column, streams ``append_count`` rows whose
    values live in the last shard's range (the classic time-series
    hot tail), and runs the heat-driven compaction policy: the cold
    head shards merge into coarser runs while the hot tail keeps its
    resolution.  ``max_abs_drift`` compares shard-aligned answers on
    the *surviving* boundaries before and after the compaction swap —
    with an exact builder (the ``a0`` default at a generous budget) it
    is ``0.0``.
    """
    if shards < 4 or domain < shards:
        raise InvalidParameterError("need shards >= 4 and domain >= shards")
    rng = np.random.default_rng(seed)
    values = rng.integers(0, domain, row_count)
    values[0], values[1] = 0, domain - 1
    engine = ApproximateQueryEngine(predict_errors=False)
    engine.register_table(Table("events", {"value": values}))
    engine.build_synopsis(
        "events", "value", method=method, budget_words=budget_words, shards=shards
    )
    synopsis = engine._synopses[("events", "value")].count_estimator
    tail_low = int(synopsis.starts[-2])
    engine.append_rows(
        "events", {"value": rng.integers(tail_low, domain, append_count)}
    )
    heat = engine.shard_heat()["events.value"]

    policy = CompactionPolicy(
        hot_tail_shards=hot_tail_shards, max_run_length=max_run_length
    )
    before = engine._synopses[("events", "value")].count_estimator
    queries = [
        AggregateQuery("events", "value", "count", int(low), int(high))
        for low, high in zip(before.starts[:-1:4], before.starts[4::4] - 1)
    ]
    answers_before = [
        engine.execute(q, on_stale="serve").estimate for q in queries
    ]
    report = engine.compact_shards("events", "value", policy=policy)
    if report is None:
        raise InvalidParameterError(
            "workload produced no cold runs; lower hot_tail_shards"
        )
    after = engine._synopses[("events", "value")].count_estimator
    answers_after = [
        engine.execute(q, on_stale="serve").estimate for q in queries
    ]
    drift = float(
        np.max(np.abs(np.asarray(answers_after) - np.asarray(answers_before)))
    )
    return CompactionDemoResult(
        shards_before=report["shards_before"],
        shards_after=after.num_shards,
        shards_merged=report["shards_merged"],
        generation=report["generation"],
        runs=report["runs"],
        heat=heat,
        max_abs_drift=drift,
    )
