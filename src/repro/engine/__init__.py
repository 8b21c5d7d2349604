"""Approximate query processing substrate.

The paper motivates its synopses with selectivity estimation inside
database engines (query optimisers, AQUA-style approximate answering,
online aggregation).  This package provides that surrounding system in
miniature: an in-memory column store (:mod:`table`), attribute-value
distributions (:mod:`column`), a catalog of per-column synopses built
under a global space budget with exact and approximate executors
(:mod:`engine`), a small SQL dialect for range aggregates (:mod:`sql`),
and binary (de)serialisation of synopses (:mod:`storage`).
"""

from repro.engine.batch import BatchQuery
from repro.engine.column import ColumnStatistics, JointColumnStatistics
from repro.engine.table import Table
from repro.engine.engine import (
    AggregateQuery,
    ApproximateQueryEngine,
    QuantileQuery,
    QuantileResult,
    QueryResult,
)
from repro.engine.grouped import GroupedAggregateQuery, GroupResult
from repro.engine.joint import JOINT_METHODS, JointAggregateQuery
from repro.engine.persistence import load_catalog, save_catalog
from repro.engine.advisor import AdvisorChoice, best_method, recommend
from repro.engine.resilience import (
    DEGRADATION_LEVELS,
    ESTIMATES_ONLY,
    SERVE_ANYTHING,
    STRICT,
    CircuitBreaker,
    Deadline,
    DegradationPolicy,
    FallbackChain,
    FallbackStage,
    FaultInjector,
    deadline_scope,
)
from repro.engine.compaction import BackgroundCompactor, CompactionPolicy, plan_runs
from repro.engine.optimizer import (
    BackgroundOptimizer,
    ObservedWorkload,
    run_optimization,
)
from repro.engine.sharding import (
    ShardedSynopsis,
    build_sharded,
    shard_boundaries,
)
from repro.engine.simulator import SimulationReport, TrafficSpec, simulate_traffic
from repro.engine.sql import parse_query
from repro.engine.storage import deserialize_estimator, serialize_estimator

__all__ = [
    "BatchQuery",
    "ColumnStatistics",
    "JointColumnStatistics",
    "JointAggregateQuery",
    "GroupedAggregateQuery",
    "GroupResult",
    "save_catalog",
    "load_catalog",
    "JOINT_METHODS",
    "Table",
    "ApproximateQueryEngine",
    "AggregateQuery",
    "QueryResult",
    "QuantileQuery",
    "QuantileResult",
    "parse_query",
    "recommend",
    "best_method",
    "AdvisorChoice",
    "simulate_traffic",
    "TrafficSpec",
    "SimulationReport",
    "serialize_estimator",
    "deserialize_estimator",
    "ShardedSynopsis",
    "build_sharded",
    "shard_boundaries",
    "BackgroundCompactor",
    "CompactionPolicy",
    "plan_runs",
    "BackgroundOptimizer",
    "ObservedWorkload",
    "run_optimization",
    "CircuitBreaker",
    "Deadline",
    "deadline_scope",
    "DegradationPolicy",
    "DEGRADATION_LEVELS",
    "ESTIMATES_ONLY",
    "SERVE_ANYTHING",
    "STRICT",
    "FallbackChain",
    "FallbackStage",
    "FaultInjector",
]
