"""Per-layer metrics of the traced run.

:func:`install` wraps the public entry point of each layer for the
traced phase; :func:`layer_metrics` turns the spans and the counter
deltas of ``stats()`` into the ``per_layer`` metrics of BENCHMARK.json.
Read-path layers are measured over the timed traced phase only; the
mutation layers (append, refresh, writer) over every traced cycle.
"""

from __future__ import annotations

import time

from perfbench.percentiles import percentile
from perfbench.tracing import END, ITEMS, NAME, PARENT, SPAN_ID, START, self_times
from repro.engine.engine import ApproximateQueryEngine
from repro.engine.sharding import ShardedSynopsis
from repro.serving import QueryServer
from repro.serving.coalescer import RequestCoalescer

CLIENT_SPANS = ("client.batch", "client.panel", "client.read")


def install(tracer, shard_estimator_type) -> None:
    """Wrap each layer's public entry points (restored by ``unwrap_all``)."""
    sized = lambda args, kwargs: len(args[1])  # noqa: E731

    def flushed(args, batch) -> None:
        now = time.monotonic()
        if batch:
            tracer.count("flush.batches")
            tracer.count("flush.requests", len(batch))
            tracer.sample("queue_wait", [now - request.enqueued_at for request in batch])

    tracer.wrap(QueryServer, "submit", "server.admit", items=lambda a, k: 1)
    tracer.wrap(QueryServer, "submit_many", "server.admit", items=sized)
    tracer.wrap(RequestCoalescer, "next_batch", None, after=flushed)
    tracer.wrap(ApproximateQueryEngine, "execute_batch", "batch", items=sized)
    tracer.wrap(ShardedSynopsis, "estimate_many", "sharding", items=sized)
    tracer.wrap(ShardedSynopsis, "interior_sum_many", "sharding.interior", items=sized)
    tracer.wrap(shard_estimator_type, "estimate_many", "shard", items=sized)
    tracer.wrap(ApproximateQueryEngine, "append_rows", "append")
    tracer.wrap(ApproximateQueryEngine, "refresh_stale", "refresh")


def _delta(before: dict, after: dict, *path) -> float:
    def dig(stats):
        for key in path:
            if not isinstance(stats, dict) or key not in stats:
                return 0
            stats = stats[key]
        return stats

    return float(dig(after)) - float(dig(before))


def _restarts(stats: dict) -> float:
    slots = stats.get("pool", {}).get("supervisor", {})
    return float(sum(slot["restarts"] for slot in slots.values()))


def _per(total: float, count: float) -> float:
    return total / count if count else 0.0


def _p(values, q: float) -> float:
    return percentile(values, q) if len(values) else 0.0


def layer_metrics(tracer, *, window, read, before, engine_after, lag, freshness, setup, pool,
                  snapshot_bytes, aligned_share, overhead_pct) -> dict[str, float]:
    """All per-layer metrics; layers a workload does not run report 0.

    ``read`` holds the server stats, tracer counters and queue waits at
    the end of the timed phase; ``before`` the server and engine stats at
    its start.  ``aligned_share`` comes from the inputs the clients sent
    in the timed phase, not from a hook on the hot path.
    """
    start, end = window
    spans = tracer.spans
    by_id = {span[SPAN_ID]: span for span in spans}
    selfs = self_times(spans)
    in_window = [span for span in spans if start <= span[START] <= end]

    def named(name, parent=None):
        return [
            span for span in in_window
            if span[NAME] == name
            and (parent is None or span[PARENT] in by_id and by_id[span[PARENT]][NAME] == parent)
        ]

    def served(*path) -> float:
        return _delta(before["server"], read["server"], *path)

    batches = named("batch")
    sharding = named("sharding", parent="batch")
    interior = named("sharding.interior", parent="sharding")
    shard_calls = named("shard", parent="sharding")
    admits = named("server.admit")
    queries = sum(span[ITEMS] for span in batches)
    busy = lambda items: sum(span[END] - span[START] for span in items)  # noqa: E731
    own = lambda items: sum(selfs[span[SPAN_ID]] for span in items)  # noqa: E731

    clients = [span for span in in_window if span[NAME] in CLIENT_SPANS]
    client_time = busy(clients)
    layer_self = own(admits) + own(batches) + own(sharding) + own(interior) + own(shard_calls)

    refreshes = [span for span in spans if span[NAME] == "refresh"]
    appends = [span for span in spans if span[NAME] == "append"]
    shards_rebuilt = _delta(before["engine"], engine_after, "dirty_shards_rebuilt")
    counters = read["counters"]
    waits_ms = [wait * 1e3 for wait in read["queue_waits"]]
    hits, misses = served("cache", "hits"), served("cache", "misses")
    dispatched = served("pool", "dispatched")
    return {
        "batch.calls": float(len(batches)),
        "batch.queries_per_call": _per(queries, len(batches)),
        "batch.busy_us_per_query": _per(busy(batches), queries) * 1e6,
        "batch.self_us_per_query": _per(own(batches), queries) * 1e6,
        "sharding.busy_us_per_query": _per(busy(sharding), queries) * 1e6,
        "sharding.self_us_per_query": _per(own(sharding), queries) * 1e6,
        "sharding.shard_calls_per_query": _per(len(shard_calls), queries),
        "sharding.interior_us_per_query": _per(busy(interior), queries) * 1e6,
        "sharding.aligned_share": aligned_share,
        "server.admit_us_p50": _p([(s[END] - s[START]) * 1e6 for s in admits], 50),
        "server.queue_wait_ms_p50": _p(waits_ms, 50),
        "server.queue_wait_ms_p95": _p(waits_ms, 95),
        "server.flush_batch_size_mean": _per(counters.get("flush.requests", 0), counters.get("flush.batches", 0)),
        "server.shed_ops": sum(
            served("shed", rung) for rung in ("stale", "fallback", "progressive", "rejected")
        ),
        "cache.hit_ratio": _per(hits, hits + misses),
        "cache.invalidated": served("cache", "invalidated"),
        "pool.ready_s": setup["start_s"] if pool else 0.0,
        "pool.snapshot_bytes": float(snapshot_bytes),
        "pool.dispatched_batches": dispatched,
        "pool.queries_per_dispatch": _per(served("served"), dispatched),
        "pool.retries": served("pool", "retries"),
        "pool.restarts": _restarts(read["server"]) - _restarts(before["server"]),
        "pool.parent_recomputed": served("pool", "parent_recomputed"),
        "append.ms_p50": _p([(s[END] - s[START]) * 1e3 for s in appends], 50),
        "refresh.ms_p50": _p([(s[END] - s[START]) * 1e3 for s in refreshes], 50),
        "refresh.ms_p75": _p([(s[END] - s[START]) * 1e3 for s in refreshes], 75),
        "refresh.shards_per_call": _per(shards_rebuilt, len(refreshes)),
        "writer.lag_ms_p75": _p([value * 1e3 for value in lag], 75),
        "freshness.ms_p50": _p([value * 1e3 for value in freshness], 50),
        "freshness.ms_p75": _p([value * 1e3 for value in freshness], 75),
        # Two synopses (COUNT and SUM) rebuild per dirty shard.
        "core.shard_build_ms": _per(busy(refreshes), 2 * shards_rebuilt) * 1e3,
        "setup.build_s": setup["build_s"],
        "setup.start_s": setup["start_s"],
        "trace.overhead_pct": overhead_pct,
        "trace.unattributed_pct": 100.0 * _per(client_time - layer_self, client_time),
    }
