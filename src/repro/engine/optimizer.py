"""Workload-adaptive budget optimisation: closing the audit loop.

The paper's builders optimise for the uniform all-ranges workload; the
serving tier observes the *actual* query mix through the
:class:`~repro.observability.ErrorAuditor`'s sampled audits.  This
module closes the loop audit → optimise → targeted rebuild, in the
spirit of Storyboard's global budget optimisation across segments
(Gan–Bailis–Charikar, PAPERS.md):

* :class:`ObservedWorkload` reservoir-samples the index-space ranges of
  audited queries per ``(table, column, aggregate)`` and materialises
  them as a weighted :class:`~repro.queries.workload.Workload`;
* :func:`run_optimization` reallocates each sharded column's word
  budget across shards with
  :func:`~repro.core.builders.split_budget_by_workload` (rebuilding
  only the worst-misallocated shards through
  :meth:`~repro.engine.sharding.ShardedSynopsis.with_rebuilt_shards`,
  conserving the column total exactly), and optionally moves budget
  *between* columns by observed-SSE-per-word, re-choosing monolithic
  columns' methods through :mod:`repro.engine.advisor` scored on the
  observed workload (with the ``workload-a0`` builder as a candidate);
* :class:`BackgroundOptimizer` drives
  :meth:`~repro.engine.engine.ApproximateQueryEngine.optimize_budgets`
  on a daemon thread, mirroring
  :class:`~repro.engine.compaction.BackgroundCompactor`, and republishes
  a serving pool's shared catalog after rebuilds.

Shard-level reallocation re-summarises the entry's *frozen* frequency
snapshot (exactly like compaction), so it neither loses nor gains
staleness; column-level moves rebuild from the live table and clear
staleness like any full build.  See ``docs/ADAPTIVITY.md``.
"""

from __future__ import annotations

import threading
from dataclasses import replace

import numpy as np

from repro.core.builders import (
    BUILDER_REGISTRY,
    _apportion_budget,
    aggregate_shard_predictions,
    split_budget_by_workload,
)
from repro.engine.sharding import ShardedSynopsis
from repro.errors import InvalidParameterError, ReproError
from repro.queries.workload import Workload

__all__ = ["ObservedWorkload", "BackgroundOptimizer", "run_optimization"]

#: Aggregates the recorder keys on (AVG audits record under both).
_RECORDED_AGGREGATES = ("count", "sum")


class ObservedWorkload:
    """Reservoir-sampled observed query ranges per (table, column, aggregate).

    Each key holds an algorithm-R reservoir of up to ``capacity``
    index-space ``(low, high)`` ranges plus the total number of ranges
    ever offered, so the sample stays uniform over the whole observation
    stream at O(capacity) memory per key.  Thread-safe: the engine
    records from whatever thread runs the audited query.
    """

    def __init__(self, capacity: int = 512, seed: int = 0) -> None:
        if int(capacity) < 1:
            raise InvalidParameterError(
                f"reservoir capacity must be >= 1, got {capacity}"
            )
        self.capacity = int(capacity)
        self._seed = int(seed)
        self._rng = np.random.default_rng(self._seed)
        self._lock = threading.Lock()
        self._reservoirs: dict[tuple[str, str, str], list[tuple[int, int]]] = {}
        self._seen: dict[tuple[str, str, str], int] = {}

    def record_many(self, key: tuple[str, str, str], lows, highs) -> None:
        """Offer a batch of clipped index-space ranges to ``key``'s reservoir."""
        lows = np.asarray(lows, dtype=np.int64)
        highs = np.asarray(highs, dtype=np.int64)
        if lows.shape != highs.shape or lows.ndim != 1:
            raise InvalidParameterError("lows and highs must be parallel 1-D arrays")
        with self._lock:
            reservoir = self._reservoirs.setdefault(key, [])
            seen = self._seen.get(key, 0)
            for low, high in zip(lows.tolist(), highs.tolist()):
                if len(reservoir) < self.capacity:
                    reservoir.append((low, high))
                else:
                    slot = int(self._rng.integers(0, seen + 1))
                    if slot < self.capacity:
                        reservoir[slot] = (low, high)
                seen += 1
            self._seen[key] = seen

    def record(self, key: tuple[str, str, str], low: int, high: int) -> None:
        self.record_many(key, [low], [high])

    def keys(self) -> list[tuple[str, str, str]]:
        with self._lock:
            return sorted(self._reservoirs)

    def seen(self, key: tuple[str, str, str]) -> int:
        """Total ranges ever offered under ``key`` (not just the sample)."""
        with self._lock:
            return self._seen.get(key, 0)

    def sampled(self, key: tuple[str, str, str]) -> int:
        with self._lock:
            return len(self._reservoirs.get(key, ()))

    def clear(self, key: tuple[str, str, str] | None = None) -> None:
        with self._lock:
            if key is None:
                self._reservoirs.clear()
                self._seen.clear()
            else:
                self._reservoirs.pop(key, None)
                self._seen.pop(key, None)

    def workload_for(self, key: tuple[str, str, str], n: int) -> Workload | None:
        """The reservoir as a weighted workload over domain ``[0, n)``.

        Distinct ranges collapse to one query weighted by multiplicity.
        Ranges outside the current domain (recorded before a domain
        change) are dropped; returns ``None`` when nothing usable
        remains.
        """
        with self._lock:
            ranges = list(self._reservoirs.get(key, ()))
        counts: dict[tuple[int, int], int] = {}
        for low, high in ranges:
            if 0 <= low <= high < n:
                counts[(low, high)] = counts.get((low, high), 0) + 1
        if not counts:
            return None
        ordered = sorted(counts)
        return Workload(
            n=int(n),
            lows=np.array([low for low, _ in ordered], dtype=np.int64),
            highs=np.array([high for _, high in ordered], dtype=np.int64),
            weights=np.array([counts[r] for r in ordered], dtype=np.float64),
        )

    def column_workload(self, table: str, column: str, n: int) -> Workload | None:
        """Merged workload over every aggregate recorded for one column."""
        parts = [
            self.workload_for((table, column, aggregate), n)
            for aggregate in _RECORDED_AGGREGATES
        ]
        parts = [part for part in parts if part is not None]
        if not parts:
            return None
        if len(parts) == 1:
            return parts[0]
        merged: dict[tuple[int, int], float] = {}
        for part in parts:
            for low, high, weight in zip(
                part.lows.tolist(), part.highs.tolist(), part.weights.tolist()
            ):
                merged[(low, high)] = merged.get((low, high), 0.0) + weight
        ordered = sorted(merged)
        return Workload(
            n=int(n),
            lows=np.array([low for low, _ in ordered], dtype=np.int64),
            highs=np.array([high for _, high in ordered], dtype=np.int64),
            weights=np.array([merged[r] for r in ordered], dtype=np.float64),
        )

    def snapshot(self) -> dict[str, dict]:
        """JSON-ready per-key observation counts for observability."""
        with self._lock:
            return {
                f"{table}.{column}/{aggregate}": {
                    "seen": self._seen.get(key, 0),
                    "sampled": len(reservoir),
                }
                for key, reservoir in sorted(self._reservoirs.items())
                for table, column, aggregate in [key]
            }

    def state_dict(self) -> dict:
        """Serialisable recorder state (reservoirs + stream counts).

        The RNG is re-seeded on load, so a restored recorder resumes
        *a* valid uniform sampling stream rather than the bit-exact one
        — reservoir contents and seen-counts survive, which is what the
        optimiser consumes.
        """
        with self._lock:
            return {
                "version": 1,
                "capacity": self.capacity,
                "seed": self._seed,
                "keys": [
                    {
                        "table": key[0],
                        "column": key[1],
                        "aggregate": key[2],
                        "seen": self._seen.get(key, 0),
                        "lows": [low for low, _ in reservoir],
                        "highs": [high for _, high in reservoir],
                    }
                    for key, reservoir in sorted(self._reservoirs.items())
                ],
            }

    def load_state_dict(self, state: dict) -> None:
        """Replace this recorder's contents with a serialised state."""
        if not isinstance(state, dict) or state.get("version") != 1:
            raise InvalidParameterError(
                "unrecognised observed-workload state (expected version 1)"
            )
        capacity = int(state.get("capacity", 0))
        if capacity < 1:
            raise InvalidParameterError(
                f"state capacity must be >= 1, got {capacity}"
            )
        reservoirs: dict[tuple[str, str, str], list[tuple[int, int]]] = {}
        seen: dict[tuple[str, str, str], int] = {}
        for row in state.get("keys", []):
            key = (str(row["table"]), str(row["column"]), str(row["aggregate"]))
            lows = [int(v) for v in row["lows"]]
            highs = [int(v) for v in row["highs"]]
            if len(lows) != len(highs) or len(lows) > capacity:
                raise InvalidParameterError(
                    f"corrupt reservoir for {key}: {len(lows)} lows, "
                    f"{len(highs)} highs, capacity {capacity}"
                )
            reservoirs[key] = list(zip(lows, highs))
            seen[key] = max(int(row.get("seen", len(lows))), len(lows))
        with self._lock:
            self.capacity = capacity
            self._seed = int(state.get("seed", 0))
            self._rng = np.random.default_rng(self._seed)
            self._reservoirs = reservoirs
            self._seen = seen


def _shard_budget_plan(
    estimator: ShardedSynopsis,
    frequencies: np.ndarray,
    workload: Workload,
    *,
    max_shard_rebuilds: int,
    min_shift_fraction: float,
    context: str,
):
    """Plan one aggregate's shard-budget move toward its workload split.

    Computes the full workload-weighted target, picks the (at most
    ``max_shard_rebuilds``) worst-misallocated shards, and re-apportions
    only *their pooled current budget* among them in proportion to their
    targets — untouched shards keep their budgets, so the column total
    is conserved exactly no matter how few shards rebuild.  Returns
    ``(new_budgets, rebuild_ids)`` or ``None`` when no shard's budget
    would shift by at least ``min_shift_fraction`` of its current value.
    """
    current = estimator.budgets
    targets = split_budget_by_workload(
        estimator.method,
        frequencies,
        estimator.starts,
        int(current.sum()),
        workload,
        context=context,
    )
    diff = targets - current
    relative = np.abs(diff) / np.maximum(current, 1)
    candidates = np.nonzero((diff != 0) & (relative >= min_shift_fraction))[0]
    if candidates.size < 2:
        return None
    # Worst offenders first; deterministic tie-break by shard id.
    order = np.lexsort((candidates, -np.abs(diff[candidates])))
    chosen = np.sort(candidates[order][: max(int(max_shard_rebuilds), 2)])
    if not (np.any(diff[chosen] > 0) and np.any(diff[chosen] < 0)):
        # All gainers or all donors: redistribution within the set
        # cannot move words while conserving the total.
        return None
    floor = BUILDER_REGISTRY[estimator.method].words_per_unit
    pooled = int(current[chosen].sum())
    weights = targets[chosen].astype(np.float64)
    new_chosen = _apportion_budget(weights / weights.sum(), pooled, floor)
    new_budgets = current.copy()
    new_budgets[chosen] = new_chosen
    rebuild_ids = sorted(int(s) for s in chosen[new_chosen != current[chosen]])
    if not rebuild_ids:
        return None
    return new_budgets, rebuild_ids


def _optimize_shards_for_key(
    engine,
    key: tuple[str, str],
    *,
    min_samples: int,
    max_shard_rebuilds: int,
    min_shift_fraction: float,
) -> dict | None:
    """Reallocate one sharded column's budgets toward its observed workload.

    Mirrors :meth:`~repro.engine.engine.ApproximateQueryEngine.compact_shards`:
    rebuilds run over the entry's *frozen* frequency snapshot and swap
    in copy-on-write, preserving staleness; the build id bumps so answer
    -cache tokens stop validating.
    """
    entry = engine._synopses[key]
    table_name, column_name = key
    plans = {}
    for aggregate, estimator, frequencies in (
        ("count", entry.count_estimator, entry.statistics.count_frequencies),
        ("sum", entry.sum_estimator, entry.statistics.sum_frequencies),
    ):
        audit_key = (table_name, column_name, aggregate)
        if engine.observed_workload.seen(audit_key) < min_samples:
            continue
        workload = engine.observed_workload.workload_for(audit_key, estimator.n)
        if workload is None:
            continue
        observed = engine.auditor.observed(audit_key)
        if observed is not None:
            engine.metrics.gauge(
                "optimizer_observed_sse_per_query",
                table=table_name,
                column=column_name,
                aggregate=aggregate,
            ).set(observed.sse_per_query)
        prediction = engine._predicted_for(key, aggregate)
        if prediction is not None:
            engine.metrics.gauge(
                "optimizer_predicted_sse_per_query",
                table=table_name,
                column=column_name,
                aggregate=aggregate,
            ).set(prediction.sse_per_query)
        try:
            plan = _shard_budget_plan(
                estimator,
                frequencies,
                workload,
                max_shard_rebuilds=max_shard_rebuilds,
                min_shift_fraction=min_shift_fraction,
                context=f"{table_name}.{column_name}/{aggregate}",
            )
        except ReproError:
            # Degenerate signal (e.g. zero-weight after domain change):
            # skip this aggregate rather than failing the sweep.
            continue
        if plan is not None:
            plans[aggregate] = plan
    if not plans:
        return None

    def _observe_shard(shard: int, seconds: float) -> None:
        engine.metrics.histogram("shard_build_seconds").observe(seconds)

    rebuilt = 0
    moved_words = 0
    per_aggregate = {}
    with engine.tracer.span(
        "optimize_shards",
        table=table_name,
        column=column_name,
        aggregates=len(plans),
    ) as span:
        estimators = {
            "count": entry.count_estimator,
            "sum": entry.sum_estimator,
        }
        frequencies = {
            "count": entry.statistics.count_frequencies,
            "sum": entry.statistics.sum_frequencies,
        }
        for aggregate, (new_budgets, rebuild_ids) in plans.items():
            old = estimators[aggregate].budgets
            estimators[aggregate] = estimators[aggregate].with_rebuilt_shards(
                rebuild_ids,
                frequencies[aggregate],
                predict=engine.predict_errors,
                on_shard_built=_observe_shard,
                budgets=new_budgets,
                **entry.builder_kwargs,
            )
            shifted = int(np.abs(new_budgets - old).sum()) // 2
            rebuilt += len(rebuild_ids)
            moved_words += shifted
            per_aggregate[aggregate] = {
                "shards_rebuilt": rebuild_ids,
                "words_moved": shifted,
            }
        span.set(shards_rebuilt=rebuilt, words_moved=moved_words)
    count_est = estimators["count"]
    sum_est = estimators["sum"]
    predicted = None
    if engine.predict_errors:
        predicted = {
            "count": aggregate_shard_predictions(
                count_est.shard_predictions, np.diff(count_est.starts)
            ),
            "sum": aggregate_shard_predictions(
                sum_est.shard_predictions, np.diff(sum_est.starts)
            ),
        }
    engine._synopses[key] = replace(
        entry,
        count_estimator=count_est,
        sum_estimator=sum_est,
        predicted=predicted,
    )
    engine._invalidate_predictions(key)
    engine.metrics.counter("optimizer_reallocations_total").inc()
    engine.metrics.counter("optimizer_rebuilds_total").inc(rebuilt)
    stale_since = (engine._build_meta.get(key) or {}).get("stale_since")
    engine._record_build(key, entry.method, span.duration or 0.0)
    if key in engine._stale:
        # The reallocation re-summarises the frozen snapshot: a stale
        # entry stays stale, with its original stale_since intact.
        engine._build_meta[key]["stale_since"] = stale_since
    return {
        "table": table_name,
        "column": column_name,
        "shards_rebuilt": rebuilt,
        "words_moved": moved_words,
        "aggregates": per_aggregate,
    }


def _choose_column_method(
    engine,
    key: tuple[str, str],
    entry,
    new_budget: int,
    *,
    candidates,
    sample_queries: int,
):
    """Pick a (method, builder_kwargs) for one column's full rebuild.

    Monolithic columns with an observed workload are re-advised on that
    workload, with ``workload-a0`` joining the candidate pool on
    DP-sized domains; sharded columns keep their recorded method (their
    adaptivity lives in the per-shard budget split).
    """
    from repro.core.workload_aware import MAX_DOMAIN
    from repro.engine.advisor import DEFAULT_CANDIDATES, recommend

    if isinstance(entry.count_estimator, ShardedSynopsis):
        return entry.method, dict(entry.builder_kwargs)
    n = int(entry.statistics.domain_size)
    observed = engine.observed_workload.column_workload(key[0], key[1], n)
    if observed is None:
        return entry.method, dict(entry.builder_kwargs)
    pool = tuple(candidates) if candidates else DEFAULT_CANDIDATES
    candidate_kwargs: dict[str, dict] = {}
    if n <= MAX_DOMAIN:
        if "workload-a0" not in pool:
            pool = pool + ("workload-a0",)
        candidate_kwargs["workload-a0"] = {"workload": observed}
    elif "workload-a0" in pool:
        pool = tuple(m for m in pool if m != "workload-a0")
    half = max(new_budget // 2, 4)
    ranked = recommend(
        entry.statistics.count_frequencies,
        half,
        workload=observed,
        candidates=pool,
        candidate_kwargs=candidate_kwargs,
        sample_queries=sample_queries,
    )
    winner = next((choice for choice in ranked if choice.error is None), None)
    if winner is None:
        return entry.method, dict(entry.builder_kwargs)
    return winner.method, dict(candidate_kwargs.get(winner.method, {}))


def _reallocate_columns(
    engine,
    *,
    min_samples: int,
    max_column_shift: float,
    min_marginal_ratio: float,
    column_floor_words: int,
    candidates,
    sample_queries: int,
) -> list[dict]:
    """Move whole-column budgets toward the observed error mass.

    A column's *score* is its windowed observed squared error mass
    (SSE-per-query × audited samples, summed over aggregates); its
    *marginal value per word* is score/budget.  Budgets only move when
    the best/worst marginal ratio exceeds ``min_marginal_ratio`` —
    below that, a full-rebuild shuffle is not worth its cost.  Targets
    are proportional to sqrt(score) (damping extremes), floored at
    ``column_floor_words``, clamped to ±``max_column_shift`` of the old
    budget, and repaired word-by-word so the global total is conserved
    exactly.  Changed columns rebuild fully from the live table, with
    the method re-advised on the observed workload.
    """
    scores: dict[tuple[str, str], float] = {}
    for key in engine._synopses:
        samples = 0
        mass = 0.0
        for aggregate in _RECORDED_AGGREGATES:
            observed = engine.auditor.observed((key[0], key[1], aggregate))
            if observed is None:  # never audited under this aggregate
                continue
            samples += observed.samples
            mass += observed.sse_per_query * observed.samples
        if samples >= min_samples:
            scores[key] = mass
    if len(scores) < 2:
        return []
    keys = sorted(scores)
    budgets = np.array(
        [int(engine._synopses[k].budget_words) for k in keys], dtype=np.int64
    )
    mass = np.array([scores[k] for k in keys], dtype=np.float64)
    per_word = mass / np.maximum(budgets, 1)
    floor = int(column_floor_words)
    total = int(budgets.sum())
    if per_word.max() <= 0 or total < floor * len(keys):
        return []
    if per_word.max() / max(per_word.min(), 1e-12) < min_marginal_ratio:
        return []
    weights = np.sqrt(mass)
    if weights.sum() <= 0:
        return []
    targets = _apportion_budget(weights / weights.sum(), total, floor)
    shift_cap = np.maximum(
        (budgets * float(max_column_shift)).astype(np.int64), 1
    )
    new = np.clip(targets, budgets - shift_cap, budgets + shift_cap)
    new = np.maximum(new, floor)
    deficit = total - int(new.sum())
    while deficit != 0:
        if deficit > 0:
            gaps = np.where(new < targets, targets - new, 0)
            index = int(np.argmax(gaps)) if gaps.max() > 0 else int(np.argmin(new))
            new[index] += 1
            deficit -= 1
        else:
            gaps = np.where((new > targets) & (new > floor), new - targets, 0)
            if gaps.max() > 0:
                index = int(np.argmax(gaps))
            else:
                shrinkable = np.nonzero(new > floor)[0]
                if shrinkable.size == 0:
                    return []
                index = int(shrinkable[np.argmax(new[shrinkable])])
            new[index] -= 1
            deficit += 1
    actions: list[dict] = []
    for position, key in enumerate(keys):
        if int(new[position]) == int(budgets[position]):
            continue
        entry = engine._synopses[key]
        new_budget = int(new[position])
        method, builder_kwargs = _choose_column_method(
            engine,
            key,
            entry,
            new_budget,
            candidates=candidates,
            sample_queries=sample_queries,
        )
        engine.build_synopsis(
            key[0],
            key[1],
            method=method,
            budget_words=new_budget,
            shards=entry.shards,
            **builder_kwargs,
        )
        engine.metrics.counter("optimizer_reallocations_total").inc()
        engine.metrics.counter("optimizer_rebuilds_total").inc()
        actions.append(
            {
                "table": key[0],
                "column": key[1],
                "budget_before": int(budgets[position]),
                "budget_after": new_budget,
                "method_before": entry.method,
                "method_after": method,
            }
        )
    return actions


def run_optimization(
    engine,
    *,
    min_samples: int = 32,
    max_shard_rebuilds: int = 8,
    min_shift_fraction: float = 0.05,
    reallocate_columns: bool = True,
    max_column_shift: float = 0.25,
    min_marginal_ratio: float = 1.5,
    column_floor_words: int = 16,
    advisor_candidates=None,
    advisor_sample_queries: int = 512,
) -> dict:
    """One optimisation sweep over the engine's catalog.

    The implementation behind
    :meth:`~repro.engine.engine.ApproximateQueryEngine.optimize_budgets`;
    see that method for the knob semantics.
    """
    if min_samples < 1:
        raise InvalidParameterError(f"min_samples must be >= 1, got {min_samples}")
    if not 0.0 <= float(min_shift_fraction):
        raise InvalidParameterError(
            f"min_shift_fraction must be >= 0, got {min_shift_fraction}"
        )
    if not 0.0 < float(max_column_shift) <= 1.0:
        raise InvalidParameterError(
            f"max_column_shift must be in (0, 1], got {max_column_shift}"
        )
    if float(min_marginal_ratio) < 1.0:
        raise InvalidParameterError(
            f"min_marginal_ratio must be >= 1, got {min_marginal_ratio}"
        )
    shard_reports: list[dict] = []
    column_actions: list[dict] = []
    with engine.tracer.span(
        "optimize", columns=len(engine._synopses)
    ) as span:
        for key in sorted(engine._synopses):
            if not isinstance(
                engine._synopses[key].count_estimator, ShardedSynopsis
            ):
                continue
            report = _optimize_shards_for_key(
                engine,
                key,
                min_samples=min_samples,
                max_shard_rebuilds=max_shard_rebuilds,
                min_shift_fraction=min_shift_fraction,
            )
            if report is not None:
                shard_reports.append(report)
        if reallocate_columns:
            column_actions = _reallocate_columns(
                engine,
                min_samples=min_samples,
                max_column_shift=max_column_shift,
                min_marginal_ratio=min_marginal_ratio,
                column_floor_words=column_floor_words,
                candidates=advisor_candidates,
                sample_queries=advisor_sample_queries,
            )
        shards_rebuilt = sum(r["shards_rebuilt"] for r in shard_reports)
        span.set(
            shard_columns=len(shard_reports),
            shards_rebuilt=shards_rebuilt,
            column_rebuilds=len(column_actions),
        )
    engine._bump("optimizer_runs")
    if shards_rebuilt:
        engine._bump("optimizer_shards_rebuilt", shards_rebuilt)
    if column_actions:
        engine._bump("optimizer_column_rebuilds", len(column_actions))
    return {
        "shard_reallocations": shard_reports,
        "column_reallocations": column_actions,
        "shards_rebuilt": shards_rebuilt,
        "columns_changed": len(shard_reports) + len(column_actions),
    }


class BackgroundOptimizer:
    """Daemon thread that periodically reallocates budgets to the workload.

    Mirrors :class:`~repro.engine.compaction.BackgroundCompactor`:
    ``start`` spawns a daemon thread calling
    ``engine.optimize_budgets(**optimize_kwargs)`` every ``interval``
    seconds (a ``threading.Event`` wait, so ``stop`` is prompt),
    swallowing per-cycle errors into a counter — a failed optimisation
    leaves the previous synopses serving, which is always safe.  When a
    ``server`` (anything with a ``republish()`` method, e.g.
    :class:`repro.serving.PoolServer`) is attached, any cycle that
    actually rebuilt something republishes the shared catalog so worker
    processes pick up the reallocated synopses.
    """

    def __init__(
        self,
        engine,
        *,
        interval: float = 5.0,
        server=None,
        **optimize_kwargs,
    ) -> None:
        if interval <= 0:
            raise InvalidParameterError(f"interval must be > 0, got {interval}")
        self.engine = engine
        self.interval = float(interval)
        self.server = server
        self.optimize_kwargs = dict(optimize_kwargs)
        self.cycles = 0
        self.errors = 0
        self.republishes = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self) -> None:
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="budget-optimizer", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float | None = 5.0) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None

    def run_once(self) -> dict:
        """One synchronous optimisation sweep (what the thread loops on)."""
        report = self.engine.optimize_budgets(**self.optimize_kwargs)
        self.cycles += 1
        if self.server is not None and (
            report["shards_rebuilt"] or report["column_reallocations"]
        ):
            self.server.republish()
            self.republishes += 1
        return report

    def _run(self) -> None:
        while not self._stop.is_set():
            try:
                self.run_once()
            except Exception:  # pragma: no cover - defensive: keep serving
                self.errors += 1
            if self._stop.wait(self.interval):
                return
