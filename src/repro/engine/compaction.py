"""Shard compaction policy and background compactor.

Under streaming ingest a sharded column's heat distribution skews hard:
appends land in a few hot shards (usually the domain tail) while the
bulk of the shard array goes cold.  Keeping every cold shard at full
resolution wastes per-shard fixed overhead (one synopsis, one budget
and one boundary partial per shard).  The t-digest "continuous aggregate" move
is to fold cold runs into coarser *mergeable* summaries without ever
stopping ingest — here that is
:meth:`repro.engine.sharding.ShardedSynopsis.with_compacted_runs`:
adjacent cold shards merge into one shard whose synopsis is rebuilt
over the concatenated slice with the *sum* of the run's word budgets
(:func:`repro.core.builders.merge_shard_budgets`, i.e.
``split_budget_by_mass`` run in reverse), swapped in copy-on-write so
readers never see a half-compacted synopsis.

This module holds the *decision* layer: :class:`CompactionPolicy`
selects which runs to merge from per-shard heat counters, and
:class:`BackgroundCompactor` drives
:meth:`~repro.engine.engine.ApproximateQueryEngine.compact_all_shards`
on a daemon thread, mirroring the serving tier's refresh daemon.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.errors import InvalidParameterError


@dataclass(frozen=True)
class CompactionPolicy:
    """When and how aggressively to merge cold shard runs.

    ``max_heat`` is the hottest a shard may be (append touches since its
    last build) and still count as cold; ``hot_tail_shards`` exempts the
    trailing shards outright, since streaming appends concentrate there
    and merging them would immediately re-dirty the coarse shard.  Runs
    shorter than ``min_run_length`` are not worth a rebuild; runs are
    capped at ``max_run_length`` so one compaction never collapses the
    whole column (bounding both rebuild latency and resolution loss per
    generation), and ``min_shards`` stops compaction from degenerating
    the synopsis into a monolith.
    """

    min_run_length: int = 2
    max_run_length: int = 8
    hot_tail_shards: int = 1
    max_heat: int = 0
    min_shards: int = 2

    def __post_init__(self) -> None:
        if self.min_run_length < 2:
            raise InvalidParameterError(
                f"min_run_length must be >= 2, got {self.min_run_length}"
            )
        if self.max_run_length < self.min_run_length:
            raise InvalidParameterError(
                f"max_run_length must be >= min_run_length, got "
                f"{self.max_run_length}"
            )
        if self.hot_tail_shards < 0 or self.max_heat < 0:
            raise InvalidParameterError(
                "hot_tail_shards and max_heat must be non-negative"
            )
        if self.min_shards < 1:
            raise InvalidParameterError(
                f"min_shards must be >= 1, got {self.min_shards}"
            )


def plan_runs(heat, policy: CompactionPolicy) -> list[tuple[int, int]]:
    """The sorted, non-overlapping cold runs a compaction should merge.

    ``heat`` is the per-shard append-touch counter vector (index =
    shard id).  A shard is *cold* when its heat is at most
    ``policy.max_heat`` and it is not within the exempt hot tail.
    Maximal cold runs are split greedily into ``max_run_length`` chunks;
    chunks shorter than ``min_run_length`` are dropped.  Finally runs
    are trimmed from the left until the post-merge shard count stays at
    least ``policy.min_shards``.  Returns ``[]`` when nothing qualifies
    — callers treat that as "no compaction needed".
    """
    heat = [int(h) for h in heat]
    size = len(heat)
    eligible = max(0, size - int(policy.hot_tail_shards))
    runs: list[tuple[int, int]] = []
    start = None
    for shard in range(eligible + 1):
        cold = shard < eligible and heat[shard] <= policy.max_heat
        if cold and start is None:
            start = shard
        elif not cold and start is not None:
            first = start
            while shard - first >= policy.min_run_length:
                last = min(shard - 1, first + policy.max_run_length - 1)
                if last - first + 1 >= policy.min_run_length:
                    runs.append((first, last))
                first = last + 1
            start = None
    # Keep at least min_shards surviving shards: each run of length L
    # removes L - 1 shards, so drop whole runs (longest removals last
    # are the most valuable, so trim from the front) until we fit.
    surviving = size - sum(last - first for first, last in runs)
    while runs and surviving < policy.min_shards:
        first, last = runs.pop(0)
        surviving += last - first
    return runs


class BackgroundCompactor:
    """Daemon thread that periodically compacts every registered column.

    Mirrors the serving tier's refresh loop: ``start`` spawns a daemon
    thread that calls ``engine.compact_all_shards(policy)`` every
    ``interval`` seconds (a ``threading.Event`` wait, so ``stop`` is
    prompt), swallowing per-cycle engine errors into an error counter
    instead of dying — a failed compaction leaves the old synopsis
    serving, which is always safe.
    """

    def __init__(
        self,
        engine,
        *,
        interval: float = 1.0,
        policy: CompactionPolicy | None = None,
    ) -> None:
        if interval <= 0:
            raise InvalidParameterError(f"interval must be > 0, got {interval}")
        self.engine = engine
        self.interval = float(interval)
        self.policy = policy or CompactionPolicy()
        self.cycles = 0
        self.errors = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self) -> None:
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="shard-compactor", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float | None = 5.0) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None

    def run_once(self) -> dict:
        """One synchronous compaction sweep (what the thread loops on)."""
        report = self.engine.compact_all_shards(policy=self.policy)
        self.cycles += 1
        return report

    def _run(self) -> None:
        while not self._stop.is_set():
            try:
                self.run_once()
            except Exception:  # pragma: no cover - defensive: keep serving
                self.errors += 1
            if self._stop.wait(self.interval):
                return
