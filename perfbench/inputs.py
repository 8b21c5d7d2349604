"""Seeded workload inputs, generated in full before any timing starts.

The base table is the reference engine's data (200k uniform integer
rows over domain 4,096 from :data:`DATA_SEED`, the ``BENCH_pool`` /
ROADMAP baseline), identical for every seed so that differences between
seeds come from the traffic.  Everything the traffic consists of — batch
ranges, panels, the hot set, the Zipf draws and the appended rows —
comes from the workload seed, each from its own stream.
"""

from __future__ import annotations

import numpy as np

ROWS = 200_000
DOMAIN = 4096
DATA_SEED = 23

BATCH_SIZE = 4096
PANEL_SIZE = 16
CLIENTS = 2
HOT_RANGES = 1024
ZIPF_EXPONENT = 1.1
APPEND_ROWS = 8
SSE_RANGES = 16384

# Independent streams of one seed.
_BATCH, _PANELS, _HOT, _DRAWS, _APPENDS, _SSE = range(6)


def reference_column() -> np.ndarray:
    return np.random.default_rng(DATA_SEED).integers(0, DOMAIN, ROWS)


def _stream(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream])


def uniform_ranges(rng, shape) -> tuple[np.ndarray, np.ndarray]:
    a = rng.integers(0, DOMAIN, shape, dtype=np.int16)
    b = rng.integers(0, DOMAIN, shape, dtype=np.int16)
    return np.minimum(a, b), np.maximum(a, b)


def aligned_ranges(starts, lows, highs) -> np.ndarray:
    """Ranges whose both ends sit on shard boundaries ``starts``."""
    starts = np.asarray(starts)
    return np.isin(lows, starts[:-1]) & np.isin(np.asarray(highs, np.int64) + 1, starts[1:])


def cycled_aggregates(n: int) -> np.ndarray:
    """COUNT, SUM, AVG, COUNT, ... as oracle aggregate codes."""
    return np.arange(n) % 3


class Inputs:
    """All inputs of one run, sized to the fastest expected rate.

    Closed loops cycle through their inputs, so a faster program repeats
    inputs rather than failing.  ``*_aligned`` counts the shard-aligned
    ranges per batch, per panel and per hot range, for
    ``sharding.aligned_share``.
    """

    def __init__(self, workload: str, seed: int, seconds: float, appends: int, starts):
        self.seed = int(seed)
        self.sse_lows, self.sse_highs = uniform_ranges(_stream(seed, _SSE), SSE_RANGES)
        append_rng = _stream(seed, _APPENDS)
        self.appends = [append_rng.integers(0, DOMAIN, APPEND_ROWS) for _ in range(appends)]
        if workload == "batch":
            batches = max(64, int(48 * seconds))
            self.batch_lows, self.batch_highs = uniform_ranges(
                _stream(seed, _BATCH), (batches, BATCH_SIZE)
            )
            self.batch_aligned = aligned_ranges(starts, self.batch_lows, self.batch_highs).sum(axis=1)
        elif workload in ("serve", "serve-pool"):
            panels = max(512, int(400 * seconds))
            lows, highs = uniform_ranges(_stream(seed, _PANELS), (CLIENTS, panels, PANEL_SIZE))
            self.panel_lows, self.panel_highs = lows, highs
            self.panel_aligned = aligned_ranges(starts, lows, highs).sum(axis=2)
        elif workload == "ingest":
            # 1,024 uniform ranges; Zipf rank r picks hot range r - 1.
            self.hot_lows, self.hot_highs = uniform_ranges(_stream(seed, _HOT), HOT_RANGES)
            self.hot_aggs = cycled_aggregates(HOT_RANGES)
            self.hot_aligned = aligned_ranges(starts, self.hot_lows, self.hot_highs)
            draws = max(16_384, int(4_000 * seconds))
            ranks = np.arange(1, HOT_RANGES + 1, dtype=np.float64) ** -ZIPF_EXPONENT
            self.draws = _stream(seed, _DRAWS).choice(
                HOT_RANGES, size=draws, p=ranks / ranks.sum()
            ).astype(np.int16)
