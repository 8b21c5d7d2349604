"""Generic interval dynamic program for additive histogram objectives.

Every polynomial-time construction in the paper (point-optimal [6],
SAP0/SAP1 via the Decomposition Lemma, and the A0 heuristic) minimises a
sum of independent per-bucket costs.  This module implements the shared
``O(n^2 B)`` dynamic program once, fully vectorised with numpy:

    D[k][i] = min cost of covering the prefix of length i with at most k
              buckets = min_{0 <= j < i} D[k-1][j] + cost(j, i-1)

``cost_row(a)`` must return the costs of all buckets ``[a, b]`` for
``b = a..n-1`` in one array, which the closed forms in
:mod:`repro.internal.prefix` provide in O(n) per row; rows are
independent, so an optional ``pool`` fans the precompute out (see
:mod:`repro.internal.parallel`).

Each DP layer is filled as one whole-layer kernel: the candidate matrix
``merge(prev[j], cost[j, i-1])`` is formed by a single broadcast and
reduced with a column-wise argmin — no per-prefix Python loop.  The
upper triangle of ``cost`` is ``+inf``, which makes the out-of-range
candidates (``j >= i``) inert under both ``sum`` and ``max`` combines,
so the vectorised fill selects from exactly the same candidate set, with
the same first-smallest-``j`` tie-break, as the scalar recurrence.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.internal.deadline import check_deadline
from repro.internal.parallel import map_rows


def _fill_layer_vectorised(prev: np.ndarray, cost: np.ndarray, merge):
    """One DP layer: ``(values, parents)`` for every prefix ``i = 1..n``.

    ``prev`` is the previous layer over prefixes ``0..n`` and ``cost``
    the full ``(n, n)`` bucket-cost matrix (``+inf`` above the
    diagonal's mirror, i.e. where ``a > b``).
    """
    candidates = merge(prev[:-1, None], cost)
    parents = np.argmin(candidates, axis=0)
    values = candidates[parents, np.arange(cost.shape[0])]
    return values, parents


#: The active layer-fill kernel; tests swap in the scalar reference.
_fill_layer = _fill_layer_vectorised


def interval_dp(
    n: int,
    max_buckets: int,
    cost_row: Callable[[int], np.ndarray],
    combine: str = "sum",
    *,
    pool=None,
) -> tuple[np.ndarray, float]:
    """Optimal partition of ``[0, n)`` into at most ``max_buckets`` buckets.

    Parameters
    ----------
    n:
        Domain size.
    max_buckets:
        Upper bound on the number of buckets (using fewer is allowed and
        happens when it is not worse).
    cost_row:
        Callback returning ``cost(a, b)`` for ``b = a..n-1`` as a float
        array of length ``n - a``.
    combine:
        How bucket costs aggregate: ``"sum"`` (SSE-style objectives) or
        ``"max"`` (minimax objectives — minimise the worst bucket).
    pool:
        Optional row-precompute parallelism: ``None`` (serial), an int
        worker count, or an executor (see
        :func:`repro.internal.parallel.map_rows`).  Thread pools only —
        ``cost_row`` is usually a closure over the algebra, which does
        not pickle into a process pool.

    Returns
    -------
    (lefts, total_cost):
        Bucket start indices (``lefts[0] == 0``) and the optimal total.
        The final state is the best over *all* layers ``k <=
        max_buckets`` (ties prefer fewer buckets), so objectives with a
        per-bucket overhead — where splitting can hurt — still resolve
        to the true optimum.
    """
    if combine not in ("sum", "max"):
        raise ValueError(f"combine must be 'sum' or 'max', got {combine!r}")
    if max_buckets < 1:
        raise ValueError(f"max_buckets must be >= 1, got {max_buckets}")
    merge = np.add if combine == "sum" else np.maximum

    def one_row(a: int) -> np.ndarray:
        row = np.asarray(cost_row(a), dtype=np.float64)
        if row.shape != (n - a,):
            raise ValueError(f"cost_row({a}) must have length {n - a}, got {row.shape}")
        return row

    cost = np.full((n, n), np.inf)
    rows = map_rows(one_row, range(n), pool=pool, context="interval DP cost precompute")
    for a, row in enumerate(rows):
        cost[a, a:] = row

    best = np.full((max_buckets + 1, n + 1), np.inf)
    parent = np.zeros((max_buckets + 1, n + 1), dtype=np.int64)
    best[:, 0] = 0.0 if combine == "sum" else -np.inf
    for k in range(1, max_buckets + 1):
        check_deadline("interval DP layer fill")
        values, parents = _fill_layer(best[k - 1], cost, merge)
        best[k, 1:] = values
        parent[k, 1:] = parents

    # Final state: best over every bucket count k <= max_buckets (the
    # same selection opt_a_search performs), not just the last layer.
    k_best = 1 + int(np.argmin(best[1:, n]))

    lefts: list[int] = []
    i, k = n, k_best
    while i > 0:
        j = int(parent[k, i])
        lefts.append(j)
        i, k = j, k - 1
    lefts.reverse()
    return np.asarray(lefts, dtype=np.int64), float(best[k_best, n])
